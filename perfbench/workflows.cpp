#include "workflows.h"

#include <algorithm>
#include <cstdio>

#include "driver/experiment.h"
#include "obs/obs.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "transform/plan_ir.h"
#include "workloads/workloads.h"

namespace fsbench {

using namespace fsopt;

namespace {

/// Per-processor L1 of the simulation study (§4).
constexpr i64 kL1Bytes = 32 * 1024;
/// Coherence unit the planners target (the KSR2's 128 B).
constexpr i64 kTargetBlock = 128;
/// Candidate replays per program beyond the seed (bench_repair_loop).
constexpr int kSearchBudget = 12;
/// The Table-3 processor counts (bench_table3_maxspeedup's sweep).  Every
/// speedup unit sweeps all of them, so a pass costs the same at every
/// seed and its nine jobs keep the pool's workers evenly loaded; the
/// seed picks the program order and the count re-run serially.
const std::vector<i64> kTable3Procs = {1, 2, 4, 8, 12, 16, 24, 32, 48};

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t draw(u64& state, size_t n) {
  return static_cast<size_t>(splitmix64(state) % n);
}

/// NPROCS per program for study: seed 0 keeps each program's Figure-3
/// count, any other seed draws from {8, 12, 16}.
std::map<std::string, i64> draw_nprocs(u64 seed) {
  static const i64 kChoices[] = {8, 12, 16};
  std::map<std::string, i64> out;
  u64 state = seed;
  for (const workloads::Workload& w : workloads::all())
    out[w.name] = seed == 0 ? w.fig3_procs : kChoices[draw(state, 3)];
  return out;
}

/// The ten programs in an order drawn from `state`.
std::vector<const workloads::Workload*> shuffled_programs(u64& state) {
  std::vector<const workloads::Workload*> out;
  for (const workloads::Workload& w : workloads::all()) out.push_back(&w);
  for (size_t k = out.size(); k > 1; --k)
    std::swap(out[k - 1], out[draw(state, k)]);
  return out;
}

void write_overrides(json::Writer& w, const ParamOverrides& ov) {
  std::map<std::string, i64> sorted(ov.begin(), ov.end());
  w.begin_object();
  for (const auto& [k, v] : sorted) w.key(k).value(v);
  w.end_object();
}

void append_stats(std::string& out, const MissStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu;",
                static_cast<unsigned long long>(s.refs),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.cold),
                static_cast<unsigned long long>(s.replacement),
                static_cast<unsigned long long>(s.true_sharing),
                static_cast<unsigned long long>(s.false_sharing),
                static_cast<unsigned long long>(s.upgrades),
                static_cast<unsigned long long>(s.invalidations));
  out += buf;
}

/// Tracing off for the lifetime of the scope (probes must not land in
/// the traced pass's spans or pay for them).
class TracingPaused {
 public:
  TracingPaused() : was_(obs::enabled()) { obs::set_enabled(false); }
  ~TracingPaused() { obs::set_enabled(was_); }
  TracingPaused(const TracingPaused&) = delete;
  TracingPaused& operator=(const TracingPaused&) = delete;

 private:
  bool was_;
};

double since(u64 t0) {
  return static_cast<double>(obs::now_ns() - t0) * 1e-9;
}

/// The interp, trace and replay probes on one compiled program.
void probe_program(const Compiled& c, const std::vector<i64>& blocks,
                   const AddressMap* attribution, int threads, Probe& p) {
  TracingPaused paused;
  u64 t = obs::now_ns();
  std::unique_ptr<Machine> m = run_program(c);
  p.interp_s += since(t);
  p.interp_instructions += m->instructions();
  p.interp_refs += m->refs();
  t = obs::now_ns();
  EncodedTrace trace = record_encoded_trace(c);
  p.record_s += since(t);
  t = obs::now_ns();
  replay_trace_study(trace, c, blocks, kL1Bytes, attribution, 1);
  p.replay_serial_s += since(t);
  t = obs::now_ns();
  replay_trace_study(trace, c, blocks, kL1Bytes, attribution, threads);
  p.replay_parallel_s += since(t);
}

std::string program_of(const std::string& label) {
  return label.substr(0, label.find('/'));
}

// ---------------------------------------------------------------------------
// study
// ---------------------------------------------------------------------------

class Study : public Workflow {
 public:
  Study(u64 seed, int threads)
      : threads_(threads), nprocs_(draw_nprocs(seed)),
        jobs_(workload_matrix_jobs(kTargetBlock)),
        blocks_(paper_block_sizes()) {
    for (CompileJob& job : jobs_)
      job.options.overrides["NPROCS"] = nprocs_.at(program_of(job.label));
    u64 state = seed ^ 0x5713d7ULL;
    check_block_ = blocks_[draw(state, blocks_.size())];
  }

  size_t size() const override { return jobs_.size(); }
  std::string label(size_t i) const override { return jobs_[i].label; }
  bool counts_fs(size_t i) const override {
    const std::string& l = jobs_[i].label;
    return l.size() > 2 && l.compare(l.size() - 2, 2, "/C") == 0;
  }

  void write_inputs(json::Writer& w) const override {
    w.begin_object().key("overrides").begin_object();
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (!counts_fs(i)) continue;  // one entry per program: its C variant
      w.key(program_of(jobs_[i].label));
      write_overrides(w, jobs_[i].options.overrides);
    }
    w.end_object().key("check_block").value(check_block_).end_object();
  }

  UnitOutcome run(size_t i, bool check, Probe* probe) override {
    const CompileJob& job = jobs_[i];
    UnitOutcome out;
    Compiled c;
    AddressMap am;
    EncodedTrace trace;
    TraceStudyResult study;
    out.window.t0 = obs::now_ns();
    {
      obs::Span unit("bench", "unit");
      FrontHalf front;
      {
        obs::Span s("bench", "front");
        front = run_front(job.source, job.options.overrides);
      }
      {
        obs::Span s("bench", "back");
        c = run_back(front, job.options);
      }
      am = build_address_map(c);
      {
        obs::Span s("bench", "record");
        trace = record_encoded_trace(c);
      }
      {
        obs::Span s("bench", "replay");
        study = replay_trace_study(trace, c, blocks_, kL1Bytes, &am,
                                   threads_);
      }
    }
    out.window.t1 = obs::now_ns();

    u64 misses = 0;
    for (i64 b : blocks_) {
      const MissStats& s = study.at(b);
      out.fs_misses += s.false_sharing;
      misses += s.misses();
      out.sim += std::to_string(b) + ":";
      append_stats(out.sim, s);
      for (const auto& [datum, ds] : study.by_datum.at(b)) {
        out.sim += datum + "=";
        append_stats(out.sim, ds);
      }
    }
    out.row = {{"fs_misses", static_cast<double>(out.fs_misses)},
               {"misses", static_cast<double>(misses)}};

    if (check) {
      if (compile_fingerprint(c) !=
          compile_fingerprint(
              compile_source_reference(job.source, job.options)))
        out.problems.push_back(
            "compile_fingerprint differs from compile_source_reference");
      CacheSim sim(CacheParams{c.nprocs(), kL1Bytes, check_block_,
                               c.code.total_bytes},
                   &am);
      trace.replay(sim);
      if (!(sim.stats() == study.at(check_block_)) ||
          sim.by_datum() != study.by_datum.at(check_block_))
        out.problems.push_back(
            "replay_trace_study differs from a single-plane CacheSim "
            "replay at block " +
            std::to_string(check_block_));
    }
    if (probe != nullptr) probe_program(c, blocks_, &am, threads_, *probe);
    return out;
  }

 private:
  int threads_;
  std::map<std::string, i64> nprocs_;
  std::vector<CompileJob> jobs_;
  std::vector<i64> blocks_;
  i64 check_block_ = kTargetBlock;
};

// ---------------------------------------------------------------------------
// search
// ---------------------------------------------------------------------------

class Search : public Workflow {
 public:
  /// Every program runs at its Figure-3 NPROCS and the seed draws only
  /// the order: a program's search cost changes by up to 2x with NPROCS,
  /// and seeded counts made the pass cost depend on the seed.
  Search(u64 seed, int threads) : threads_(threads) {
    u64 state = seed ^ 0x5ea7c4ULL;
    for (const workloads::Workload* w : shuffled_programs(state)) {
      CompileOptions base;
      base.overrides = w->sim_overrides;
      base.overrides["NPROCS"] = w->fig3_procs;
      units_.push_back({w->name, &w->natural, base});
    }
    opt_.seed.planner_name = "graph";
    opt_.seed.block_size = kTargetBlock;
    opt_.seed.sweep_blocks = blocks_;
    opt_.seed.threads = threads;
    opt_.budget.max_replays = kSearchBudget;
  }

  size_t size() const override { return units_.size(); }
  std::string label(size_t i) const override { return units_[i].name; }

  void write_inputs(json::Writer& w) const override {
    w.begin_object().key("overrides").begin_object();
    for (const Unit& u : units_) {
      w.key(u.name);
      write_overrides(w, u.base.overrides);
    }
    w.end_object().key("budget").value(kSearchBudget).end_object();
  }

  UnitOutcome run(size_t i, bool check, Probe* probe) override {
    const Unit& unit = units_[i];
    UnitOutcome out;
    SearchPlanResult sp;
    out.window.t0 = obs::now_ns();
    {
      obs::Span u("bench", "unit");
      obs::Span s("bench", "search");
      sp = search_plan(*unit.source, unit.base, opt_);
    }
    out.window.t1 = obs::now_ns();

    const std::map<i64, u64>& fs = sp.final_fs();
    const std::map<i64, MissStats>& seed_sweep =
        sp.seed.iterations.empty() ? sp.seed.baseline_sweep
                                   : sp.seed.iterations.back().sweep;
    const SearchResult& r = sp.search;
    out.sim = plan_to_json(sp.final_plan(), *sp.final_compiled.prog);
    u64 seed_fs = 0;
    for (const auto& [b, v] : fs) {
      out.fs_misses += v;
      seed_fs += seed_sweep.at(b).false_sharing;
      out.sim += ";" + std::to_string(b) + ":" + std::to_string(v) + "/" +
                 std::to_string(seed_sweep.at(b).false_sharing);
    }
    out.sim += ";" + std::to_string(r.replays) + "/" +
               std::to_string(r.generated) + "/" + std::to_string(r.pruned) +
               "/" + std::to_string(r.frontier.size());
    out.row = {{"fs_misses", static_cast<double>(out.fs_misses)},
               {"seed_fs_misses", static_cast<double>(seed_fs)}};
    out.counts["search.replays"] = static_cast<double>(r.replays);
    out.counts["search.generated"] = static_cast<double>(r.generated);
    out.counts["search.pruned"] = static_cast<double>(r.pruned);
    out.counts["repair.iterations"] =
        static_cast<double>(sp.seed.iterations.size());

    if (check) {
      for (i64 b : blocks_)
        if (fs.at(b) > seed_sweep.at(b).false_sharing)
          out.problems.push_back("search is worse than its graph seed at "
                                 "block " + std::to_string(b));
      // Re-inject the winning plan the way --plan-in does: through its
      // JSON form, resolved against a fresh front half.
      CompileOptions o = unit.base;
      o.optimize = true;
      o.block_size = kTargetBlock;
      FrontHalf front = run_front(*unit.source, o.overrides);
      o.plan = std::make_shared<TransformPlan>(plan_from_json(
          plan_to_json(sp.final_plan(), *sp.final_compiled.prog),
          *front.prog));
      Compiled c = run_back(front, o);
      TraceStudyResult st =
          run_trace_study(c, blocks_, kL1Bytes, nullptr, threads_);
      for (i64 b : blocks_)
        if (st.at(b).false_sharing != fs.at(b))
          out.problems.push_back(
              "re-injected plan does not reproduce final_fs at block " +
              std::to_string(b));
    }
    if (probe != nullptr)
      probe_program(sp.final_compiled, blocks_, nullptr, threads_, *probe);
    return out;
  }

 private:
  struct Unit {
    std::string name;
    const std::string* source;  // owned by workloads::all()
    CompileOptions base;
  };
  int threads_;
  std::vector<Unit> units_;
  std::vector<i64> blocks_ = {32, 64, 128, 256};
  SearchPlanOptions opt_;
};

// ---------------------------------------------------------------------------
// speedup
// ---------------------------------------------------------------------------

class Speedup : public Workflow {
 public:
  Speedup(u64 seed, int threads) : threads_(threads) {
    u64 state = seed ^ 0x5eedd0ULL;
    for (const workloads::Workload* p : shuffled_programs(state)) {
      const workloads::Workload& w = *p;
      Unit u;
      u.name = w.name;
      u.natural = &w.natural;
      u.baseline = w.has_unopt() ? &w.unopt : &w.natural;
      u.base.overrides = w.time_overrides;
      u.base.overrides["NPROCS"] = 1;
      u.serial_check = draw(state, kTable3Procs.size());
      units_.push_back(std::move(u));
    }
  }

  size_t size() const override { return units_.size(); }
  std::string label(size_t i) const override { return units_[i].name; }

  void write_inputs(json::Writer& w) const override {
    w.begin_object().key("programs").begin_object();
    for (const Unit& u : units_) {
      w.key(u.name).begin_object().key("overrides");
      write_overrides(w, u.base.overrides);
      w.key("serial_check_procs").value(kTable3Procs[u.serial_check]);
      w.end_object();
    }
    w.end_object().key("procs").begin_array();
    for (i64 p : kTable3Procs) w.value(p);
    w.end_array().end_object();
  }

  UnitOutcome run(size_t i, bool check, Probe* /*probe*/) override {
    const Unit& unit = units_[i];
    CompileOptions copt = unit.base;
    copt.optimize = true;
    UnitOutcome out;
    i64 base_cycles = 0;
    SpeedupCurve curve;
    out.window.t0 = obs::now_ns();
    {
      obs::Span u("bench", "unit");
      {
        obs::Span s("bench", "baseline");
        base_cycles = baseline_cycles(*unit.baseline, unit.base);
      }
      {
        obs::Span s("bench", "sweep");
        curve = speedup_sweep(*unit.natural, kTable3Procs, copt, base_cycles,
                              threads_);
      }
    }
    out.window.t1 = obs::now_ns();

    out.speedup = curve.peak().first;
    out.row = {{"peak_speedup", out.speedup},
               {"peak_procs", static_cast<double>(curve.peak().second)},
               {"baseline_cycles", static_cast<double>(base_cycles)}};
    out.sim = std::to_string(base_cycles);
    for (double s : curve.speedup) {
      char buf[32];
      std::snprintf(buf, sizeof buf, ";%.17g", s);
      out.sim += buf;
    }

    if (check) {
      // Every run again through compile_and_time, fanned out like the
      // sweep, and the seeded count once more on this thread alone: the
      // KSR counters must balance and the cycles must match the sweep's.
      auto balanced = [&out](const TimingResult& t, i64 procs) {
        const KsrStats& k = t.ksr;
        if (k.hits + k.upgrades + k.misses != k.refs ||
            k.classified.refs != k.refs || k.classified.misses() != k.misses)
          out.problems.push_back("KSR counters do not balance at " +
                                 std::to_string(procs) + " processors");
      };
      CompileOptions nopt = unit.base;
      nopt.optimize = false;
      TimingResult b = compile_and_time(*unit.baseline, 1, nopt);
      balanced(b, 1);
      if (b.cycles != base_cycles)
        out.problems.push_back("baseline cycles differ on a serial re-run");
      std::vector<TimingResult> runs(kTable3Procs.size());
      parallel_for_each(threads_, runs.size(), [&](size_t k) {
        runs[k] = compile_and_time(*unit.natural, kTable3Procs[k], copt);
      });
      u64 instructions = b.instructions;
      for (size_t k = 0; k < runs.size(); ++k) {
        const i64 procs = kTable3Procs[k];
        balanced(runs[k], procs);
        instructions += runs[k].instructions;
        if (static_cast<double>(base_cycles) /
                static_cast<double>(runs[k].cycles) !=
            curve.speedup[k])
          out.problems.push_back("cycles at " + std::to_string(procs) +
                                 " processors differ on a re-run");
      }
      const size_t k = unit.serial_check;
      if (compile_and_time(*unit.natural, kTable3Procs[k], copt).cycles !=
          runs[k].cycles)
        out.problems.push_back("cycles at " +
                               std::to_string(kTable3Procs[k]) +
                               " processors differ on a serial re-run");
      out.counts["ksr.instructions"] = static_cast<double>(instructions);
    }
    return out;
  }

 private:
  struct Unit {
    std::string name;
    const std::string* natural = nullptr;   // owned by workloads::all()
    const std::string* baseline = nullptr;  // N source, else natural
    CompileOptions base;                    // time_overrides, NPROCS=1
    size_t serial_check = 0;  // kTable3Procs index re-run serially
  };
  int threads_;
  std::vector<Unit> units_;
};

}  // namespace

std::unique_ptr<Workflow> make_workflow(const std::string& name, u64 seed,
                                        int threads) {
  if (name == "study") return std::make_unique<Study>(seed, threads);
  if (name == "search") return std::make_unique<Search>(seed, threads);
  if (name == "speedup") return std::make_unique<Speedup>(seed, threads);
  return nullptr;
}

}  // namespace fsbench
