// fsopt_bench: one process, one workload, one seed.
//
//   fsopt_bench --workload study|search|speedup --seed N --seconds S
//               --trace 0|1 [--threads T] [--spawn-ns NS] [--setup-only]
//
// Runs passes over the workload's units (workflows.h) in a closed loop
// until the next pass would overrun S seconds.  The first pass runs
// every output check and is not timed as a sample; every later pass
// must reproduce its simulated results exactly.  At least two samples
// follow it (with --trace 1, one untraced and one traced).
//
// Output is one JSON object per line: run metadata, the seeded inputs,
// any failures, a row per unit, a summary, with --trace 1 the layer
// accounting, and last the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end ones (wall_s, setup_s) with
// --trace 0 and the per-layer ones with --trace 1.  The exit code
// is 0 only when every unit passed.
//
// --spawn-ns is the CLOCK_MONOTONIC time at which the caller spawned
// this process; setup_s runs from there to the first pass.  With
// --setup-only the process sets up, prints {"setup_s": ...} and exits.
// --threads caps the harness threads at the CPUs this process may run
// on (default: half of them, at least one, so that the host's other
// work does not decide the timings).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accounting.h"
#include "driver/experiment.h"
#include "obs/obs.h"
#include "obs/trace_writer.h"
#include "support/json.h"
#include "support/simd.h"
#include "workflows.h"

namespace fsbench {
namespace {

namespace obs = fsopt::obs;
using fsopt::json::Writer;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;
  long long spawn_ns = -1;
  bool setup_only = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "fsopt_bench: %s\nusage: fsopt_bench --workload "
               "study|search|speedup --seed N --seconds S --trace 0|1 "
               "[--threads T] [--spawn-ns NS] [--setup-only]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value after " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      continue;
    }
    if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != 0 || !(a.seconds > 0.0)) usage("bad --seconds");
      continue;
    }
    long long n = std::strtoll(v, &end, 10);
    if (*end != 0 || n < 0) usage(("bad value for " + flag).c_str());
    if (flag == "--seed")
      a.seed = static_cast<u64>(n);
    else if (flag == "--trace" && n <= 1)
      a.trace = n == 1;
    else if (flag == "--threads")
      a.threads = static_cast<int>(n);
    else if (flag == "--spawn-ns")
      a.spawn_ns = n;
    else
      usage(("unknown flag or value: " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

int cpus_available() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// The sanitizer this file was compiled with, "" for none.  GCC defines
// __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__; clang answers
// __has_feature.  (Neither marks an UBSan-only build.)
#if defined(__has_feature)
#define FSOPT_BENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define FSOPT_BENCH_HAS_FEATURE(x) 0
#endif

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || FSOPT_BENCH_HAS_FEATURE(address_sanitizer)
  return "address";
#elif defined(__SANITIZE_THREAD__) || FSOPT_BENCH_HAS_FEATURE(thread_sanitizer)
  return "thread";
#elif FSOPT_BENCH_HAS_FEATURE(memory_sanitizer)
  return "memory";
#else
  return "";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  const std::string type = FSOPT_BENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Print one JSON object, filled in by `fill`, as a line on stdout.
template <typename Fill>
void print_object(Fill fill) {
  std::string line;
  Writer w(&line);
  w.begin_object();
  fill(w);
  w.end_object();
  std::printf("%s\n", line.c_str());
}

struct Pass {
  bool traced = false;
  double wall = 0.0;  // sum of the units' timed regions
  std::vector<UnitOutcome> units;
};

/// What the traced pass's spans say, besides the layer times.
struct SpanFacts {
  LayerTimes layers;
  LayerTimes in_search;      // layer times inside search_plan calls
  double search_s = 0.0;
  u64 compiles = 0;
  u64 ksr_runs = 0;
  double plane_refs = 0.0;
  double recorded_refs = 0.0;
  double recorded_bytes = 0.0;
  int pool_workers = 0;
  double pool_busy_s = 0.0;
};

SpanFacts read_spans(const obs::TraceData& data, const Pass& pass) {
  std::vector<Window> windows;
  for (const UnitOutcome& u : pass.units) windows.push_back(u.window);
  u32 main_tid = 0;
  for (const obs::ThreadLog& t : data.threads)
    if (t.name == "bench-main") main_tid = t.tid;

  SpanFacts f;
  f.layers = account(data, main_tid, windows);
  const std::string first_back =
      fsopt::back_pipeline().pass_names().front();
  auto arg = [](const obs::SpanEvent& s, const char* key) {
    for (const obs::Arg& a : s.args)
      if (a.key == key) return a.num;
    return 0.0;
  };
  std::vector<Window> search;
  for (const obs::ThreadLog& t : data.threads) {
    for (const obs::SpanEvent& s : t.spans) {
      if (!in_windows(windows, s.start_ns)) continue;
      const std::string_view cat = s.category;
      if (cat == "pass" && s.name == first_back) ++f.compiles;
      if (cat == "sweep" || (cat == "bench" && s.name == "baseline"))
        ++f.ksr_runs;
      if (cat == "replay" && s.name == "plane")
        f.plane_refs += arg(s, "refs");
      if (cat == "record" && s.name == "record_encoded_trace") {
        f.recorded_refs += arg(s, "refs");
        f.recorded_bytes += arg(s, "refs") * arg(s, "bytes_per_ref");
      }
      if (cat == "bench" && s.name == "search" && t.tid == main_tid) {
        search.push_back({s.start_ns, s.start_ns + s.dur_ns});
        f.search_s += static_cast<double>(s.dur_ns) * 1e-9;
      }
    }
  }
  std::sort(search.begin(), search.end(),
            [](const Window& a, const Window& b) { return a.t0 < b.t0; });
  f.in_search = account(data, main_tid, search);
  // The trace holds this one pass, and the probes run untraced.
  const obs::TraceSummary summary = obs::summarize(data);
  f.pool_workers = summary.pool_workers;
  f.pool_busy_s = summary.pool_busy_seconds;
  return f;
}

int run(const Args& args) {
  const u64 entry_ns = obs::now_ns();
  if (!optimized() || !sanitizer().empty()) {
    std::fprintf(stderr,
                 "fsopt_bench: refusing to report timings from a %s%s%s "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizer\n",
                 FSOPT_BENCH_BUILD_TYPE,
                 sanitizer().empty() ? "" : " sanitizer=",
                 sanitizer().c_str());
    return 3;
  }
  obs::set_thread_name("bench-main");
  const int nproc = cpus_available();
  const int threads = args.threads > 0 ? std::min(args.threads, nproc)
                                       : std::max(1, nproc / 2);
  fsopt::set_experiment_threads(threads);
  std::unique_ptr<Workflow> wf =
      make_workflow(args.workload, args.seed, threads);
  if (wf == nullptr) usage(("unknown workload " + args.workload).c_str());
  const size_t n = wf->size();

  auto setup_seconds = [&] {
    if (args.spawn_ns < 0)
      return static_cast<double>(obs::now_ns() - entry_ns) * 1e-9;
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                   .count() -
               args.spawn_ns) *
           1e-9;
  };
  const double setup_s = setup_seconds();
  if (args.setup_only) {
    print_object([&](Writer& w) { w.key("setup_s").value(setup_s); });
    return 0;
  }

  // --- passes -------------------------------------------------------------
  // Pass 0 runs the output checks and is the reference; it is not a
  // timing sample.  A run needs two untraced samples after it (with
  // --trace 1, one untraced and one traced), then stops as soon as the
  // next pass would overrun --seconds.
  const size_t min_samples = args.trace ? 1 : 2;
  size_t samples = 0;
  const u64 start_ns = obs::now_ns();
  std::vector<Pass> passes;
  std::vector<std::string> reference(n);
  std::vector<bool> reference_ok(n, false);
  Probe probe;
  SpanFacts facts;
  double traced_wall = -1.0;
  u64 attempted = 0, failed = 0;
  for (size_t k = 0;; ++k) {
    Pass pass;
    pass.traced = args.trace && k % 2 == 1;
    const bool check = k == 0;
    const bool probing = pass.traced && traced_wall < 0.0;
    if (pass.traced) {
      obs::reset();
      obs::set_enabled(true);
    }
    for (size_t i = 0; i < n; ++i) {
      ++attempted;
      UnitOutcome u;
      try {
        u = wf->run(i, check, probing ? &probe : nullptr);
      } catch (const std::exception& e) {
        u.window.t0 = u.window.t1 = obs::now_ns();
        u.problems.push_back(std::string("exception: ") + e.what());
      }
      if (check) {
        reference[i] = u.sim;
        reference_ok[i] = u.problems.empty();
      } else if (reference_ok[i] && u.problems.empty() &&
                 u.sim != reference[i]) {
        u.problems.push_back("simulated results differ from the first pass");
      }
      if (!u.problems.empty()) ++failed;
      for (const std::string& p : u.problems)
        print_object([&](Writer& w) {
          w.key("failure").begin_object();
          w.key("pass").value(k);
          w.key("unit").value(wf->label(i));
          w.key("problem").value(p);
          w.end_object();
        });
      pass.wall += u.seconds();
      pass.units.push_back(std::move(u));
    }
    if (pass.traced) {
      obs::set_enabled(false);
      // Report the fastest traced pass's accounting (least perturbed).
      if (traced_wall < 0.0 || pass.wall < traced_wall) {
        facts = read_spans(obs::collect(), pass);
        traced_wall = pass.wall;
      }
      obs::reset();
    }
    if (k > 0 && !pass.traced) ++samples;
    passes.push_back(std::move(pass));
    const double elapsed =
        static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
    const double next = passes.back().wall;
    const bool have_samples =
        samples >= min_samples && (!args.trace || traced_wall >= 0.0);
    if (have_samples && elapsed + next > args.seconds) break;
  }

  // --- results ------------------------------------------------------------
  std::vector<double> walls, traced_walls;
  for (size_t k = 1; k < passes.size(); ++k)
    (passes[k].traced ? traced_walls : walls).push_back(passes[k].wall);
  // A median pass: each unit's median over the untraced samples, summed.
  // Interference from other work on the host lands on a few units of a
  // few passes, and per-unit medians drop it.
  std::vector<std::vector<double>> unit_times(n);
  double wall_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 1; k < passes.size(); ++k)
      if (!passes[k].traced)
        unit_times[i].push_back(passes[k].units[i].seconds());
    wall_s += median(unit_times[i]);
  }

  u64 fs_misses = 0;
  // Keyed by unit label, so that the sum of logs, and with it every
  // digit of the geomean, does not depend on the seeded unit order.
  std::map<std::string, double> speedups;
  std::map<std::string, double> counts;
  const std::vector<UnitOutcome>& checked = passes.front().units;
  for (size_t i = 0; i < n; ++i) {
    const UnitOutcome& u = checked[i];
    if (wf->counts_fs(i)) fs_misses += u.fs_misses;
    if (u.speedup > 0.0) speedups[wf->label(i)] = u.speedup;
    for (const auto& [key, v] : u.counts) counts[key] += v;
  }
  double log_speedup = 0.0;
  for (const auto& [label, s] : speedups) log_speedup += std::log(s);
  const double speedup_geomean =
      speedups.empty()
          ? 0.0
          : std::exp(log_speedup / static_cast<double>(speedups.size()));

  print_object([&](Writer& w) {
    w.key("meta").begin_object();
    w.key("workload").value(args.workload);
    w.key("seed").value(args.seed);
    w.key("seconds").value(args.seconds);
    w.key("trace").value(args.trace);
    w.key("nproc").value(nproc);
    w.key("harness_threads").value(threads);
    w.key("simd_tier").value(
        fsopt::simd::level_name(fsopt::simd::active_level()));
    w.key("cpu_features").value(fsopt::simd::cpu_features());
    w.key("compiler").value(__VERSION__);
    w.key("build_type").value(FSOPT_BENCH_BUILD_TYPE);
    w.key("sanitizer").value(sanitizer().empty() ? "none" : sanitizer());
    w.key("samples").value(walls.size());
    w.key("traced_samples").value(traced_walls.size());
    w.end_object();
  });
  print_object([&](Writer& w) {
    w.key("seed").value(args.seed);
    w.key("inputs");
    wf->write_inputs(w);
  });
  for (size_t i = 0; i < n; ++i) {
    print_object([&](Writer& w) {
      w.key("row").begin_object();
      w.key("unit").value(wf->label(i));
      w.key("unit_s").value(median(unit_times[i]));
      w.key("pass_unit_s").begin_array();
      for (double t : unit_times[i]) w.value(t);
      w.end_array();
      for (const auto& [key, v] : checked[i].row) w.key(key).value(v);
      w.end_object();
    });
  }
  print_object([&](Writer& w) {
    w.key("summary").begin_object();
    w.key("wall_s").value(wall_s);
    w.key("pass_wall_s").begin_array();
    for (double x : walls) w.value(x);
    w.end_array();
    w.key("error_rate")
        .value(ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)));
    w.key("fs_misses").value(fs_misses);
    w.key("speedup_geomean").value(speedup_geomean);
    w.key("peak_rss_mb").value(peak_rss_mb());
    w.end_object();
  });

  std::vector<std::tuple<const char*, double, const char*>> metrics;
  auto metric = [&metrics](const char* name, double value, const char* unit) {
    metrics.emplace_back(name, value, unit);
  };
  if (!args.trace) {
    metric("wall_s", wall_s, "s");
    metric("setup_s", setup_s, "s");
  } else {
    const LayerTimes& lt = facts.layers;
    print_object([&](Writer& w) {
      w.key("accounting").begin_object();
      for (size_t l = 0; l < kLayers; ++l)
        w.key(layer_name(static_cast<Layer>(l))).value(lt.seconds[l]);
      w.key("sum").value(lt.total());
      w.key("traced_wall_s").value(traced_wall);
      w.end_object();
    });

    const double replay_s = lt[Layer::kReplay];
    const double ksr_s = lt[Layer::kKsr];
    const double search_s = facts.search_s;
    const LayerTimes& is = facts.in_search;
    metric("compile.calls", static_cast<double>(facts.compiles), "count");
    metric("compile.front_s", lt[Layer::kFront], "s");
    metric("compile.back_s", lt[Layer::kBack], "s");
    metric("interp.s", probe.interp_s, "s");
    metric("interp.instructions",
           static_cast<double>(probe.interp_instructions), "count");
    metric("interp.refs", static_cast<double>(probe.interp_refs), "count");
    metric("interp.mref_per_s",
           ratio(static_cast<double>(probe.interp_refs), probe.interp_s) *
               1e-6,
           "Mref/s");
    metric("record.s", lt[Layer::kRecord], "s");
    metric("record.encode_s", probe.record_s - probe.interp_s, "s");
    metric("trace.bytes_per_ref",
           ratio(facts.recorded_bytes, facts.recorded_refs), "B/ref");
    metric("replay.s", replay_s, "s");
    metric("replay.plane_refs", facts.plane_refs, "count");
    metric("replay.mplane_refs_per_s",
           ratio(facts.plane_refs, replay_s) * 1e-6, "Mref/s");
    metric("replay.parallel_gain",
           ratio(probe.replay_serial_s, probe.replay_parallel_s), "x");
    metric("search.s", search_s, "s");
    metric("search.self_s", lt[Layer::kSearch], "s");
    metric("search.replays", counts["search.replays"], "count");
    metric("search.generated", counts["search.generated"], "count");
    metric("search.prune_ratio",
           ratio(counts["search.pruned"], counts["search.generated"]),
           "ratio");
    metric("search.s_per_replay", ratio(search_s, counts["search.replays"]),
           "s");
    metric("search.compile_share",
           ratio(is[Layer::kFront] + is[Layer::kBack], search_s), "ratio");
    metric("search.record_share", ratio(is[Layer::kRecord], search_s),
           "ratio");
    metric("search.replay_share", ratio(is[Layer::kReplay], search_s),
           "ratio");
    metric("repair.iterations", counts["repair.iterations"], "count");
    metric("ksr.s", ksr_s, "s");
    metric("ksr.runs", static_cast<double>(facts.ksr_runs), "count");
    metric("ksr.instructions", counts["ksr.instructions"], "count");
    metric("ksr.minstr_per_s",
           ratio(counts["ksr.instructions"], ksr_s) * 1e-6, "Minstr/s");
    metric("pool.threads", facts.pool_workers, "count");
    metric("pool.busy_frac",
           ratio(facts.pool_busy_s, threads * traced_wall), "ratio");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    metric("obs.overhead", ratio(median(traced_walls), median(walls)) - 1.0,
           "ratio");
    metric("obs.traced_wall_s", traced_wall, "s");
    metric("unaccounted_s", lt[Layer::kUnaccounted], "s");
    metric("fs_misses", static_cast<double>(fs_misses), "count");
    metric("speedup_geomean", speedup_geomean, "x");
  }
  print_object([&](Writer& w) {
    w.key("correct").value(failed == 0);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").begin_object();
    for (const auto& [name, value, unit] : metrics) {
      w.key(name).begin_object();
      w.key("value").value(value);
      w.key("unit").value(unit);
      w.end_object();
    }
    w.end_object();
  });
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::run(fsbench::parse_args(argc, argv));
}
