// The detect -> transform -> verify repair loop, across the suite.
//
// §5 of the paper observes that static profiling mis-weights busy data in
// Maxflow and Raytrace (loops with unknown bounds), so the purely static
// C versions keep residual false sharing.  The repair loop
// (driver/experiment.h) closes that gap with measurement: replay the
// C(static) binary with per-datum attribution, feed the false-sharing
// profile to ProfilePlanner, recompile with the extended plan, and verify
// the misses actually disappeared — iterating to a fixed point.  The
// graph planner goes one level deeper: it collects the word-granularity
// conflict graph and adds intra-datum repairs (barrier striding, hot/cold
// splits, intra-padding) the datum-level profile cannot see.
//
// On top of the loops sits the plan-space search (transform/search.h):
// seeded by the graph loop's converged plan, it explores alternative
// per-datum treatments under a replay budget, scored by real replays
// across the sweep — the S column.  Its per-workload Pareto frontier
// size is reported alongside.
//
// This bench runs both loops plus the search on every workload and
// prints false-sharing misses for N (unoptimized), C(static),
// C(profile), C(graph), S(search) and P (programmer) side by side — at
// the primary repair block size, and in a second table across the whole
// {32, 64, 128, 256} sweep.  It hard-fails unless:
//   * every loop run converges within its iteration budget;
//   * the profile pass strictly reduces false sharing on Maxflow and
//     Raytrace (the two programs the paper singles out) and never
//     increases it anywhere;
//   * the graph planner never exceeds the profile planner's residual
//     false sharing on any workload at any swept size, and strictly
//     beats it on Maxflow and Raytrace at the primary size;
//   * the search never exceeds the graph planner's residual false
//     sharing on any workload at any swept size, and its Pareto
//     frontier is non-empty everywhere.
//
// Extra flags (on top of the shared --threads/--json):
//   --block N   primary coherence-unit size to repair at (default 128)
// The search gets a per-workload budget of 12 candidate replays.
#include <algorithm>

#include "bench_util.h"

using namespace fsopt;
using namespace fsopt::benchx;

namespace {

std::map<i64, u64> fs_sweep(std::string_view source,
                            const workloads::Workload& w, bool optimize,
                            const std::vector<i64>& blocks) {
  Compiled c =
      compile_source(source, options_for(w, w.fig3_procs, optimize, false));
  TraceStudyResult study = run_trace_study(c, blocks);
  std::map<i64, u64> out;
  for (i64 b : blocks) out[b] = study.at(b).false_sharing;
  return out;
}

std::map<i64, u64> fs_of(const std::map<i64, MissStats>& m) {
  std::map<i64, u64> out;
  for (const auto& [b, s] : m) out[b] = s.false_sharing;
  return out;
}

std::map<i64, u64> final_sweep(const RepairResult& rr) {
  return fs_of(rr.iterations.empty() ? rr.baseline_sweep
                                     : rr.iterations.back().sweep);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions bo = parse_bench_args(argc, argv, /*allow_unknown=*/true);
  i64 block = 128;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--block" && i + 1 < argc) {
      block = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--json PATH] [--block N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  std::vector<i64> blocks = {32, 64, 128, 256};
  if (std::find(blocks.begin(), blocks.end(), block) == blocks.end())
    blocks.push_back(block);
  std::sort(blocks.begin(), blocks.end());

  std::printf("=== Repair loop: profile- and graph-guided planning at "
              "block %lld ===\n\n",
              static_cast<long long>(block));

  JsonReport json;
  TextTable tab({"workload", "N", "C(static)", "C(profile)", "C(graph)",
                 "S(search)", "vs static", "iters", "front", "P"});
  TextTable sweep_tab({"workload", "block", "N", "C(static)", "C(profile)",
                       "C(graph)", "S(search)", "P"});
  bool ok = true;
  std::vector<std::string> diffs;
  for (const auto& w : workloads::all()) {
    RepairLoopOptions popt;
    popt.block_size = block;
    popt.sweep_blocks = blocks;
    RepairResult rp = repair_loop(
        w.natural, options_for(w, w.fig3_procs, true, false), popt);

    // The search runs its own graph-planner repair loop as the seed, so
    // one call yields both the C(graph) and the S(search) columns.
    SearchPlanOptions sopt;
    sopt.seed = popt;
    sopt.seed.planner_name = "graph";
    sopt.budget.max_replays = 12;
    SearchPlanResult sp = search_plan(
        w.natural, options_for(w, w.fig3_procs, true, false), sopt);
    const RepairResult& rg = sp.seed;

    u64 fs_static = rp.baseline.false_sharing;
    u64 fs_profile = rp.final_stats().false_sharing;
    u64 fs_graph = rg.final_stats().false_sharing;
    std::map<i64, u64> sw_static = fs_of(rp.baseline_sweep);
    std::map<i64, u64> sw_profile = final_sweep(rp);
    std::map<i64, u64> sw_graph = final_sweep(rg);
    const std::map<i64, u64>& sw_search = sp.final_fs();
    u64 fs_search = sw_search.at(block);

    std::map<i64, u64> sw_unopt;
    std::string n_cell = "-";
    if (w.has_unopt()) {
      sw_unopt = fs_sweep(w.unopt, w, false, blocks);
      n_cell = std::to_string(sw_unopt.at(block));
      json.add(w.name, "fs_unopt", static_cast<double>(sw_unopt.at(block)));
    }
    std::map<i64, u64> sw_prog;
    std::string p_cell = "-";
    if (w.has_prog()) {
      sw_prog = fs_sweep(w.prog, w, false, blocks);
      p_cell = std::to_string(sw_prog.at(block));
      json.add(w.name, "fs_prog", static_cast<double>(sw_prog.at(block)));
    }

    double reduction =
        fs_static == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(fs_search) /
                                 static_cast<double>(fs_static));
    tab.add_row({w.name, n_cell, std::to_string(fs_static),
                 std::to_string(fs_profile), std::to_string(fs_graph),
                 std::to_string(fs_search),
                 fs_search == fs_static ? "-" : "-" + pct(reduction / 100),
                 std::to_string(rg.iterations.size()) +
                     (rg.converged ? "" : "!"),
                 std::to_string(sp.search.frontier.size()), p_cell});
    for (i64 b : blocks) {
      sweep_tab.add_row(
          {w.name, std::to_string(b),
           sw_unopt.count(b) ? std::to_string(sw_unopt.at(b)) : "-",
           std::to_string(sw_static.at(b)), std::to_string(sw_profile.at(b)),
           std::to_string(sw_graph.at(b)), std::to_string(sw_search.at(b)),
           sw_prog.count(b) ? std::to_string(sw_prog.at(b)) : "-"});
      const std::string sb = "_" + std::to_string(b);
      if (sw_unopt.count(b))
        json.add(w.name, "fs_unopt" + sb,
                 static_cast<double>(sw_unopt.at(b)));
      json.add(w.name, "fs_static" + sb,
               static_cast<double>(sw_static.at(b)));
      json.add(w.name, "fs_profile" + sb,
               static_cast<double>(sw_profile.at(b)));
      json.add(w.name, "fs_graph" + sb, static_cast<double>(sw_graph.at(b)));
      json.add(w.name, "fs_search" + sb,
               static_cast<double>(sw_search.at(b)));
      if (sw_prog.count(b))
        json.add(w.name, "fs_prog" + sb, static_cast<double>(sw_prog.at(b)));
    }
    json.add(w.name, "fs_static", static_cast<double>(fs_static));
    json.add(w.name, "fs_profile", static_cast<double>(fs_profile));
    json.add(w.name, "fs_graph", static_cast<double>(fs_graph));
    json.add(w.name, "fs_search", static_cast<double>(fs_search));
    json.add(w.name, "search_frontier",
             static_cast<double>(sp.search.frontier.size()));
    json.add(w.name, "search_replays",
             static_cast<double>(sp.search.replays));
    json.add(w.name, "repair_iterations",
             static_cast<double>(rp.iterations.size()));
    json.add(w.name, "repair_converged", rp.converged ? 1.0 : 0.0);
    json.add(w.name, "graph_iterations",
             static_cast<double>(rg.iterations.size()));
    json.add(w.name, "graph_converged", rg.converged ? 1.0 : 0.0);

    if (!rp.converged || !rg.converged) {
      std::fprintf(stderr,
                   "bench_repair_loop: %s did not reach a fixed point "
                   "within %d iterations (%s planner)\n",
                   w.name.c_str(), popt.max_iterations,
                   rp.converged ? "graph" : "profile");
      ok = false;
    }
    if (fs_profile > fs_static) {
      std::fprintf(stderr,
                   "bench_repair_loop: repair *increased* false sharing on "
                   "%s (%llu -> %llu)\n",
                   w.name.c_str(),
                   static_cast<unsigned long long>(fs_static),
                   static_cast<unsigned long long>(fs_profile));
      ok = false;
    }
    // The graph planner must never do worse than the profile planner —
    // on any workload, at any swept block size.
    for (i64 b : blocks) {
      if (sw_graph.at(b) > sw_profile.at(b)) {
        std::fprintf(
            stderr,
            "bench_repair_loop: graph planner regressed %s at block %lld "
            "(profile %llu, graph %llu)\n",
            w.name.c_str(), static_cast<long long>(b),
            static_cast<unsigned long long>(sw_profile.at(b)),
            static_cast<unsigned long long>(sw_graph.at(b)));
        ok = false;
      }
    }
    // The search is seeded by the graph plan and its winner must weakly
    // dominate the seed — never worse on any workload at any swept size.
    for (i64 b : blocks) {
      if (sw_search.at(b) > sw_graph.at(b)) {
        std::fprintf(
            stderr,
            "bench_repair_loop: search regressed %s at block %lld "
            "(graph %llu, search %llu)\n",
            w.name.c_str(), static_cast<long long>(b),
            static_cast<unsigned long long>(sw_graph.at(b)),
            static_cast<unsigned long long>(sw_search.at(b)));
        ok = false;
      }
    }
    if (sp.search.frontier.empty()) {
      std::fprintf(stderr,
                   "bench_repair_loop: empty Pareto frontier on %s\n",
                   w.name.c_str());
      ok = false;
    }
    // The paper's two residual-false-sharing programs must improve under
    // the profile pass, and the graph pass must strictly beat the profile
    // pass's residual on them — its intra-datum repairs target exactly
    // the barrier/word conflicts that datum-level padding cannot reach.
    if ((w.name == "maxflow" || w.name == "raytrace")) {
      if (!(fs_profile < fs_static)) {
        std::fprintf(stderr,
                     "bench_repair_loop: expected a strict false-sharing "
                     "reduction on %s, got %llu -> %llu\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(fs_static),
                     static_cast<unsigned long long>(fs_profile));
        ok = false;
      }
      if (!(fs_graph < fs_profile)) {
        std::fprintf(stderr,
                     "bench_repair_loop: expected the graph planner to beat "
                     "the profile planner on %s, got profile %llu, graph "
                     "%llu\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(fs_profile),
                     static_cast<unsigned long long>(fs_graph));
        ok = false;
      }
    }
    if (!rg.iterations.empty()) {
      diffs.push_back(
          "--- " + w.name + ": plan additions (static -> graph) ---\n" +
          plan_diff(rg.static_plan, rg.final_plan())
              .render(rg.final_compiled.summary));
    }
  }
  std::printf("--- false-sharing misses at block %lld ---\n%s\n",
              static_cast<long long>(block), tab.render().c_str());
  std::printf("--- false-sharing misses across the block sweep ---\n%s\n",
              sweep_tab.render().c_str());
  for (const std::string& d : diffs) std::printf("%s\n", d.c_str());
  json.write(bo.json_path);
  if (!ok) return 1;
  std::printf("repair-loop checks passed: converged everywhere, graph never "
              "worse than profile at any size, search never worse than "
              "graph at any size, frontier non-empty everywhere, strict "
              "graph improvement on maxflow and raytrace\n");
  return 0;
}
