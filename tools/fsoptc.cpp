// fsoptc — command-line driver for the fsopt restructurer.
//
//   fsoptc FILE.ppl [options]
//   fsoptc --workload NAME [options]
//
//   --nprocs N          number of processes (overrides param NPROCS)
//   --param NAME=VALUE  override any compile-time parameter (repeatable)
//   --block N           coherence-unit size targeted by transforms (128;
//                       1..4096 bytes, the range a plan file may use)
//   --no-optimize       skip the transformations (unoptimized layout)
//   --workload NAME     compile a built-in workload (workloads/) instead
//                       of a file, with its simulation problem sizes and
//                       Figure-3 processor count as defaults
//   --planner NAME      static (default): the §3.3 heuristics;
//                       profile: run the detect->transform->verify repair
//                       loop (trace, attribute false sharing per datum,
//                       extend the plan, re-verify to a fixed point);
//                       graph: the repair loop driven by the word-
//                       granularity conflict graph — collects per-word
//                       (writer, victim) false-sharing edges, partitions
//                       each datum's words by processor affinity, adds
//                       intra-datum decisions (hot/cold split, intra-pad,
//                       barrier padding) and scores candidate plans
//                       across the whole block-size sweep;
//                       search: seed from the graph loop, then search the
//                       plan space directly — every candidate plan is
//                       compiled, traced and replayed across the sweep,
//                       ranked by (false-sharing misses, spatial-locality
//                       loss) with deterministic tie-breaks
//   --search-budget N   max candidate replays for --planner search beyond
//                       the seed (default 24; 0 degrades to the graph
//                       plan)
//   --pareto-out PATH   write the search record as versioned JSON
//                       (search_version 1): best plan overall, best plan
//                       per swept block size, and the Pareto frontier
//                       over the two objective axes with embedded plans;
//                       requires --planner search
//   --conflict-graph-out PATH
//                       write the final compile's word-granularity
//                       conflict graphs (one JSON object per swept block
//                       size) to PATH; requires --planner graph
//   --plan-out PATH     write the final transform plan as JSON
//   --plan-in PATH      inject a transform plan from JSON instead of
//                       planning (also adopts the plan's block size
//                       unless --block is given explicitly)
//   --plan-diff         print the plan diff vs the static §3.3 plan
//   --report            print the sharing classification
//   --transforms        print the transformation decisions
//   --rewrite           print the runnable source-to-source output
//   --run               execute and report reference counts
//   --miss [B,B,...]    trace-driven miss study (default 16,128; each
//                       block size in 1..4096 bytes)
//   --ksr               execution time under the KSR2 model
//   --diagnose[=json]   per-datum diagnosis (analysis/diagnose.h): miss
//                       classes, access-pattern taxonomy label, conflict-
//                       graph weight and a ranked recommendation per
//                       datum; =json emits the machine-readable report
//                       (schema diagnosis_version 1) to stdout
//   --disasm            dump the bytecode
//   --timings[=json]    per-pass compile metrics (pipeline pass times,
//                       allocation traffic, domain counters); =json emits
//                       the machine-readable form
//   --threads N         worker threads for the miss-study replays and the
//                       search's candidate scoring
//                       (default: FSOPT_THREADS env, else all cores)
//   --trace-out PATH    write a Chrome trace of the whole run (passes,
//                       pool jobs, replay planes) to PATH at exit; same
//                       as FSOPT_TRACE=PATH in the environment
//   --trace-summary     print the runtime-trace aggregation (per-category
//                       time, pool utilization, slowest pass) to stderr
//                       at exit
//   --metrics-out PATH  write a metrics snapshot (obs/metrics.h) to PATH
//                       at exit — Prometheus text exposition, or JSON when
//                       PATH ends in .json; same as FSOPT_METRICS=PATH
//
// With no action flags, behaves like `--transforms --miss --ksr`.
//
// Compile errors are reported one diagnostic per line to stderr as
//   FILE:LINE:COL: error: MESSAGE
// and exit with status 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnose.h"
#include "driver/experiment.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "transform/plan_ir.h"
#include "transform/source_rewrite.h"
#include "workloads/workloads.h"

using namespace fsopt;

namespace {

struct Cli {
  std::string file;
  std::string workload;
  CompileOptions options;
  bool optimize = true;
  bool block_given = false;
  std::string planner = "static";
  std::string plan_out;
  std::string plan_in;
  std::string conflict_graph_out;
  std::string pareto_out;
  int search_budget = -1;  // -1: SearchBudget's default
  bool plan_diff = false;
  bool report = false;
  bool transforms = false;
  bool rewrite = false;
  bool run = false;
  bool miss = false;
  bool ksr = false;
  bool disasm = false;
  bool diagnose = false;
  bool diagnose_json = false;
  bool timings = false;
  bool timings_json = false;
  std::vector<i64> blocks = {16, 128};
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "fsoptc: %s\n", msg);
  std::fprintf(stderr,
               "usage: fsoptc FILE.ppl [--nprocs N] [--param K=V] "
               "[--block N]\n"
               "              [--no-optimize] [--workload NAME]\n"
               "              [--planner static|profile|graph|search]\n"
               "              [--search-budget N] [--pareto-out PATH]\n"
               "              [--plan-out PATH] [--plan-in PATH]\n"
               "              [--plan-diff] [--conflict-graph-out PATH]\n"
               "              [--report] [--transforms]\n"
               "              [--rewrite] [--run] [--miss [B,...]] [--ksr]\n"
               "              [--disasm] [--diagnose[=json]]\n"
               "              [--timings[=json]] [--threads N]\n"
               "              [--trace-out PATH] [--trace-summary]\n"
               "              [--metrics-out PATH]\n");
  std::exit(2);
}

/// A block size from the command line: a whole number of bytes in
/// 1..kMaxPlanBlockBytes, the range plan_parameter_errors applies to a
/// plan file's block_size.  Anything else is a usage error.
i64 parse_block_bytes(const std::string& tok, const std::string& flag) {
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (tok.empty() || *end != '\0' || v < 1 || v > kMaxPlanBlockBytes)
    usage((flag + " expects block sizes in 1.." +
           std::to_string(kMaxPlanBlockBytes) + " bytes, got '" + tok + "'")
              .c_str());
  return v;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + a).c_str());
      return argv[++i];
    };
    if (a == "--nprocs") {
      cli.options.overrides["NPROCS"] = std::atoll(next().c_str());
    } else if (a == "--param") {
      std::string kv = next();
      size_t eq = kv.find('=');
      if (eq == std::string::npos) usage("--param expects NAME=VALUE");
      cli.options.overrides[kv.substr(0, eq)] =
          std::atoll(kv.c_str() + eq + 1);
    } else if (a == "--block") {
      cli.options.block_size = parse_block_bytes(next(), a);
      cli.block_given = true;
    } else if (a == "--no-optimize") {
      cli.optimize = false;
    } else if (a == "--workload") {
      cli.workload = next();
    } else if (a == "--planner") {
      cli.planner = next();
      if (cli.planner != "static" && cli.planner != "profile" &&
          cli.planner != "graph" && cli.planner != "search")
        usage("--planner expects static, profile, graph or search");
    } else if (a == "--search-budget") {
      cli.search_budget = std::atoi(next().c_str());
      if (cli.search_budget < 0)
        usage("--search-budget expects a non-negative integer");
    } else if (a == "--pareto-out") {
      cli.pareto_out = next();
    } else if (a == "--plan-out") {
      cli.plan_out = next();
    } else if (a == "--plan-in") {
      cli.plan_in = next();
    } else if (a == "--conflict-graph-out") {
      cli.conflict_graph_out = next();
    } else if (a == "--plan-diff") {
      cli.plan_diff = true;
    } else if (a == "--report") {
      cli.report = true;
    } else if (a == "--transforms") {
      cli.transforms = true;
    } else if (a == "--rewrite") {
      cli.rewrite = true;
    } else if (a == "--run") {
      cli.run = true;
    } else if (a == "--miss") {
      cli.miss = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        cli.blocks.clear();
        std::stringstream ss(next());
        std::string tok;
        while (std::getline(ss, tok, ','))
          cli.blocks.push_back(parse_block_bytes(tok, a));
      }
    } else if (a == "--ksr") {
      cli.ksr = true;
    } else if (a == "--disasm") {
      cli.disasm = true;
    } else if (a == "--diagnose") {
      cli.diagnose = true;
    } else if (a == "--diagnose=json") {
      cli.diagnose = cli.diagnose_json = true;
    } else if (a == "--timings") {
      cli.timings = true;
    } else if (a == "--timings=json") {
      cli.timings = cli.timings_json = true;
    } else if (a == "--threads") {
      set_experiment_threads(std::atoi(next().c_str()));
    } else if (a == "--trace-out") {
      obs::set_trace_path(next());
    } else if (a == "--trace-summary") {
      obs::set_summary(true);
    } else if (a == "--metrics-out") {
      obs::set_metrics_path(next());
    } else if (a.rfind("--", 0) == 0) {
      usage(("unknown option " + a).c_str());
    } else if (cli.file.empty()) {
      cli.file = a;
    } else {
      usage("multiple input files");
    }
  }
  if (cli.file.empty() == cli.workload.empty())
    usage(cli.file.empty() ? nullptr
                           : "give either FILE.ppl or --workload, not both");
  if (!cli.plan_in.empty() && cli.planner != "static")
    usage("--plan-in and --planner are mutually exclusive");
  if (!cli.conflict_graph_out.empty() && cli.planner != "graph")
    usage("--conflict-graph-out requires --planner graph");
  if (!cli.pareto_out.empty() && cli.planner != "search")
    usage("--pareto-out requires --planner search");
  if (cli.search_budget >= 0 && cli.planner != "search")
    usage("--search-budget requires --planner search");
  if (!cli.report && !cli.transforms && !cli.rewrite && !cli.run &&
      !cli.miss && !cli.ksr && !cli.disasm && !cli.diagnose &&
      !cli.timings && cli.plan_out.empty() && !cli.plan_diff &&
      cli.conflict_graph_out.empty() && cli.pareto_out.empty()) {
    cli.transforms = cli.miss = cli.ksr = true;
  }
  return cli;
}

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fsoptc: cannot open %s %s\n", what, path.c_str());
    std::exit(1);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fsoptc: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli = parse_cli(argc, argv);
  if (obs::enabled()) obs::set_thread_name("main");

  std::string source;
  std::string display_name = cli.file;
  if (!cli.workload.empty()) {
    try {
      const workloads::Workload& w = workloads::get(cli.workload);
      source = w.natural;
      display_name = "<workload:" + w.name + ">";
      // Workload defaults; explicit --nprocs / --param win.
      ParamOverrides defaults = w.sim_overrides;
      defaults["NPROCS"] = w.fig3_procs;
      for (const auto& [k, v] : defaults)
        cli.options.overrides.emplace(k, v);
    } catch (const InternalError& e) {
      std::fprintf(stderr, "fsoptc: %s\n", e.what());
      return 1;
    }
  } else {
    source = read_file(cli.file, "input");
  }

  try {
    cli.options.optimize = cli.optimize;

    PipelineMetrics metrics;
    Compiled c;
    if (cli.planner == "profile" || cli.planner == "graph") {
      // The detect -> transform -> verify loop (driver/experiment.h).
      RepairLoopOptions rl;
      rl.block_size = cli.options.block_size;
      rl.planner_name = cli.planner;
      RepairResult rr = repair_loop(source, cli.options, rl);
      c = std::move(rr.final_compiled);
      // --diagnose=json owns stdout; narrate the loop on stderr there.
      FILE* narrate = cli.diagnose_json ? stderr : stdout;
      std::fprintf(
          narrate,
          "repair loop (%s): %zu iteration(s)%s, false-sharing misses "
          "%llu -> %llu at block %lld\n",
          cli.planner.c_str(), rr.iterations.size(),
          rr.converged ? " (converged)" : "",
          static_cast<unsigned long long>(rr.baseline.false_sharing),
          static_cast<unsigned long long>(rr.final_stats().false_sharing),
          static_cast<long long>(rl.block_size));
      if (cli.planner == "graph") {
        const std::map<i64, MissStats>& final_sweep =
            rr.iterations.empty() ? rr.baseline_sweep
                                  : rr.iterations.back().sweep;
        for (const auto& [b, s] : final_sweep)
          std::fprintf(narrate,
                       "  sweep block %4lld: false-sharing %llu -> %llu\n",
                       static_cast<long long>(b),
                       static_cast<unsigned long long>(
                           rr.baseline_sweep.at(b).false_sharing),
                       static_cast<unsigned long long>(s.false_sharing));
      }
      if (!cli.conflict_graph_out.empty()) {
        AddressMap am = build_address_map(c);
        std::string doc = "[\n";
        bool first = true;
        for (const auto& [b, g] : rr.conflicts) {
          if (!first) doc += ",\n";
          first = false;
          doc += conflict_graph_to_json(g, &am);
        }
        doc += "\n]\n";
        write_file(cli.conflict_graph_out, doc);
      }
      if (cli.plan_diff)
        std::printf("--- plan diff (static -> %s) ---\n%s",
                    cli.planner.c_str(),
                    plan_diff(rr.static_plan, rr.final_plan())
                        .render(c.summary)
                        .c_str());
    } else if (cli.planner == "search") {
      SearchPlanOptions so;
      so.seed.block_size = cli.options.block_size;
      if (cli.search_budget >= 0) so.budget.max_replays = cli.search_budget;
      SearchPlanResult sr = search_plan(source, cli.options, so);
      c = std::move(sr.final_compiled);
      FILE* narrate = cli.diagnose_json ? stderr : stdout;
      std::fprintf(
          narrate,
          "plan search: %llu candidate replay(s) (%llu generated, %llu "
          "pruned%s), frontier size %zu\n",
          static_cast<unsigned long long>(sr.search.replays),
          static_cast<unsigned long long>(sr.search.generated),
          static_cast<unsigned long long>(sr.search.pruned),
          sr.search.exhaustive ? ", exhaustive" : "",
          sr.search.frontier.size());
      for (const auto& [b, fs] : sr.search.best().score.fs)
        std::fprintf(narrate,
                     "  sweep block %4lld: false-sharing %llu -> %llu\n",
                     static_cast<long long>(b),
                     static_cast<unsigned long long>(
                         sr.seed.baseline_sweep.at(b).false_sharing),
                     static_cast<unsigned long long>(fs));
      if (!cli.pareto_out.empty())
        write_file(cli.pareto_out,
                   search_result_to_json(sr.search, *c.prog));
      if (cli.plan_diff)
        std::printf("--- plan diff (static -> search) ---\n%s",
                    plan_diff(sr.seed.static_plan, sr.final_plan())
                        .render(c.summary)
                        .c_str());
    } else {
      // Front first so an injected plan can be resolved against the
      // program's symbols before the back half runs.
      FrontHalf front = run_front(source, cli.options.overrides);
      if (!cli.plan_in.empty()) {
        TransformPlan plan =
            plan_from_json(read_file(cli.plan_in, "plan"), *front.prog);
        if (!cli.block_given) cli.options.block_size = plan.block_size;
        cli.options.plan =
            std::make_shared<const TransformPlan>(std::move(plan));
      }
      c = run_back(front, cli.options, &metrics);
      if (cli.plan_diff) {
        TransformSet staticplan = decide_transforms(
            c.report, c.summary, cli.options.block_size, cli.options.decision);
        std::printf("--- plan diff (static -> active) ---\n%s",
                    plan_diff(staticplan, c.transforms)
                        .render(c.summary)
                        .c_str());
      }
    }
    if (!cli.plan_out.empty())
      write_file(cli.plan_out, plan_to_json(c.transforms, *c.prog));

    if (cli.timings) {
      if (cli.timings_json)
        std::printf("%s", metrics.to_json().c_str());
      else
        std::printf("--- pass timings ---\n%s\n", metrics.render().c_str());
    }
    if (cli.report)
      std::printf("--- sharing classification ---\n%s\n",
                  c.report.render().c_str());
    if (cli.transforms)
      std::printf("--- transformations ---\n%s\n",
                  c.transforms.render(c.summary).c_str());
    if (cli.rewrite) {
      SourceRewriteResult rw =
          rewrite_to_source(*c.prog, c.transforms, cli.options.block_size);
      std::printf("%s", rw.source.c_str());
      for (const auto& sk : rw.skipped)
        std::fprintf(stderr, "fsoptc: not expressible in source: %s\n",
                     sk.c_str());
    }
    if (cli.disasm) std::printf("%s", c.code.disassemble().c_str());
    if (cli.diagnose) {
      DiagnoseOptions dopt;
      dopt.block_size = cli.options.block_size;
      std::string name =
          !cli.workload.empty() ? cli.workload : display_name;
      DiagnosisReport diag = diagnose(c, name, dopt);
      if (cli.diagnose_json)
        std::printf("%s", diagnosis_to_json(diag).c_str());
      else
        std::printf("%s", render_diagnosis(diag).c_str());
    }
    if (cli.run) {
      auto m = run_program(c);
      std::printf("ran %lld processes: %llu instructions, %llu shared "
                  "references\n",
                  static_cast<long long>(c.nprocs()),
                  static_cast<unsigned long long>(m->instructions()),
                  static_cast<unsigned long long>(m->refs()));
    }
    if (cli.miss) {
      auto st = run_trace_study(c, cli.blocks);
      std::printf("block   miss-rate   false-sharing   (cold/repl/true/false)\n");
      for (i64 b : cli.blocks) {
        const MissStats& s = st.at(b);
        std::printf("%5lld   %6.2f%%      %6.2f%%       (%llu/%llu/%llu/%llu)\n",
                    static_cast<long long>(b), 100 * s.miss_rate(),
                    100 * s.false_sharing_rate(),
                    static_cast<unsigned long long>(s.cold),
                    static_cast<unsigned long long>(s.replacement),
                    static_cast<unsigned long long>(s.true_sharing),
                    static_cast<unsigned long long>(s.false_sharing));
      }
    }
    if (cli.ksr) {
      TimingResult t = run_ksr(c);
      std::printf("KSR2 model: %lld cycles (%llu refs, %llu misses, "
                  "%lld queue cycles)\n",
                  static_cast<long long>(t.cycles),
                  static_cast<unsigned long long>(t.refs),
                  static_cast<unsigned long long>(t.ksr.misses),
                  static_cast<long long>(t.ksr.queue_cycles));
    }
  } catch (const CompileError& e) {
    // The atexit reporters (--trace-summary, --metrics-out) still run on
    // this path; the marker makes them say their data covers a run that
    // exited early instead of a completed one.
    obs::mark_partial("compile error");
    // One line per diagnostic, compiler-style, with the source location.
    if (e.diagnostics.empty()) {
      std::fprintf(stderr, "%s: error: %s\n", display_name.c_str(),
                   e.what());
    } else {
      for (const Diagnostic& d : e.diagnostics) {
        const char* sev = d.severity == DiagSeverity::kError     ? "error"
                          : d.severity == DiagSeverity::kWarning ? "warning"
                                                                 : "note";
        if (d.loc.valid())
          std::fprintf(stderr, "%s:%d:%d: %s: %s\n", display_name.c_str(),
                       d.loc.line, d.loc.col, sev, d.message.c_str());
        else
          std::fprintf(stderr, "%s: %s: %s\n", display_name.c_str(), sev,
                       d.message.c_str());
      }
    }
    return 1;
  } catch (const InternalError& e) {
    obs::mark_partial("internal error");
    std::fprintf(stderr, "fsoptc: %s\n", e.what());
    return 1;
  }
  return 0;
}
