// Tests for the experiment harness: the streamed study against recorded
// replay, trace reuse, result merging, and the at() diagnostics.
#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

const char* kProgram =
    "param NPROCS = 4; param N = 48;\n"
    "real a[N]; int counters[NPROCS]; lock_t l; int done;\n"
    "void main(int pid) { int i; int r;\n"
    "  for (r = 0; r < 4; r = r + 1) {\n"
    "    for (i = pid; i < N; i = i + nprocs) { a[i] = a[i] + 1.0; }\n"
    "    counters[pid] = counters[pid] + 1;\n"
    "    barrier();\n"
    "  }\n"
    "  lock(l); done = done + 1; unlock(l);\n"
    "}\n";

Compiled compile_opt() {
  CompileOptions opt;
  opt.optimize = true;
  return compile_source(kProgram, opt);
}

// run_trace_study streams the interpreter's references straight into the
// simulator on the calling thread; it must equal recording the encoded
// trace and replaying it at any thread count: aggregate stats, per-datum
// attribution and the word-granularity conflict graphs alike.  Runs on
// each program's C(static) compile, the one the repair loop collects on.
TEST(Experiment, StreamedStudyMatchesRecordedReplay) {
  const std::vector<i64> blocks = {32, 64, 128, 256};
  for (const workloads::Workload& w : workloads::all()) {
    CompileOptions opt;
    opt.overrides = w.sim_overrides;
    opt.overrides["NPROCS"] = w.fig3_procs;
    opt.optimize = true;
    Compiled c = compile_source(w.natural, opt);
    AddressMap am = build_address_map(c);
    TraceStudyResult streamed =
        run_trace_study(c, blocks, 32 * 1024, &am, 0, true);
    ASSERT_EQ(streamed.conflicts.size(), blocks.size()) << w.name;
    EncodedTrace trace = record_encoded_trace(c);
    for (int threads : {1, 2, 4}) {
      TraceStudyResult recorded =
          replay_trace_study(trace, c, blocks, 32 * 1024, &am, threads, true);
      EXPECT_EQ(streamed.refs, recorded.refs) << w.name << " " << threads;
      EXPECT_EQ(streamed.by_block, recorded.by_block)
          << w.name << " " << threads;
      EXPECT_EQ(streamed.by_datum, recorded.by_datum)
          << w.name << " " << threads;
      EXPECT_EQ(streamed.conflicts, recorded.conflicts)
          << w.name << " " << threads;
      if (threads != 1) continue;
      // The exported form too (a structural match implies it; this pins
      // the serialization the planners' tooling reads).
      for (i64 b : blocks)
        EXPECT_EQ(conflict_graph_to_json(streamed.conflicts.at(b), nullptr),
                  conflict_graph_to_json(recorded.conflicts.at(b), nullptr))
            << w.name << " block " << b;
    }
  }
}

TEST(Experiment, RecordedTraceReplaysLikeTheOneShotStudy) {
  Compiled c = compile_opt();
  TraceStudyResult oneshot = run_trace_study(c, {16, 128});
  TraceBuffer trace = record_trace(c);
  EXPECT_EQ(trace.size(), oneshot.refs);
  TraceStudyResult replayed = replay_trace_study(trace, c, {16, 128});
  EXPECT_EQ(replayed.by_block, oneshot.by_block);
  // A second replay of the same buffer gives the same answer again.
  TraceStudyResult again = replay_trace_study(trace, c, {16, 128});
  EXPECT_EQ(again.by_block, oneshot.by_block);
}

TEST(Experiment, AtDiagnosesUnsimulatedBlockSize) {
  Compiled c = compile_source(kProgram, {});
  TraceStudyResult st = run_trace_study(c, {16, 128});
  EXPECT_NO_THROW(st.at(16));
  try {
    st.at(64);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("64"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16, 128"), std::string::npos) << msg;
  }
}

TEST(Experiment, AtOnEmptyStudyNamesNoSizes) {
  TraceStudyResult st;
  try {
    st.at(32);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("none"), std::string::npos);
  }
}

TEST(Experiment, MergeCombinesDisjointBlockStudies) {
  Compiled c = compile_opt();
  TraceBuffer trace = record_trace(c);
  TraceStudyResult all = replay_trace_study(trace, c, {16, 64, 128});
  TraceStudyResult lo = replay_trace_study(trace, c, {16});
  TraceStudyResult hi = replay_trace_study(trace, c, {64, 128});
  lo.merge(hi);
  EXPECT_EQ(lo.by_block, all.by_block);
  EXPECT_EQ(lo.refs, all.refs);
  // Overlapping block sizes are rejected.
  TraceStudyResult dup = replay_trace_study(trace, c, {64});
  EXPECT_THROW(lo.merge(dup), InternalError);
}

TEST(Experiment, MissStatsMergeAddsEveryField) {
  MissStats a;
  a.refs = 10; a.hits = 5; a.cold = 1; a.replacement = 1;
  a.true_sharing = 1; a.false_sharing = 2; a.upgrades = 3;
  a.invalidations = 4;
  MissStats b = a;
  b.merge(a);
  EXPECT_EQ(b.refs, 20u);
  EXPECT_EQ(b.hits, 10u);
  EXPECT_EQ(b.cold, 2u);
  EXPECT_EQ(b.replacement, 2u);
  EXPECT_EQ(b.true_sharing, 2u);
  EXPECT_EQ(b.false_sharing, 4u);
  EXPECT_EQ(b.upgrades, 6u);
  EXPECT_EQ(b.invalidations, 8u);
}

TEST(Experiment, SpeedupSweepDeterministicAcrossThreadCounts) {
  CompileOptions base;
  i64 bl = baseline_cycles(kProgram, base);
  SpeedupCurve serial =
      speedup_sweep(kProgram, {1, 2, 4}, base, bl, /*threads=*/1);
  SpeedupCurve parallel =
      speedup_sweep(kProgram, {1, 2, 4}, base, bl, /*threads=*/4);
  EXPECT_EQ(serial.procs, parallel.procs);
  ASSERT_EQ(serial.speedup.size(), parallel.speedup.size());
  for (size_t i = 0; i < serial.speedup.size(); ++i)
    EXPECT_EQ(serial.speedup[i], parallel.speedup[i]) << i;
}

TEST(Experiment, ThreadsKnobRoundTrips) {
  set_experiment_threads(3);
  EXPECT_EQ(experiment_threads(), 3);
  set_experiment_threads(0);
  EXPECT_GE(experiment_threads(), 1);  // auto
}

}  // namespace
}  // namespace fsopt
