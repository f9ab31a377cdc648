#include "interp/machine.h"

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "driver/experiment.h"

namespace fsopt {
namespace {

Compiled build(std::string_view src, i64 nprocs = 1, bool optimize = false) {
  CompileOptions opt;
  opt.overrides["NPROCS"] = nprocs;
  opt.optimize = optimize;
  return compile_source(src, opt);
}

i64 run_int(const Compiled& c, const std::string& global,
            std::vector<i64> idx = {}) {
  auto m = run_program(c);
  return m->load_int(c.address_of(global, "", idx));
}

double run_real(const Compiled& c, const std::string& global,
                std::vector<i64> idx = {}) {
  auto m = run_program(c);
  return m->load_real(c.address_of(global, "", idx));
}

TEST(Machine, IntegerArithmetic) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { x = (7 + 3) * 2 - 15 / 2 - 9 % 4; }");
  EXPECT_EQ(run_int(c, "x"), 20 - 7 - 1);
}

TEST(Machine, RealArithmetic) {
  Compiled c = build(
      "param NPROCS = 1; real r;"
      "void main(int pid) { r = (1.5 + 2.5) * 0.25 - 1.0 / 8.0; }");
  EXPECT_DOUBLE_EQ(run_real(c, "r"), 0.875);
}

TEST(Machine, NegativeNumbersAndComparisons) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) {"
      "  if (-3 < -2 && 2 >= 2 && 1 != 2 && !(4 <= 3)) { x = 1; } }");
  EXPECT_EQ(run_int(c, "x"), 1);
}

TEST(Machine, ShortCircuitEvaluation) {
  // `i != 0 && 10 / i > 1` must not divide by zero when i == 0.
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { int i; i = 0;"
      "  if (i != 0 && 10 / i > 1) { x = 1; } else { x = 2; } }");
  EXPECT_EQ(run_int(c, "x"), 2);
}

TEST(Machine, ForLoopAccumulation) {
  Compiled c = build(
      "param NPROCS = 1; int s;"
      "void main(int pid) { int i; s = 0;"
      "  for (i = 1; i <= 10; i = i + 1) { s = s + i; } }");
  EXPECT_EQ(run_int(c, "s"), 55);
}

TEST(Machine, WhileLoop) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { int i; i = 1; x = 0;"
      "  while (i < 100) { i = i * 2; x = x + 1; } }");
  EXPECT_EQ(run_int(c, "x"), 7);
}

TEST(Machine, FunctionCallsAndRecursionFreeComposition) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "int sq(int v) { return v * v; }"
      "int poly(int v) { return sq(v) + 2 * v + 1; }"
      "void main(int pid) { x = poly(5); }");
  EXPECT_EQ(run_int(c, "x"), 36);
}

TEST(Machine, Intrinsics) {
  Compiled c = build(
      "param NPROCS = 1; int a; int b; real r;"
      "void main(int pid) {"
      "  a = min(3, max(1, 2)) + abs(0 - 9);"
      "  r = sqrt(2.25) + abs(0.0 - 0.5);"
      "  b = rtoi(r * 2.0); }");
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("a", "", {})), 11);
  EXPECT_DOUBLE_EQ(m->load_real(c.address_of("r", "", {})), 2.0);
  EXPECT_EQ(m->load_int(c.address_of("b", "", {})), 4);
}

TEST(Machine, LcgIsDeterministic) {
  Compiled c = build(
      "param NPROCS = 1; int a; int b;"
      "void main(int pid) { a = lcg(7); b = lcg(7); }");
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("a", "", {})),
            m->load_int(c.address_of("b", "", {})));
}

TEST(Machine, ArraysAndStructFields) {
  Compiled c = build(
      "param NPROCS = 1; struct S { int a; real b[2]; };"
      "struct S g[3]; int x;"
      "void main(int pid) {"
      "  g[1].a = 42; g[1].b[0] = 1.5; g[1].b[1] = g[1].b[0] * 2.0;"
      "  x = g[1].a; }");
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("x", "", {})), 42);
  EXPECT_DOUBLE_EQ(m->load_real(c.address_of("g", "b", {1, 1})), 3.0);
}

TEST(Machine, EachProcessSeesItsPid) {
  Compiled c = build(
      "param NPROCS = 8; int who[8];"
      "void main(int pid) { who[pid] = pid * 10; }",
      8);
  auto m = run_program(c);
  for (i64 p = 0; p < 8; ++p)
    EXPECT_EQ(m->load_int(c.address_of("who", "", {p})), p * 10);
}

TEST(Machine, BarrierOrdersPhases) {
  // All processes write their slot, then process 0 sums after a barrier:
  // the sum must see every slot.
  Compiled c = build(
      "param NPROCS = 8; int slot[8]; int sum;"
      "void main(int pid) { int i;"
      "  slot[pid] = pid + 1;"
      "  barrier();"
      "  if (pid == 0) { sum = 0;"
      "    for (i = 0; i < 8; i = i + 1) { sum = sum + slot[i]; } } }",
      8);
  EXPECT_EQ(run_int(c, "sum"), 36);
}

TEST(Machine, RepeatedBarriers) {
  Compiled c = build(
      "param NPROCS = 4; int turn[12];"
      "void main(int pid) { int r;"
      "  for (r = 0; r < 3; r = r + 1) {"
      "    if (pid == r % 4) { turn[r * 4 + pid] = r + 1; }"
      "    barrier();"
      "  } }",
      4);
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("turn", "", {0})), 1);
  EXPECT_EQ(m->load_int(c.address_of("turn", "", {5})), 2);
  EXPECT_EQ(m->load_int(c.address_of("turn", "", {10})), 3);
}

TEST(Machine, LocksProvideMutualExclusion) {
  // Without the lock this increment would lose updates under the
  // interleaved scheduler; with it the count must be exact.
  Compiled c = build(
      "param NPROCS = 8; lock_t l; int count;"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 25; i = i + 1) {"
      "    lock(l); count = count + 1; unlock(l); } }",
      8);
  EXPECT_EQ(run_int(c, "count"), 200);
}

TEST(Machine, LockArrayElementsAreIndependent) {
  Compiled c = build(
      "param NPROCS = 4; lock_t ls[4]; int n[4];"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 10; i = i + 1) {"
      "    lock(ls[pid]); n[pid] = n[pid] + 1; unlock(ls[pid]); } }",
      4);
  auto m = run_program(c);
  for (i64 p = 0; p < 4; ++p)
    EXPECT_EQ(m->load_int(c.address_of("n", "", {p})), 10);
}

TEST(Machine, DeterministicAcrossRuns) {
  const char* src =
      "param NPROCS = 6; lock_t l; int order[64]; int next;"
      "void main(int pid) { int i; int t;"
      "  for (i = 0; i < 8; i = i + 1) {"
      "    lock(l); t = next; next = t + 1; unlock(l);"
      "    order[t % 64] = pid; } }";
  Compiled c = build(src, 6);
  auto m1 = run_program(c);
  auto m2 = run_program(c);
  for (i64 i = 0; i < 48; ++i)
    EXPECT_EQ(m1->load_int(c.address_of("order", "", {i})),
              m2->load_int(c.address_of("order", "", {i})));
  EXPECT_EQ(m1->finish_cycles(), m2->finish_cycles());
}

TEST(Machine, TraceSinkSeesEveryReference) {
  Compiled c = build(
      "param NPROCS = 2; int a[4];"
      "void main(int pid) { a[pid] = a[pid] + 1; }",
      2);
  VectorSink sink;
  MachineOptions mo;
  mo.sink = &sink;
  Machine m(c.code, mo);
  m.run();
  // Per process: read + write = 2 refs; 2 processes.
  EXPECT_EQ(sink.refs().size(), 4u);
  EXPECT_EQ(m.refs(), 4u);
}

TEST(Machine, OutOfBoundsIndexThrows) {
  Compiled c = build(
      "param NPROCS = 1; int a[4]; int q;"
      "void main(int pid) { a[q + 7] = 1; }");
  MachineOptions mo;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

TEST(Machine, DivisionByZeroThrows) {
  Compiled c = build(
      "param NPROCS = 1; int x; int q;"
      "void main(int pid) { x = 5 / q; }");
  MachineOptions mo;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

TEST(Machine, ModuloByZeroThrows) {
  Compiled c = build(
      "param NPROCS = 1; int x; int q;"
      "void main(int pid) { x = 5 % q; }");
  MachineOptions mo;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

// A one-processor image running `body` then kHalt, with one plan: a 4x4
// int array at address 0 (row stride 16 bytes).
CodeImage hand_built(std::vector<Instr> body) {
  CodeImage img;
  img.code = std::move(body);
  img.code.push_back({Op::kHalt});
  AccessPlan a;
  a.dims = {{1, 0, 16}, {1, 0, 4}};
  a.extents = {4, 4};
  a.size = 4;
  a.name = "a";
  img.plans.push_back(a);
  FuncInfo main_fn;
  main_fn.name = "main";
  main_fn.nlocals = 1;
  main_fn.nparams = 1;
  img.funcs.push_back(main_fn);
  img.main_func = 0;
  img.nprocs = 1;
  img.globals_bytes = 64;
  img.barrier_base = 64;
  img.total_bytes = 64 + 3 * 4;
  return img;
}

// Runs `img` and returns the InternalError message ("" if none).
std::string run_error(const CodeImage& img) {
  MachineOptions mo;
  Machine m(img, mo);
  try {
    m.run();
  } catch (const InternalError& e) {
    return e.what();
  }
  return "";
}

TEST(Machine, HandBuiltImageRuns) {
  // a[1][2] = 7, then a[1][2] is read back onto the stack and popped.
  CodeImage img = hand_built({{Op::kPushI, 1}, {Op::kPushI, 2},
                              {Op::kPushI, 7}, {Op::kStoreG, 0},
                              {Op::kPushI, 1}, {Op::kPushI, 2},
                              {Op::kLoadG, 0}, {Op::kPop, 0}});
  MachineOptions mo;
  Machine m(img, mo);
  m.run();
  EXPECT_EQ(m.load_int(1 * 16 + 2 * 4), 7);
  EXPECT_EQ(m.refs(), 2u);
  EXPECT_EQ(m.instructions(), 9u);
}

TEST(Machine, PopOnEmptyStackThrows) {
  EXPECT_EQ(run_error(hand_built({{Op::kPop, 0}})),
            "operand stack underflow");
}

TEST(Machine, BinaryOpWithOneOperandThrows) {
  EXPECT_EQ(run_error(hand_built({{Op::kPushI, 3}, {Op::kAddI, 0}})),
            "operand stack underflow");
}

TEST(Machine, StoreWithTooFewIndicesThrows) {
  // The value pops fine; only one of the two indices is there.
  EXPECT_EQ(run_error(hand_built(
                {{Op::kPushI, 1}, {Op::kPushI, 7}, {Op::kStoreG, 0}})),
            "operand stack underflow at access");
  // No value at all.
  EXPECT_EQ(run_error(hand_built({{Op::kStoreG, 0}})),
            "operand stack underflow");
}

TEST(Machine, LockWithTooFewIndicesThrows) {
  EXPECT_EQ(run_error(hand_built({{Op::kPushI, 0}, {Op::kLock, 0}})),
            "stack underflow at lock");
}

TEST(Machine, UnlockWithTooFewIndicesThrows) {
  EXPECT_EQ(run_error(hand_built({{Op::kUnlock, 0}})),
            "stack underflow at unlock");
}

TEST(Machine, MalformedImageIsRejected) {
  MachineOptions mo;
  CodeImage bad_op = hand_built({{static_cast<Op>(200), 0}});
  EXPECT_THROW(Machine(bad_op, mo), InternalError);
  CodeImage bad_frame = hand_built({});
  bad_frame.funcs[0].nlocals = 0;  // the pid parameter has no slot
  EXPECT_THROW(Machine(bad_frame, mo), InternalError);
}

TEST(Machine, OperandStackGrowsPastItsInitialSize) {
  // a[0][0] = 1 + 2 + ... + 300, with all 300 terms pushed before the
  // first add, so the stack holds 302 values at its deepest.
  std::vector<Instr> body = {{Op::kPushI, 0}, {Op::kPushI, 0}};
  for (i64 v = 1; v <= 300; ++v) body.push_back({Op::kPushI, v});
  for (int i = 1; i < 300; ++i) body.push_back({Op::kAddI, 0});
  body.push_back({Op::kStoreG, 0});
  CodeImage img = hand_built(body);
  MachineOptions mo;
  Machine m(img, mo);
  m.run();
  EXPECT_EQ(m.load_int(0), 300 * 301 / 2);
}

TEST(Machine, InstructionBudgetGuards) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { while (1) { x = x + 1; } }");
  MachineOptions mo;
  mo.max_instructions = 10000;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

TEST(Machine, InstructionBudgetThrowsWhenTheCountReachesTheLimit) {
  // Budgets below, at and above the 256-instruction yield, on one and on
  // several processors: the throw comes when instructions() reaches
  // max_instructions, never earlier or later.
  for (i64 nprocs : {1, 3}) {
    Compiled c = build(
        "param NPROCS = 3; int x[3];"
        "void main(int pid) { while (1) { x[pid] = x[pid] + 1; } }",
        nprocs);
    for (u64 limit : {1u, 255u, 256u, 257u, 513u, 10000u}) {
      SCOPED_TRACE("nprocs " + std::to_string(nprocs) + " limit " +
                   std::to_string(limit));
      MachineOptions mo;
      mo.max_instructions = limit;
      Machine m(c.code, mo);
      EXPECT_THROW(m.run(), InternalError);
      EXPECT_EQ(m.instructions(), limit);
    }
  }
}

TEST(Machine, RunAfterCompletionChangesNothing) {
  Compiled c = build(
      "param NPROCS = 3; int a[3];"
      "void main(int pid) { a[pid] = a[pid] + pid + 1; }",
      3);
  VectorSink sink;
  MachineOptions mo;
  mo.sink = &sink;
  Machine m(c.code, mo);
  m.run();
  std::vector<u8> image = m.memory();
  u64 instructions = m.instructions();
  m.run();
  EXPECT_EQ(m.memory(), image);
  EXPECT_EQ(m.instructions(), instructions);
  EXPECT_EQ(sink.refs().size(), m.refs());
}

TEST(Machine, FinishCyclesIsMaxOverProcs) {
  Compiled c = build(
      "param NPROCS = 4; int a[4];"
      "void main(int pid) { int i;"
      "  for (i = 0; i < pid * 10; i = i + 1) { a[pid] = a[pid] + 1; } }",
      4);
  MachineOptions mo;
  Machine m(c.code, mo);
  m.run();
  i64 mx = 0;
  for (int p = 0; p < 4; ++p) mx = std::max(mx, m.proc_cycles(p));
  EXPECT_EQ(m.finish_cycles(), mx);
  EXPECT_GT(m.proc_cycles(3), m.proc_cycles(0));
}

// Transformed and untransformed executions must compute identical results
// for race-free programs — the transformation-safety property.
class TransformSafety : public ::testing::TestWithParam<i64> {};

TEST_P(TransformSafety, SameResultsUnderAllLayouts) {
  i64 nprocs = GetParam();
  const char* src =
      "param NPROCS = 8; param N = 64;\n"
      "struct S { int v[NPROCS]; int w; };\n"
      "struct S g[N];\n"
      "real a[N];\n"
      "int b[16][NPROCS];\n"
      "int done[NPROCS];\n"
      "lock_t l; int total;\n"
      "void main(int pid) { int i; int r;\n"
      "  for (r = 0; r < 4; r = r + 1) {\n"
      "    for (i = pid; i < N; i = i + nprocs) {\n"
      "      a[i] = a[i] + itor(i) * 0.5;\n"
      "      g[i].v[pid] = g[i].v[pid] + i;\n"
      "    }\n"
      "    for (i = 0; i < 16; i = i + 1) {\n"
      "      b[i][pid] = b[i][pid] + pid;\n"
      "    }\n"
      "  }\n"
      "  done[pid] = 1;\n"
      "  lock(l); total = total + pid; unlock(l);\n"
      "}\n";
  Compiled n = build(src, nprocs, false);
  Compiled c = build(src, nprocs, true);
  EXPECT_FALSE(c.transforms.decisions.empty());
  auto mn = run_program(n);
  auto mc = run_program(c);
  for (i64 i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(mn->load_real(n.address_of("a", "", {i})),
                     mc->load_real(c.address_of("a", "", {i})));
    for (i64 p = 0; p < nprocs; ++p)
      EXPECT_EQ(mn->load_int(n.address_of("g", "v", {i, p})),
                mc->load_int(c.address_of("g", "v", {i, p})));
  }
  for (i64 k = 0; k < 16; ++k)
    for (i64 p = 0; p < nprocs; ++p)
      EXPECT_EQ(mn->load_int(n.address_of("b", "", {k, p})),
                mc->load_int(c.address_of("b", "", {k, p})));
  EXPECT_EQ(mn->load_int(n.address_of("total", "", {})),
            mc->load_int(c.address_of("total", "", {})));
}

INSTANTIATE_TEST_SUITE_P(Procs, TransformSafety,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace fsopt
