// SearchPlanner: the plan-space search scored by simulated misses.
//
// The centerpiece is a brute-force oracle: for synthetic workloads whose
// constraint-pruned move space is small, the whole cross product of
// per-datum moves is enumerated and evaluated independently, and the
// search (given a budget covering the space) must land on exactly the
// oracle-optimal plan — same (fs_total, spatial_loss) and same
// layout-relevant decisions.  Around it: the seed-dominance invariant
// (never worse than the seed at any swept size, in both the exhaustive
// and the beam regime), graceful degradation at budget 0, bit-identical
// results across replay and search thread counts and repeated runs (the
// speculate/commit scoring, including a perfect candidate that ends a
// round early), a property-fuzz pass
// over random budgets (FSOPT_FUZZ_ITERS scales it), the seed score that
// search_plan reuses from its repair loop, and the kFieldReorder path:
// planner emission, JSON round-trip and plan re-injection producing
// identical miss tables.
#include "transform/search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <random>

#include "driver/experiment.h"
#include "lang/sema.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

// Two single-word-per-process arrays ping-ponging adjacent words: two
// program datums plus the interpreter barrier, each with a handful of
// feasible moves — a plan space of a few dozen assignments, small enough
// to enumerate exhaustively yet rich enough that moves interact (both
// arrays must be treated to zero the false sharing).
constexpr const char* kTwoArrays =
    "param NPROCS = 4;"
    "int x[NPROCS]; int y[NPROCS];"
    "void main(int pid) { int r;"
    "  for (r = 0; r < 50; r = r + 1) {"
    "    x[pid] = x[pid] + 1;"
    "    y[pid] = y[pid] + r;"
    "  } }";

// Four 32-byte array fields, interleaved across two processor classes:
// proc 0 owns a and c, proc 4 owns b and d.  In source order every
// 64-byte block mixes the classes; the permutation [a, c, b, d] packs
// each class into its own block — the case where a free field reorder
// beats a footprint-costing hot/cold split.
constexpr const char* kReorder =
    "param NPROCS = 8;"
    "struct S { int a[8]; int b[8]; int c[8]; int d[8]; };"
    "struct S g[1];"
    "void main(int pid) { int i; int r;"
    "  for (r = 0; r < 50; r = r + 1) {"
    "    if (pid == 0) { for (i = 0; i < 8; i = i + 1) {"
    "      g[0].a[i] = g[0].a[i] + 1; g[0].c[i] = g[0].c[i] + 1; } }"
    "    if (pid == 4) { for (i = 0; i < 8; i = i + 1) {"
    "      g[0].b[i] = g[0].b[i] + 1; g[0].d[i] = g[0].d[i] + 1; } }"
    "  } }";

// Layout-relevant canonical key (decision order and reasons excluded),
// mirroring the dedup rule the search applies, so the oracle can compare
// plans the way the search does.
std::string key_of(const TransformPlan& p) {
  std::vector<std::string> lines;
  for (const TransformDecision& d : p.decisions) {
    std::string s = std::to_string(d.datum.sym) + "." +
                    std::to_string(d.datum.field) + ":" +
                    std::to_string(static_cast<int>(d.kind)) + ":" +
                    std::to_string(d.pid_dim) + ":" +
                    std::to_string(static_cast<int>(d.shape)) + ":" +
                    std::to_string(d.chunk);
    for (int f : d.fields) s += "," + std::to_string(f);
    lines.push_back(std::move(s));
  }
  std::sort(lines.begin(), lines.end());
  std::string key;
  for (const std::string& l : lines) {
    key += l;
    key += ";";
  }
  return key;
}

// Evaluations already made, keyed by key_of.  The search scores
// candidates concurrently, so lookups and inserts take the lock; the
// evaluation itself runs outside it.
struct ScoreMemo {
  std::mutex mu;
  std::map<std::string, PlanScore> scores;

  std::optional<PlanScore> find(const std::string& key) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = scores.find(key);
    if (it == scores.end()) return std::nullopt;
    return it->second;
  }
  void put(const std::string& key, const PlanScore& s) {
    std::lock_guard<std::mutex> lk(mu);
    scores[key] = s;
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu);
    scores.clear();
  }
};

// Real-replay harness: baseline compile, profiles distilled from an
// attributed + conflict-collecting study, and a memoizing evaluator
// (compile with the candidate plan injected, study the swept sizes).
// The memo makes the oracle's exhaustive re-walk of the space nearly
// free after the search has evaluated most of it.
struct SearchHarness {
  std::string source;
  CompileOptions options;
  Compiled compiled;
  AddressMap am;
  FalseSharingProfile profile;
  ConflictProfile conflicts;
  TransformPlan empty_base;
  std::vector<i64> blocks{32, 64, 128, 256};
  i64 target = 128;
  int threads = 1;  // replay threads per evaluation
  std::shared_ptr<ScoreMemo> memo = std::make_shared<ScoreMemo>();

  static SearchHarness make(const char* src, i64 nprocs) {
    SearchHarness h;
    h.source = src;
    h.options.overrides = {{"NPROCS", nprocs}};
    h.compiled = compile_source(h.source, h.options);
    h.am = build_address_map(h.compiled);
    TraceStudyResult st = run_trace_study(h.compiled, h.blocks, 32 * 1024,
                                          &h.am, 1, true);
    h.profile = build_fs_profile(st, h.target);
    h.conflicts = build_conflict_profile(st, h.target, h.am);
    return h;
  }

  PlannerInputs inputs() const {
    PlannerInputs in{compiled.report, compiled.summary, {}, target,
                     &profile, &empty_base, &conflicts};
    return in;
  }

  PlanEvaluator evaluator() {
    return [this](const TransformPlan& p) {
      std::string key = key_of(p);
      if (std::optional<PlanScore> hit = memo->find(key)) return *hit;
      CompileOptions o = options;
      o.plan = std::make_shared<TransformPlan>(p);
      Compiled c = compile_source(source, o);
      TraceStudyResult st =
          run_trace_study(c, blocks, 32 * 1024, nullptr, threads);
      PlanScore s;
      for (i64 b : blocks) {
        s.fs[b] = st.at(b).false_sharing;
        s.cold_capacity[b] = st.at(b).cold + st.at(b).replacement;
      }
      s.footprint = c.layout.total_bytes();
      memo->put(key, s);
      return s;
    };
  }
};

u64 spatial_loss_of(const PlanScore& s, const PlanScore& seed, i64 block) {
  u64 loss = 0;
  for (const auto& [b, v] : s.cold_capacity) {
    auto it = seed.cold_capacity.find(b);
    u64 base = it != seed.cold_capacity.end() ? it->second : 0;
    if (v > base) loss += v - base;
  }
  if (s.footprint > seed.footprint)
    loss += static_cast<u64>((s.footprint - seed.footprint + block - 1) /
                             block);
  return loss;
}

void expect_frontier_sound(const SearchResult& r) {
  ASSERT_FALSE(r.frontier.empty());
  // Ascending fs_total, strictly descending spatial_loss: the very shape
  // of a non-dominated set over two minimized axes.
  for (size_t i = 1; i < r.frontier.size(); ++i) {
    const SearchCandidate& prev = r.evaluated[r.frontier[i - 1]];
    const SearchCandidate& cur = r.evaluated[r.frontier[i]];
    EXPECT_LE(prev.fs_total, cur.fs_total);
    EXPECT_GT(prev.spatial_loss, cur.spatial_loss);
  }
  // No evaluated candidate strictly dominates a frontier member.
  for (size_t fi : r.frontier)
    for (const SearchCandidate& c : r.evaluated) {
      bool dominates = (c.fs_total < r.evaluated[fi].fs_total &&
                        c.spatial_loss <= r.evaluated[fi].spatial_loss) ||
                       (c.fs_total <= r.evaluated[fi].fs_total &&
                        c.spatial_loss < r.evaluated[fi].spatial_loss);
      EXPECT_FALSE(dominates)
          << "candidate " << c.order << " dominates frontier member " << fi;
    }
}

void expect_never_worse_than_seed(const SearchResult& r) {
  const PlanScore& seed = r.evaluated[0].score;
  for (i64 b : r.blocks) {
    EXPECT_LE(r.best().score.fs.at(b), seed.fs.at(b)) << "block " << b;
    EXPECT_LE(r.evaluated[r.best_by_block.at(b)].score.fs.at(b),
              seed.fs.at(b))
        << "block " << b;
  }
}

// ---------------------------------------------------------------------------
// Brute-force oracle: the exhaustive regime must find the space optimum.
// ---------------------------------------------------------------------------

TEST(SearchOracle, ExhaustiveRegimeMatchesBruteForce) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 500;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  PlannerInputs in = h.inputs();

  SearchResult r = planner.search(in);
  ASSERT_GT(r.evaluated[0].fs_total, 0u) << "seed must leave work to do";
  ASSERT_TRUE(r.exhaustive) << "space must fit the budget for the oracle";

  // Enumerate the full cross product of per-datum moves ourselves, from
  // the same seed, over the same pruned domains, in the search's own
  // digit order — the independent referee.
  std::vector<SearchDomain> domains = planner.domains(in);
  ASSERT_GE(domains.size(), 2u);
  u64 space = 1;
  for (const SearchDomain& d : domains) space *= d.moves.size() + 1;
  ASSERT_LE(space - 1, static_cast<u64>(budget.max_replays));

  PlanEvaluator eval = h.evaluator();
  PlanScore seed_score = eval(h.empty_base);
  bool have_best = false;
  u64 best_fs = 0, best_loss = 0;
  TransformPlan best_plan;
  for (u64 idx = 0; idx < space; ++idx) {
    u64 rem = idx;
    TransformPlan p = h.empty_base;
    for (const SearchDomain& d : domains) {
      u64 digit = rem % (d.moves.size() + 1);
      rem /= d.moves.size() + 1;
      if (digit > 0) p = apply_search_move(p, d.moves[digit - 1]);
    }
    PlanScore s = eval(p);
    // The oracle optimum honors the same contract as the search: weakly
    // dominate the seed at every swept size.
    bool dominates = true;
    for (const auto& [b, v] : seed_score.fs)
      if (s.fs.at(b) > v) dominates = false;
    if (!dominates) continue;
    u64 fs = s.fs_total();
    u64 loss = spatial_loss_of(s, seed_score, h.target);
    if (!have_best || fs < best_fs ||
        (fs == best_fs && loss < best_loss)) {
      have_best = true;
      best_fs = fs;
      best_loss = loss;
      best_plan = p;
    }
  }
  ASSERT_TRUE(have_best);

  EXPECT_EQ(r.best().fs_total, best_fs);
  EXPECT_EQ(r.best().spatial_loss, best_loss);
  EXPECT_EQ(key_of(r.best().plan), key_of(best_plan));
  // The search actually solves this space: both arrays get treated.
  EXPECT_EQ(best_fs, 0u);
  EXPECT_LT(r.best().fs_total, r.evaluated[0].fs_total);

  expect_never_worse_than_seed(r);
  expect_frontier_sound(r);
}

// The search seeded by the graph planner can only refine it: at every
// swept size the winner's false sharing is at most the graph plan's.
TEST(SearchOracle, NeverWorseThanGraphPlannerSeed) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 60;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  PlannerInputs in = h.inputs();
  in.base = nullptr;  // seed from GraphPlanner over the same inputs

  SearchResult r = planner.search(in);
  PlannerInputs gin = h.inputs();
  gin.base = nullptr;
  PlanScore graph_score = h.evaluator()(GraphPlanner().plan(gin));
  for (i64 b : h.blocks)
    EXPECT_LE(r.best().score.fs.at(b), graph_score.fs.at(b))
        << "block " << b;
  expect_frontier_sound(r);
}

// ---------------------------------------------------------------------------
// Budget handling
// ---------------------------------------------------------------------------

TEST(SearchBudgetTest, TightBudgetStaysWithinReplayBound) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 5;  // far below the space: beam regime
  budget.beam_width = 2;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  SearchResult r = planner.search(h.inputs());

  EXPECT_FALSE(r.exhaustive);
  EXPECT_LE(r.replays, static_cast<u64>(budget.max_replays) + 1);
  EXPECT_GT(r.evaluated.size(), 1u);
  expect_never_worse_than_seed(r);
  expect_frontier_sound(r);
}

TEST(SearchBudgetTest, ZeroBudgetDegradesToSeed) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 0;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  SearchResult r = planner.search(h.inputs());

  EXPECT_EQ(r.replays, 1u);
  ASSERT_EQ(r.evaluated.size(), 1u);
  EXPECT_EQ(r.best_overall, 0u);
  EXPECT_EQ(r.frontier, std::vector<size_t>{0});
  // The winner *is* the seed, decision for decision.
  EXPECT_EQ(key_of(r.best().plan), key_of(h.empty_base));
}

// ---------------------------------------------------------------------------
// Determinism: identical plans, winners and frontier — byte for byte —
// for any replay thread count, any number of candidates scored at once
// (the speculate/commit rule), in both regimes, and across repeated runs.
// Every run replays for real.
// ---------------------------------------------------------------------------

TEST(SearchDeterminism, BitIdenticalAcrossThreadsAndRuns) {
  SearchBudget exhaustive;
  exhaustive.max_replays = 500;
  SearchBudget beam;
  beam.max_replays = 9;
  beam.beam_width = 2;
  struct Run {
    int replay_threads;
    int search_threads;
  };
  for (const SearchBudget& budget : {exhaustive, beam}) {
    const bool enumerates = budget.max_replays == exhaustive.max_replays;
    SCOPED_TRACE(enumerates ? "exhaustive" : "beam");
    std::vector<std::string> docs;
    for (Run run : {Run{1, 1}, Run{4, 1}, Run{1, 2}, Run{1, 4}, Run{1, 1}}) {
      SearchHarness h = SearchHarness::make(kTwoArrays, 4);
      h.threads = run.replay_threads;
      SearchPlanner planner(budget, h.blocks, h.evaluator(),
                            run.search_threads);
      SearchResult r = planner.search(h.inputs());
      EXPECT_EQ(r.exhaustive, enumerates);
      EXPECT_GT(r.evaluated.size(), 2u);
      docs.push_back(search_result_to_json(r, *h.compiled.prog));
    }
    EXPECT_EQ(docs[0], docs[1]) << "replay threads 1 vs 4";
    EXPECT_EQ(docs[0], docs[2]) << "search threads 1 vs 2";
    EXPECT_EQ(docs[0], docs[3]) << "search threads 1 vs 4";
    EXPECT_EQ(docs[0], docs[4]) << "repeated run";
  }
}

// A perfect candidate (no false sharing, no loss) ends the search in the
// middle of a beam round.  With several scorers the candidates admitted
// after it may already be scored; those scores must be thrown away and
// the counters rewound, so the result equals the one-at-a-time walk's.
// The evaluator is hand-built: scores are a fixed function of the plan,
// and the perfect plan's scoring waits until a later candidate has been
// scored, so the discard path is sure to run when scorers run at once.
TEST(SearchDeterminism, PerfectCandidateDiscardsLaterScores) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 8;
  budget.beam_width = 2;
  PlannerInputs in = h.inputs();

  // The first round's walk and admissions, in the search's (domain,
  // move) order.
  std::vector<std::string> walked, admitted;
  for (const SearchDomain& d : SearchPlanner(budget, h.blocks, {}).domains(in))
    for (const TransformDecision& m : d.moves) {
      walked.push_back(key_of(apply_search_move(h.empty_base, m)));
      if (walked.back() != key_of(h.empty_base) &&
          std::find(admitted.begin(), admitted.end(), walked.back()) ==
              admitted.end())
        admitted.push_back(walked.back());
    }
  ASSERT_GE(admitted.size(), 4u);
  const std::string perfect = admitted[1];
  // The serial walk stops right after generating the perfect candidate:
  // the seed plus every move walked up to and including it.
  const u64 generated = 1 + static_cast<u64>(std::find(walked.begin(),
                                                       walked.end(),
                                                       perfect) -
                                             walked.begin()) +
                        1;

  std::vector<std::string> docs;
  for (int threads : {1, 2, 4}) {
    std::atomic<int> calls{0};
    std::mutex mu;
    std::condition_variable cv;
    bool later_scored = false;
    const bool concurrent = std::min(threads, shared_pool().size()) > 1;
    PlanEvaluator fake = [&](const TransformPlan& p) {
      ++calls;
      std::string k = key_of(p);
      auto at = std::find(admitted.begin(), admitted.end(), k);
      if (at != admitted.end() && at - admitted.begin() > 1) {
        std::lock_guard<std::mutex> lk(mu);
        later_scored = true;
        cv.notify_all();
      }
      if (k == perfect && concurrent) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait_for(lk, std::chrono::seconds(10),
                    [&] { return later_scored; });
      }
      PlanScore s;
      for (i64 b : h.blocks) {
        s.fs[b] = k.empty() ? 100 : k == perfect ? 0 : 10 + k.size() % 7;
        s.cold_capacity[b] = 5;
      }
      s.footprint = 4096;
      return s;
    };
    SearchPlanner planner(budget, h.blocks, fake, threads);
    SearchResult r = planner.search(in);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_FALSE(r.exhaustive);
    // Seed, the first admission, then the perfect one: nothing after.
    ASSERT_EQ(r.evaluated.size(), 3u);
    EXPECT_EQ(r.replays, 3u);
    EXPECT_EQ(r.generated, generated);
    EXPECT_EQ(key_of(r.best().plan), perfect);
    EXPECT_EQ(r.best().fs_total, 0u);
    if (concurrent) {
      EXPECT_GT(calls.load(), 3) << "no later candidate was scored";
    } else {
      EXPECT_EQ(calls.load(), 3);
    }
    docs.push_back(search_result_to_json(r, *h.compiled.prog));
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_EQ(docs[0], docs[2]);
}

// search_plan takes the seed's score from the repair loop's last sweep
// instead of recording and replaying the seed again.  That score must
// equal a fresh evaluation of the seed plan on every workload, and on a
// repair loop that ends without an iteration (its baseline sweep is the
// one reused): no workload's default loop does, so one runs with
// max_iterations = 0.
TEST(SearchSeedScore, ReusedScoreEqualsFreshEvaluation) {
  const std::vector<i64> blocks{32, 64, 128, 256};
  auto check = [&](const workloads::Workload& w, int max_iterations) {
    SCOPED_TRACE(w.name + " max_iterations=" +
                 std::to_string(max_iterations));
    CompileOptions base;
    base.overrides = w.sim_overrides;
    base.overrides["NPROCS"] = w.fig3_procs;
    SearchPlanOptions opt;
    opt.seed.max_iterations = max_iterations;
    opt.budget.max_replays = 0;  // the seed alone
    SearchPlanResult sp = search_plan(w.natural, base, opt);
    ASSERT_EQ(sp.search.replays, 1u);
    if (max_iterations == 0) {
      EXPECT_TRUE(sp.seed.iterations.empty());
    }

    CompileOptions fresh = base;
    fresh.optimize = true;
    fresh.block_size = opt.seed.block_size;
    fresh.plan = std::make_shared<TransformPlan>(sp.seed.final_plan());
    Compiled c = compile_source(w.natural, fresh);
    TraceStudyResult st = run_trace_study(c, blocks, opt.seed.l1_bytes,
                                          nullptr, 1);
    const PlanScore& reused = sp.search.evaluated[0].score;
    for (i64 b : blocks) {
      EXPECT_EQ(reused.fs.at(b), st.at(b).false_sharing) << "block " << b;
      EXPECT_EQ(reused.cold_capacity.at(b),
                st.at(b).cold + st.at(b).replacement)
          << "block " << b;
    }
    EXPECT_EQ(reused.footprint, c.layout.total_bytes());
  };
  for (const workloads::Workload& w : workloads::all())
    check(w, RepairLoopOptions{}.max_iterations);
  check(workloads::all().front(), 0);
}

// ---------------------------------------------------------------------------
// apply_search_move semantics
// ---------------------------------------------------------------------------

TEST(ApplySearchMove, DisplacesCollidingDecisionsAndHonorsRemoval) {
  TransformPlan plan;
  plan.decisions.push_back({{7, -1}, TransformKind::kPadAlign, -1,
                            PartitionShape::kBlocked, 1, {}});
  plan.decisions.push_back({{9, 2}, TransformKind::kIntraPad, -1,
                            PartitionShape::kBlocked, 64, {}});

  // Symbol-level move on sym 9 displaces the field-level decision.
  TransformDecision mv{{9, -1}, TransformKind::kHotColdSplit, -1,
                       PartitionShape::kBlocked, 1, {}};
  mv.fields = {0, 1};
  TransformPlan next = apply_search_move(plan, mv);
  ASSERT_EQ(next.decisions.size(), 2u);
  EXPECT_EQ(next.decisions[0].datum.sym, 7);
  EXPECT_EQ(next.decisions[1].kind, TransformKind::kHotColdSplit);

  // kNone is pure removal.
  TransformDecision none{{7, -1}, TransformKind::kNone, -1,
                         PartitionShape::kBlocked, 1, {}};
  TransformPlan removed = apply_search_move(next, none);
  ASSERT_EQ(removed.decisions.size(), 1u);
  EXPECT_EQ(removed.decisions[0].datum.sym, 9);

  // Unrelated datums stack.
  TransformDecision other{{11, -1}, TransformKind::kPadAlign, -1,
                          PartitionShape::kBlocked, 1, {}};
  EXPECT_EQ(apply_search_move(removed, other).decisions.size(), 2u);
}

// ---------------------------------------------------------------------------
// Property fuzz: random budgets, fixed workload.  Every run must honor
// the replay bound, seed dominance, frontier soundness and determinism.
// FSOPT_FUZZ_ITERS scales the number of rounds.
// ---------------------------------------------------------------------------

TEST(SearchFuzz, InvariantsHoldAcrossRandomBudgets) {
  int iters = 4;
  if (const char* env = std::getenv("FSOPT_FUZZ_ITERS")) {
    int v = std::atoi(env);
    if (v > 0) iters = v;
  }
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  std::mt19937 rng(20260808);
  for (int it = 0; it < iters; ++it) {
    SearchBudget budget;
    budget.max_replays = static_cast<int>(rng() % 48);
    budget.beam_width = 1 + static_cast<int>(rng() % 4);
    budget.max_rounds = 1 + static_cast<int>(rng() % 3);
    SearchPlanner planner(budget, h.blocks, h.evaluator());

    SearchResult r1 = planner.search(h.inputs());
    SearchResult r2 = planner.search(h.inputs());
    SCOPED_TRACE("iter " + std::to_string(it) + " max_replays=" +
                 std::to_string(budget.max_replays) + " beam=" +
                 std::to_string(budget.beam_width));
    EXPECT_LE(r1.replays, static_cast<u64>(budget.max_replays) + 1);
    expect_never_worse_than_seed(r1);
    expect_frontier_sound(r1);
    EXPECT_EQ(search_result_to_json(r1, *h.compiled.prog),
              search_result_to_json(r2, *h.compiled.prog))
        << "same budget, same inputs, different result";
  }
}

// ---------------------------------------------------------------------------
// kFieldReorder: emission, JSON round-trip, re-injection identity.
// ---------------------------------------------------------------------------

struct Ctx {
  std::unique_ptr<Program> prog;
  ProgramSummary summary;
  SharingReport report;
};

Ctx analyze(std::string_view src, i64 nprocs) {
  Ctx c;
  DiagnosticEngine diags;
  c.prog = parse_and_check(src, diags, {{"NPROCS", nprocs}});
  c.summary = analyze_program(*c.prog);
  c.report = classify_sharing(c.summary);
  return c;
}

// A synthetic conflict profile with the known two-class structure of
// kReorder: proc 0 owns fields a (offset 0) and c (offset 64), proc 4
// owns b (offset 32) and d (offset 96).
ConflictProfile reorder_conflicts() {
  ConflictProfile prof;
  prof.block_size = 64;
  prof.total_weight = 160;
  prof.entries.push_back({"g",
                          160,
                          {{0, 32, 0, 4, 40},
                           {32, 0, 4, 0, 40},
                           {64, 96, 0, 4, 40},
                           {96, 64, 4, 0, 40}}});
  return prof;
}

TEST(FieldReorder, GraphPlannerEmitsSeparatingPermutation) {
  Ctx c = analyze(kReorder, 8);
  const GlobalSym* g = c.prog->find_global("g");
  ASSERT_NE(g, nullptr);
  TransformPlan empty;
  ConflictProfile prof = reorder_conflicts();
  GraphPlanner planner;
  PlannerInputs in{c.report, c.summary, {}, 64, nullptr, &empty, &prof};
  TransformPlan plan = planner.plan(in);

  const TransformDecision* d = plan.find({g->id, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kFieldReorder);
  // a (class 0), c (class 0), b (class 4), d (class 4).
  EXPECT_EQ(d->fields, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(d->reason.code, ReasonCode::kConflictGraph);

  // When the permutation provably cannot separate the classes at the
  // target size — a 256-byte unit swallows the whole 128-byte element —
  // the planner must fall back to the hot/cold split instead.
  PlannerInputs big = in;
  big.block_size = 256;
  TransformPlan big_plan = planner.plan(big);
  const TransformDecision* d2 = big_plan.find({g->id, -1});
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(d2->kind, TransformKind::kHotColdSplit);

  // Disabling the knob suppresses emission outright.
  GraphPlannerOptions no_reorder;
  no_reorder.try_field_reorder = false;
  TransformPlan split_plan = GraphPlanner(no_reorder).plan(in);
  const TransformDecision* d3 = split_plan.find({g->id, -1});
  ASSERT_NE(d3, nullptr);
  EXPECT_EQ(d3->kind, TransformKind::kHotColdSplit);
}

TEST(FieldReorder, JsonRoundTripAndReinjectionIdentity) {
  Ctx c = analyze(kReorder, 8);
  TransformPlan empty;
  ConflictProfile prof = reorder_conflicts();
  GraphPlanner planner;
  PlannerInputs in{c.report, c.summary, {}, 64, nullptr, &empty, &prof};
  TransformPlan plan = planner.plan(in);
  ASSERT_NE(plan.find({c.prog->find_global("g")->id, -1}), nullptr);

  // Round-trip: serialize -> parse -> serialize is byte-equal and the
  // permutation survives.
  std::string doc = plan_to_json(plan, *c.prog);
  TransformPlan parsed = plan_from_json(doc, *c.prog);
  EXPECT_EQ(plan_to_json(parsed, *c.prog), doc);
  EXPECT_EQ(parsed, plan);

  // Re-injection: compiling with the plan and with its JSON round-trip
  // must produce identical miss tables at every swept size — and the
  // reorder must actually eliminate g's false sharing, which the natural
  // field order provably has at 64 (every block mixes the two classes).
  CompileOptions base;
  base.overrides = {{"NPROCS", 8}};
  std::vector<i64> blocks{32, 64};

  Compiled plain = compile_source(kReorder, base);
  AddressMap am0 = build_address_map(plain);
  TraceStudyResult st0 = run_trace_study(plain, blocks, 32 * 1024, &am0);
  EXPECT_GT(st0.by_datum.at(64).at("g").false_sharing, 0u);

  CompileOptions with_plan = base;
  with_plan.block_size = 64;
  with_plan.plan = std::make_shared<TransformPlan>(plan);
  Compiled direct = compile_source(kReorder, with_plan);
  AddressMap am1 = build_address_map(direct);
  TraceStudyResult st1 = run_trace_study(direct, blocks, 32 * 1024, &am1);

  CompileOptions with_parsed = base;
  with_parsed.block_size = 64;
  with_parsed.plan = std::make_shared<TransformPlan>(parsed);
  Compiled rt = compile_source(kReorder, with_parsed);
  AddressMap am2 = build_address_map(rt);
  TraceStudyResult st2 = run_trace_study(rt, blocks, 32 * 1024, &am2);

  for (i64 b : blocks) {
    EXPECT_EQ(st1.at(b), st2.at(b)) << "block " << b;
    EXPECT_EQ(st1.by_datum.at(b), st2.by_datum.at(b)) << "block " << b;
  }
  EXPECT_EQ(st1.by_datum.at(64).at("g").false_sharing, 0u)
      << "the permutation should put each class in its own block";
}

}  // namespace
}  // namespace fsopt
