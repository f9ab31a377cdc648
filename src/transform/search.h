// SearchPlanner: budgeted search over the transform-plan IR, scored by
// simulated misses instead of heuristics.
//
// The §3.3 decision procedure and its profile/graph refinements are
// one-shot greedy rules: each datum gets the first transformation whose
// admissibility test passes.  With replay_multi making a full block-size
// sweep nearly as cheap as a single replay, the plan space can instead be
// *searched* against measured miss counts, in the spirit of Chen &
// Kandemir's constraint-network memory-layout formulation: candidate
// moves are the existing decision kinds applied per datum, pruned by
// constraint propagation (decisions that cannot coexist, a footprint
// budget, alignment feasibility), explored by beam search — or, when the
// pruned space fits the replay budget, enumerated exhaustively, which is
// what makes the brute-force oracle test sound.
//
// Layering: transform/ stays independent of sim/ and driver/.  The
// search never simulates anything itself — the driver passes in a
// PlanEvaluator callback (driver/experiment.h search_plan) that compiles
// a candidate plan against the shared front half, records its trace once
// and replays it across the swept block sizes in a single pass; this
// layer only sees the resulting plain-number PlanScore.
//
// Objective: two axes.  The primary axis is total false-sharing misses
// summed across the swept block sizes; the secondary axis is
// spatial-locality loss — the cold/capacity misses a candidate adds over
// the seed plan, plus its footprint growth in blocks.  Candidates are
// ordered lexicographically by (fs_total, spatial_loss, generation
// index); the generation index is deterministic, so the whole search is
// bit-identical across thread counts and repeated runs (the evaluator's
// replays are bit-identical by construction).  Besides the single best
// plan the search keeps the best plan *per swept block size* and the
// Pareto frontier over the two axes (`fsoptc --pareto-out`).
//
// Parallelism: speculate, then commit in order.  Which candidates a beam
// round (or the exhaustive enumeration) admits depends only on plans and
// counts, never on a score, so admission runs serially and the admitted
// batch is scored concurrently on the shared pool into per-index slots.
// The slots are then committed in admission order under the serial
// rules, so SearchResult is the same for every thread count.
#pragma once

#include <functional>

#include "transform/planner.h"

namespace fsopt {

/// Measured score of one candidate plan: per-block-size false-sharing
/// misses, per-block-size cold+capacity misses (the spatial-locality
/// axis), and the layout footprint in bytes.  Plain numbers only — the
/// driver's evaluator distills them from a trace study.
struct PlanScore {
  std::map<i64, u64> fs;             // block size -> false-sharing misses
  std::map<i64, u64> cold_capacity;  // block size -> cold + replacement
  i64 footprint = 0;                 // shared-heap bytes of the layout

  u64 fs_total() const {
    u64 t = 0;
    for (const auto& [b, v] : fs) t += v;
    return t;
  }
};

/// Compile + trace + replay one candidate plan.  Must be deterministic:
/// the same plan must always produce the same score (the replay engine
/// guarantees bit-identical stats for any thread count).  The search
/// calls it concurrently from up to its thread count of pool workers, so
/// it must also be safe to call from several threads at once.
using PlanEvaluator = std::function<PlanScore(const TransformPlan&)>;

/// Cost bound for the search.  `max_replays` caps candidate evaluations
/// *beyond* the seed plan (the seed is always evaluated — it is the
/// baseline both axes are measured against), so a budget of 0 degrades
/// gracefully to the seed plan.  Tie-breaking is deterministic
/// (generation order), so a fixed budget yields identical plans and
/// frontiers for any thread count and across repeated runs.
struct SearchBudget {
  int max_replays = 24;
  int beam_width = 3;
  int max_rounds = 3;
  /// Constraint-propagation bound: the summed footprint-growth estimate
  /// of a candidate's moves may not exceed this (same currency as
  /// ProfilePlannerOptions::pad_footprint_limit).
  i64 footprint_limit = 256 * 1024;
};

/// `base` overridden by FSOPT_SEARCH_BUDGET (max candidate replays) when
/// the variable is set to a non-negative integer.
SearchBudget search_budget_from_env(SearchBudget base = {});

/// The feasible moves for one datum, after node-level constraint pruning
/// (alignment feasibility, per-move footprint).  A move with kind kNone
/// clears the seed's decision for the datum (exploring *removal* is what
/// populates the low-footprint end of the Pareto frontier).  Exposed so
/// the oracle test can enumerate exactly the space the search prunes.
struct SearchDomain {
  DatumKey datum;
  std::string name;  // address-map spelling, for reports
  std::vector<TransformDecision> moves;
};

/// One evaluated candidate.  `order` is the deterministic generation
/// index (0 = the seed plan) used as the final tie-break.
struct SearchCandidate {
  TransformPlan plan;
  PlanScore score;
  u64 fs_total = 0;
  u64 spatial_loss = 0;
  int order = 0;
};

struct SearchResult {
  i64 block_size = 128;    // the plan-target size
  std::vector<i64> blocks; // swept sizes every candidate was scored at
  SearchBudget budget;
  /// Every evaluated candidate, in generation order ([0] is the seed).
  std::vector<SearchCandidate> evaluated;
  /// Index of the best candidate overall: lexicographic min of
  /// (fs_total, spatial_loss, order) over the candidates that weakly
  /// dominate the seed's false sharing at *every* swept block size (the
  /// seed qualifies trivially, so the winner is never worse than the
  /// seed plan at any size — the invariant the bench gates enforce).
  size_t best_overall = 0;
  /// Per swept block size, the candidate minimizing (fs at that size,
  /// spatial_loss, order).
  std::map<i64, size_t> best_by_block;
  /// Pareto frontier over (fs_total, spatial_loss): indices of the
  /// non-dominated candidates, sorted by ascending fs_total.  Dominated
  /// duplicates keep the lowest generation index.  Never empty — the
  /// seed always participates.
  std::vector<size_t> frontier;
  /// True when the pruned domain product fit the replay budget and the
  /// space was enumerated exhaustively (the oracle regime).
  bool exhaustive = false;
  u64 generated = 0;  // candidate plans considered (including pruned)
  u64 pruned = 0;     // rejected by constraint propagation / dedup
  /// Committed candidate scorings, the seed included even when its score
  /// was passed in.  Scorings discarded past a perfect candidate do not
  /// count.
  u64 replays = 0;

  const SearchCandidate& best() const { return evaluated[best_overall]; }
};

/// Budgeted plan-space search.  `blocks` are the swept block sizes the
/// evaluator scores at (they become SearchResult::blocks); the seed plan
/// is `in.base` when set, else the GraphPlanner plan for the same inputs.
/// `threads` bounds how many candidates are scored at once (0 =
/// experiment_threads()); the result does not depend on it.
class SearchPlanner : public Planner {
 public:
  SearchPlanner(SearchBudget budget, std::vector<i64> blocks,
                PlanEvaluator evaluate, int threads = 1)
      : budget_(budget), blocks_(std::move(blocks)),
        evaluate_(std::move(evaluate)), threads_(threads) {}

  const char* name() const override { return "search"; }
  /// The best-overall plan of search().
  TransformPlan plan(const PlannerInputs& in) const override;
  /// `seed_score`, when given, is the seed plan's already-measured score
  /// and is used instead of evaluating the seed again; it still counts
  /// as one of SearchResult::replays.
  SearchResult search(const PlannerInputs& in,
                      const PlanScore* seed_score = nullptr) const;

  /// The constraint-pruned per-datum move domains for `in`, in the
  /// deterministic order the search explores them.  Public so the
  /// brute-force oracle test enumerates exactly the same space.
  std::vector<SearchDomain> domains(const PlannerInputs& in) const;

 private:
  SearchBudget budget_;
  std::vector<i64> blocks_;
  PlanEvaluator evaluate_;
  int threads_;
};

/// Apply one search move to a plan: decisions colliding with the move's
/// datum (exact datum, whole symbol for field-level moves, any field for
/// symbol-level moves) are removed, then the move is appended (kNone
/// appends nothing — pure removal).  Exposed for the oracle test.
TransformPlan apply_search_move(const TransformPlan& plan,
                                const TransformDecision& move);

/// Versioned JSON for `fsoptc --pareto-out`: budget, counters, the best
/// plan overall, the best plan per swept block size, and the full Pareto
/// frontier with scores and embedded plans (plan_version-1 objects, the
/// same schema --plan-in accepts).  Deterministic byte-for-byte for a
/// fixed search result.
std::string search_result_to_json(const SearchResult& r, const Program& prog);

}  // namespace fsopt
