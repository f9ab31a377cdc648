#include "transform/search.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <set>

#include "lang/ast.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace fsopt {

TransformPlan apply_search_move(const TransformPlan& plan,
                                const TransformDecision& move) {
  TransformPlan out;
  out.planner = plan.planner;
  out.block_size = plan.block_size;
  for (const TransformDecision& d : plan.decisions) {
    bool collides = d.datum.sym == move.datum.sym &&
                    (d.datum.field < 0 || move.datum.field < 0 ||
                     d.datum.field == move.datum.field);
    if (!collides) out.decisions.push_back(d);
  }
  if (move.kind != TransformKind::kNone) out.decisions.push_back(move);
  return out;
}

namespace {

/// Same collision rule as apply_search_move's removal: does `plan` hold a
/// decision that would be displaced by a move on `key`?
bool covers(const TransformPlan& plan, const DatumKey& key) {
  for (const TransformDecision& d : plan.decisions) {
    if (d.datum.sym != key.sym) continue;
    if (d.datum.field < 0 || key.field < 0 || d.datum.field == key.field)
      return true;
  }
  return false;
}

/// Layout-relevant canonical key of a plan (reason and decision order
/// excluded), for deduplicating candidates that different move sequences
/// reach.
std::string plan_key(const TransformPlan& p) {
  std::vector<std::string> lines;
  lines.reserve(p.decisions.size());
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

/// Greedy processor-affinity ownership of a conflict entry's words (the
/// same rule as GraphPlanner's cut): each word goes to the processor
/// with the most incident edge weight, ties to the lowest processor.
std::map<i64, int> word_owners(const ConflictProfile::Entry& e) {
  std::map<i64, std::map<int, u64>> weight;
  for (const ConflictProfile::Pair& p : e.pairs) {
    weight[p.writer_off][p.writer_proc] += p.weight;
    weight[p.victim_off][p.victim_proc] += p.weight;
  }
  std::map<i64, int> owner;
  for (const auto& [off, procs] : weight) {
    int best = -1;
    u64 best_w = 0;
    for (const auto& [proc, w] : procs)
      if (best < 0 || w > best_w) {
        best = proc;
        best_w = w;
      }
    owner[off] = best;
  }
  return owner;
}

/// Conservative estimate of the shared-heap growth a move costs, in
/// bytes, for the footprint constraint.  The evaluator later measures
/// the real footprint; this estimate only has to be deterministic and
/// roughly right to prune clearly-over-budget assignments early.
i64 move_growth(const TransformDecision& m, const GlobalSym* gs,
                i64 block_size) {
  if (gs == nullptr)  // the barrier: three words strided apart
    return m.kind == TransformKind::kIntraPad ? 3 * m.chunk : block_size;
  i64 elems = gs->elem_count();
  i64 bytes = gs->byte_size();
  switch (m.kind) {
    case TransformKind::kPadAlign:
      return std::max<i64>(
          elems * std::max(block_size, gs->elem.byte_size()) - bytes, 0);
    case TransformKind::kIntraPad:
      return std::max<i64>(
          elems * std::max(m.chunk, gs->elem.byte_size()) - bytes, 0);
    case TransformKind::kHotColdSplit:
      return static_cast<i64>(m.fields.size()) * elems * block_size;
    default:
      // Reorder, group&transpose, indirection, lock-pad: bounded by
      // alignment slack, not proportional to the datum.
      return block_size;
  }
}

struct DomainBuildResult {
  std::vector<SearchDomain> domains;
  u64 pruned = 0;  // node-infeasible moves dropped during construction
};

/// The candidate datums, ordered by measured damage: conflict-profile
/// entries first (descending weight), then profile entries the conflict
/// graph did not already surface.  Capped so the plan space stays
/// enumerable; every threshold the greedy planners apply is deliberately
/// absent — exploring below-threshold datums is the point of searching.
DomainBuildResult build_domains(const PlannerInputs& in,
                                const SearchBudget& budget) {
  constexpr size_t kMaxDomains = 6;
  constexpr i64 kStrides[] = {64, 256};

  DomainBuildResult out;
  std::set<DatumKey> seen;
  std::map<DatumKey, std::vector<const AccessRecord*>> writes_by_datum =
      dominant_phase_writes(in.report, in.summary);

  struct Source {
    std::string name;
    const ConflictProfile::Entry* conflict;
    u64 weight;
  };
  std::vector<Source> sources;
  if (in.conflicts != nullptr)
    for (const ConflictProfile::Entry& e : in.conflicts->entries)
      sources.push_back({e.name, &e, e.weight});
  if (in.profile != nullptr)
    for (const FalseSharingProfile::Entry& e : in.profile->entries) {
      bool dup = false;
      for (const Source& s : sources)
        if (s.name == e.name) dup = true;
      if (!dup && e.fs_misses > 0)
        sources.push_back({e.name, nullptr, e.fs_misses});
    }

  for (const Source& src : sources) {
    if (out.domains.size() >= kMaxDomains) break;

    DecisionReason reason;
    reason.code = src.conflict != nullptr ? ReasonCode::kConflictGraph
                                          : ReasonCode::kProfileFalseSharing;
    reason.fs_misses = src.weight;

    SearchDomain dom;
    dom.name = src.name;

    // Resolve the name to a datum the same way GraphPlanner does: the
    // DatumClass when the sharing report has one, the symbol-level
    // global otherwise, the pseudo-datum for the barrier.
    const GlobalSym* gs = nullptr;
    const DatumClass* dc = nullptr;
    if (src.name == kBarrierName) {
      dom.datum = {kBarrierSym, -1};
      for (i64 stride : kStrides)
        dom.moves.push_back({dom.datum, TransformKind::kIntraPad, -1,
                             PartitionShape::kBlocked, stride, reason, {}});
    } else {
      for (const DatumClass& d : in.report.data)
        if (d.name == src.name) dc = &d;
      if (dc != nullptr) {
        gs = in.summary.datum_sym(dc->datum);
        dom.datum = dc->datum;
      } else {
        gs = in.summary.prog->find_global(src.name);
        dom.datum = gs != nullptr ? DatumKey{gs->id, -1} : DatumKey{};
      }
      if (gs == nullptr) continue;
    }

    if (gs != nullptr && dc != nullptr && dc->is_lock) {
      dom.moves.push_back({dom.datum, TransformKind::kLockPad, -1,
                           PartitionShape::kBlocked, 1, reason, {}});
    } else if (gs != nullptr) {
      i64 elems = 1;
      if (dc != nullptr)
        for (i64 ext : dc->extents) elems *= ext;
      else
        elems = gs->elem_count();

      // Struct symbols at symbol level: the intra-datum repairs.
      if (gs->elem.is_struct && dom.datum.field < 0 &&
          src.conflict != nullptr) {
        const StructType& st = *gs->elem.strct;
        std::map<i64, int> owner = word_owners(*src.conflict);
        std::set<int> hot;
        std::set<int> owners;
        bool mapped = true;
        for (const auto& [off, proc] : owner) {
          i64 rel = off % gs->elem.byte_size();
          int fi = -1;
          for (size_t f = 0; f < st.fields.size(); ++f)
            if (rel >= st.fields[f].offset &&
                rel < st.fields[f].offset + st.fields[f].byte_size())
              fi = static_cast<int>(f);
          if (fi < 0) {
            mapped = false;
            break;
          }
          hot.insert(fi);
          owners.insert(proc);
        }
        if (mapped && !hot.empty()) {
          TransformDecision split{dom.datum, TransformKind::kHotColdSplit,
                                  -1, PartitionShape::kBlocked, 1, reason, {}};
          split.fields.assign(hot.begin(), hot.end());
          if (move_growth(split, gs, in.block_size) <=
              budget.footprint_limit)
            dom.moves.push_back(std::move(split));
          else
            ++out.pruned;
          // A pure permutation costs no footprint; propose it whenever
          // at least two affinity classes exist and let the replay judge
          // whether it separates them.
          if (owners.size() >= 2 && st.fields.size() >= 2) {
            std::map<int, std::map<int, u64>> field_weight;
            for (const ConflictProfile::Pair& p : src.conflict->pairs) {
              auto field_of = [&](i64 off) {
                i64 rel = off % gs->elem.byte_size();
                for (size_t f = 0; f < st.fields.size(); ++f)
                  if (rel >= st.fields[f].offset &&
                      rel < st.fields[f].offset + st.fields[f].byte_size())
                    return static_cast<int>(f);
                return -1;
              };
              if (int fi = field_of(p.writer_off); fi >= 0)
                field_weight[fi][p.writer_proc] += p.weight;
              if (int fi = field_of(p.victim_off); fi >= 0)
                field_weight[fi][p.victim_proc] += p.weight;
            }
            std::vector<int> perm(st.fields.size());
            for (size_t f = 0; f < perm.size(); ++f)
              perm[f] = static_cast<int>(f);
            auto owner_class = [&](int fi) {
              auto it = field_weight.find(fi);
              if (it == field_weight.end()) return INT_MAX;  // cold: last
              int best = -1;
              u64 best_w = 0;
              for (const auto& [proc, w] : it->second)
                if (best < 0 || w > best_w) {
                  best = proc;
                  best_w = w;
                }
              return best;
            };
            std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
              return owner_class(a) < owner_class(b);
            });
            TransformDecision reorder{dom.datum,
                                      TransformKind::kFieldReorder, -1,
                                      PartitionShape::kBlocked, 1, reason,
                                      {}};
            reorder.fields = std::move(perm);
            dom.moves.push_back(std::move(reorder));
          }
        }
      }

      // Per-process writes with a detectable linear partition axis: the
      // locality-restoring transforms, same admissibility as the
      // profile planner.
      if (dc != nullptr && dc->writes == Pattern::kPerProcess &&
          dc->writer_count >= 2 && dc->pid_dim >= 0) {
        auto shape =
            detect_partition_shape(writes_by_datum[dc->datum], in.summary,
                                   dc->datum, dc->pid_dim);
        if (shape.has_value()) {
          if (dc->pid_dim_is_field_dim && dc->datum.field >= 0)
            dom.moves.push_back({dom.datum, TransformKind::kIndirection,
                                 dc->pid_dim, shape->first, shape->second,
                                 reason, {}});
          else if (dc->datum.field < 0)
            dom.moves.push_back({dom.datum, TransformKind::kGroupTranspose,
                                 dc->pid_dim, shape->first, shape->second,
                                 reason, {}});
        }
      }

      // Intra-datum element strides.  A stride below the element size
      // would overlap elements — alignment-infeasible, pruned.
      if (!gs->elem.is_struct || dom.datum.field >= 0) {
        i64 unit = dom.datum.field >= 0
                       ? gs->elem.strct->fields[static_cast<size_t>(
                             dom.datum.field)].byte_size()
                       : gs->elem.byte_size();
        for (i64 stride : kStrides) {
          if (stride < unit) {
            ++out.pruned;
            continue;
          }
          TransformDecision pad{dom.datum, TransformKind::kIntraPad, -1,
                                PartitionShape::kBlocked, stride, reason, {}};
          if (move_growth(pad, gs, in.block_size) <= budget.footprint_limit)
            dom.moves.push_back(std::move(pad));
          else
            ++out.pruned;
        }
      }

      // Whole-datum isolation.
      TransformDecision pad{dom.datum, TransformKind::kPadAlign, -1,
                            PartitionShape::kBlocked, 1, reason, {}};
      if (move_growth(pad, gs, in.block_size) <= budget.footprint_limit)
        dom.moves.push_back(std::move(pad));
      else
        ++out.pruned;
      (void)elems;
    }

    // Exploring *removal* of the seed's decision trades false sharing
    // back for footprint/locality — the low-loss end of the frontier.
    if (in.base != nullptr && covers(*in.base, dom.datum))
      dom.moves.push_back({dom.datum, TransformKind::kNone, -1,
                           PartitionShape::kBlocked, 1, reason, {}});

    if (!dom.moves.empty()) out.domains.push_back(std::move(dom));
  }
  return out;
}

}  // namespace

std::vector<SearchDomain> SearchPlanner::domains(
    const PlannerInputs& in) const {
  return build_domains(in, budget_).domains;
}

TransformPlan SearchPlanner::plan(const PlannerInputs& in) const {
  SearchResult r = search(in);
  return r.best().plan;
}

SearchResult SearchPlanner::search(const PlannerInputs& in,
                                   const PlanScore* seed_score) const {
  FSOPT_CHECK(static_cast<bool>(evaluate_),
              "SearchPlanner requires a PlanEvaluator");
  SearchResult out;
  out.block_size = in.block_size;
  out.blocks = blocks_;
  out.budget = budget_;

  // The seed: the plan the search must never lose to.  Its evaluation is
  // the baseline the spatial-locality axis is measured against.
  TransformPlan seed =
      in.base != nullptr ? *in.base : GraphPlanner().plan(in);
  seed.planner = name();
  seed.block_size = in.block_size;

  std::set<std::string> seen;
  ++out.generated;
  seen.insert(plan_key(seed));
  {
    SearchCandidate c;
    c.score = seed_score != nullptr ? *seed_score : evaluate_(seed);
    c.fs_total = c.score.fs_total();
    c.plan = seed;
    out.evaluated.push_back(std::move(c));
    ++out.replays;
  }
  const PlanScore baseline = out.evaluated.front().score;

  // Scores one admitted plan.  Reads no search state but `baseline`, so
  // a batch of admitted plans can be scored concurrently.
  auto score = [&](const TransformPlan& p, int order) {
    SearchCandidate c;
    c.order = order;
    c.score = evaluate_(p);
    c.fs_total = c.score.fs_total();
    for (const auto& [b, v] : c.score.cold_capacity) {
      auto it = baseline.cold_capacity.find(b);
      u64 base = it != baseline.cold_capacity.end() ? it->second : 0;
      if (v > base) c.spatial_loss += v - base;
    }
    if (c.score.footprint > baseline.footprint)
      c.spatial_loss += static_cast<u64>(
          (c.score.footprint - baseline.footprint + in.block_size - 1) /
          in.block_size);
    c.plan = p;
    return c;
  };
  auto perfect = [](const SearchCandidate& c) {
    return c.fs_total == 0 && c.spatial_loss == 0;  // cannot be beaten
  };

  // Speculate, then commit in order.  Admission walks candidates
  // serially and never looks at a score: the footprint constraint, the
  // dedup against every plan admitted so far and the replay cap depend
  // only on plans and counts.  The admitted batch is then scored in
  // parallel into per-index slots, and the slots are committed in
  // admission order — exactly the sequence a one-at-a-time walk would
  // have evaluated.
  struct Admitted {
    TransformPlan plan;
    i64 growth;
    // Counters right after this admission: what a stop here restores.
    u64 generated;
    u64 pruned;
  };
  std::vector<Admitted> batch;
  auto admit = [&](TransformPlan p, i64 growth) {
    ++out.generated;
    if (growth > budget_.footprint_limit ||
        !seen.insert(plan_key(p)).second) {
      ++out.pruned;
      return;
    }
    batch.push_back({std::move(p), growth, out.generated, out.pruned});
  };
  auto in_flight = [&] { return out.replays + batch.size(); };
  // Scores and commits `batch`; appends each committed candidate's index
  // and growth to `next`/`growth_acc` when given.  With stop_on_perfect,
  // the first perfect candidate ends the search: the slots after it are
  // discarded (workers skip the ones they have not started) and the
  // counters rewind to that admission.  Returns false on such a stop.
  auto commit_batch = [&](bool stop_on_perfect, std::vector<size_t>* next,
                          std::vector<i64>* growth_acc) {
    const size_t n = batch.size();
    const int first = static_cast<int>(out.evaluated.size());
    std::vector<SearchCandidate> slots(n);
    std::atomic<size_t> stop{n};
    parallel_for_each(threads_, n, [&](size_t i) {
      if (i > stop.load()) return;
      slots[i] = score(batch[i].plan, first + static_cast<int>(i));
      if (stop_on_perfect && perfect(slots[i])) {
        size_t s = stop.load();
        while (i < s && !stop.compare_exchange_weak(s, i)) {
        }
      }
    });
    bool going = true;
    for (size_t i = 0; i < n && going; ++i) {
      ++out.replays;
      if (next != nullptr) next->push_back(out.evaluated.size());
      if (growth_acc != nullptr) growth_acc->push_back(batch[i].growth);
      out.evaluated.push_back(std::move(slots[i]));
      if (stop_on_perfect && perfect(out.evaluated.back())) {
        out.generated = batch[i].generated;
        out.pruned = batch[i].pruned;
        going = false;
      }
    }
    batch.clear();
    return going;
  };

  // A seed with zero false sharing at every swept size is already
  // optimal on the primary axis and, by definition, has zero loss on the
  // secondary one — nothing can dominate it.
  if (out.evaluated.front().fs_total > 0) {
    DomainBuildResult db = build_domains(in, budget_);
    out.pruned += db.pruned;
    const std::vector<SearchDomain>& domains = db.domains;

    auto growth_of = [&](const TransformDecision& m) {
      const GlobalSym* gs =
          m.datum.sym == kBarrierSym ? nullptr : in.summary.datum_sym(
                                                     {m.datum.sym, -1});
      return move_growth(m, gs, in.block_size);
    };

    // Exhaustive regime: when the pruned domain product fits the replay
    // budget, enumerate every assignment (mixed-radix counter; digit 0
    // keeps the seed's treatment of that datum) as one batch.  This is
    // the regime the brute-force oracle test exercises.
    u64 space = 1;
    for (const SearchDomain& d : domains) {
      space *= static_cast<u64>(d.moves.size()) + 1;
      if (space > 100000) break;  // avoid overflow; clearly not enumerable
    }
    bool budget_left = true;
    if (!domains.empty() &&
        space - 1 <= static_cast<u64>(budget_.max_replays)) {
      out.exhaustive = true;
      for (u64 idx = 1; idx < space && budget_left; ++idx) {
        u64 rem = idx;
        TransformPlan p = seed;
        i64 growth = 0;
        for (const SearchDomain& d : domains) {
          u64 digit = rem % (d.moves.size() + 1);
          rem /= d.moves.size() + 1;
          if (digit == 0) continue;
          const TransformDecision& m = d.moves[digit - 1];
          p = apply_search_move(p, m);
          growth += growth_of(m);
        }
        admit(std::move(p), growth);
        budget_left = in_flight() <= static_cast<u64>(budget_.max_replays);
      }
      commit_batch(false, nullptr, nullptr);
    } else if (!domains.empty()) {
      // Beam search: each round expands every beam plan by every single
      // feasible move, in deterministic (beam, domain, move) order, then
      // keeps the lexicographically best `beam_width` candidates.  A
      // round is one batch: its admissions depend only on the beam,
      // which the previous round's committed scores fixed.
      auto better = [&](size_t a, size_t b) {
        const SearchCandidate& ca = out.evaluated[a];
        const SearchCandidate& cb = out.evaluated[b];
        if (ca.fs_total != cb.fs_total) return ca.fs_total < cb.fs_total;
        if (ca.spatial_loss != cb.spatial_loss)
          return ca.spatial_loss < cb.spatial_loss;
        return ca.order < cb.order;
      };
      // Summed move growth per evaluated candidate, for the running
      // footprint constraint as assignments compose.
      std::vector<i64> growth_acc = {0};
      std::vector<size_t> beam = {0};
      for (int round = 0; round < budget_.max_rounds && budget_left;
           ++round) {
        for (size_t bi : beam) {
          for (const SearchDomain& d : domains) {
            for (const TransformDecision& m : d.moves) {
              if (in_flight() > static_cast<u64>(budget_.max_replays)) {
                budget_left = false;
                break;
              }
              admit(apply_search_move(out.evaluated[bi].plan, m),
                    growth_acc[bi] + growth_of(m));
            }
            if (!budget_left) break;
          }
          if (!budget_left) break;
        }
        std::vector<size_t> next;
        if (!commit_batch(true, &next, &growth_acc)) budget_left = false;
        if (next.empty()) break;
        std::vector<size_t> pool = beam;
        pool.insert(pool.end(), next.begin(), next.end());
        std::sort(pool.begin(), pool.end(), better);
        pool.resize(std::min<size_t>(pool.size(),
                                     static_cast<size_t>(std::max(
                                         budget_.beam_width, 1))));
        beam = std::move(pool);
      }
    }
  }

  // Winners.  Ties break by (secondary axis, generation index) so the
  // result is unique and deterministic.
  auto better_overall = [&](size_t a, size_t b) {
    const SearchCandidate& ca = out.evaluated[a];
    const SearchCandidate& cb = out.evaluated[b];
    if (ca.fs_total != cb.fs_total) return ca.fs_total < cb.fs_total;
    if (ca.spatial_loss != cb.spatial_loss)
      return ca.spatial_loss < cb.spatial_loss;
    return ca.order < cb.order;
  };
  // The overall winner must weakly dominate the seed at *every* swept
  // size: an fs_total argmin alone could trade one block size up while
  // the sum goes down, and the contract is "never worse than the seed
  // plan at any swept size" (the seed itself always qualifies).
  auto dominates_seed = [&](size_t i) {
    for (const auto& [b, v] : out.evaluated[0].score.fs) {
      auto it = out.evaluated[i].score.fs.find(b);
      if ((it != out.evaluated[i].score.fs.end() ? it->second : u64{0}) > v)
        return false;
    }
    return true;
  };
  out.best_overall = 0;
  for (size_t i = 1; i < out.evaluated.size(); ++i)
    if (dominates_seed(i) && better_overall(i, out.best_overall))
      out.best_overall = i;
  for (i64 b : blocks_) {
    size_t best = 0;
    auto fs_at = [&](size_t i) {
      auto it = out.evaluated[i].score.fs.find(b);
      return it != out.evaluated[i].score.fs.end() ? it->second : u64{0};
    };
    for (size_t i = 1; i < out.evaluated.size(); ++i) {
      if (fs_at(i) != fs_at(best)) {
        if (fs_at(i) < fs_at(best)) best = i;
      } else if (out.evaluated[i].spatial_loss <
                 out.evaluated[best].spatial_loss) {
        best = i;
      }
    }
    out.best_by_block[b] = best;
  }

  // Pareto frontier over (fs_total, spatial_loss): sweep candidates in
  // lexicographic order and keep each strict improvement on the
  // secondary axis.
  std::vector<size_t> order(out.evaluated.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), better_overall);
  u64 best_loss = 0;
  bool first = true;
  for (size_t i : order) {
    if (first || out.evaluated[i].spatial_loss < best_loss) {
      out.frontier.push_back(i);
      best_loss = out.evaluated[i].spatial_loss;
      first = false;
    }
  }
  std::sort(out.frontier.begin(), out.frontier.end(),
            [&](size_t a, size_t b) {
              return out.evaluated[a].fs_total < out.evaluated[b].fs_total;
            });

  static obs::Counter& candidates = obs::metric_counter("search.candidates");
  static obs::Counter& pruned = obs::metric_counter("search.pruned");
  static obs::Counter& replays = obs::metric_counter("search.replays");
  static obs::Gauge& frontier = obs::metric_gauge("search.frontier_size");
  candidates.inc(out.generated);
  pruned.inc(out.pruned);
  replays.inc(out.replays);
  frontier.set(static_cast<double>(out.frontier.size()));
  return out;
}

std::string search_result_to_json(const SearchResult& r,
                                  const Program& prog) {
  std::string out;
  json::Writer w(&out, 2);
  auto score_map = [&](const char* key, const std::map<i64, u64>& m) {
    w.key(key).begin_object();
    for (const auto& [b, v] : m) w.key(std::to_string(b)).value(v);
    w.end_object();
  };
  auto candidate = [&](size_t idx) {
    const SearchCandidate& c = r.evaluated[idx];
    w.begin_object();
    w.key("index").value(static_cast<i64>(idx));
    w.key("fs_total").value(c.fs_total);
    w.key("spatial_loss").value(c.spatial_loss);
    w.key("footprint").value(c.score.footprint);
    score_map("fs", c.score.fs);
    score_map("cold_capacity", c.score.cold_capacity);
    w.key("plan");
    plan_to_writer(w, c.plan, prog);
    w.end_object();
  };

  w.begin_object();
  w.key("search_version").value(1);
  w.key("block_size").value(r.block_size);
  w.key("blocks").begin_array();
  for (i64 b : r.blocks) w.value(b);
  w.end_array();
  w.key("budget").begin_object();
  w.key("max_replays").value(r.budget.max_replays);
  w.key("beam_width").value(r.budget.beam_width);
  w.key("max_rounds").value(r.budget.max_rounds);
  w.key("footprint_limit").value(r.budget.footprint_limit);
  w.end_object();
  w.key("exhaustive").value(r.exhaustive);
  w.key("stats").begin_object();
  w.key("generated").value(r.generated);
  w.key("pruned").value(r.pruned);
  w.key("replays").value(r.replays);
  w.key("evaluated").value(static_cast<i64>(r.evaluated.size()));
  w.end_object();
  w.key("best");
  candidate(r.best_overall);
  w.key("best_by_block").begin_array();
  for (const auto& [b, idx] : r.best_by_block) {
    w.begin_object();
    w.key("block").value(b);
    w.key("candidate");
    candidate(idx);
    w.end_object();
  }
  w.end_array();
  w.key("frontier").begin_array();
  for (size_t idx : r.frontier) candidate(idx);
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace fsopt
