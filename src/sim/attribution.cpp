#include "sim/attribution.h"

#include <bit>

#include "support/json.h"

namespace fsopt {

void AddressMap::add(i64 lo, i64 hi, std::string name) {
  FSOPT_CHECK(hi >= lo, "bad address range");
  ranges_.push_back({lo, hi, std::move(name)});
  rebuild_index();
}

void AddressMap::rebuild_index() {
  bounds_.clear();
  owner_.clear();
  for (const AddrRange& r : ranges_) {
    if (r.lo == r.hi) continue;  // empty ranges own no addresses
    bounds_.push_back(r.lo);
    bounds_.push_back(r.hi);
  }
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (bounds_.empty()) return;

  // Overlapping ranges subdivide each other, so within one segment the
  // covering set — and therefore the smallest-covering winner — is
  // constant; probing the segment start resolves the whole segment.
  // Quadratic in the range count, which is tens of globals; the payoff is
  // the O(log n) probe on the per-event path.
  owner_.resize(bounds_.size() - 1);
  for (size_t k = 0; k + 1 < bounds_.size(); ++k) {
    i64 addr = bounds_[k];
    int best = -1;
    i64 best_size = 0;
    for (size_t i = 0; i < ranges_.size(); ++i) {
      const AddrRange& r = ranges_[i];
      if (addr < r.lo || addr >= r.hi) continue;
      if (best < 0 || r.size() < best_size) {
        best = static_cast<int>(i);
        best_size = r.size();
      }
    }
    owner_[k] = best;
  }
}

void ConflictCollector::grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t cap = old.empty() ? 1024 : 2 * old.size();
  slots_.assign(cap, Slot{});
  shift_ = 64 - std::countr_zero(cap);
  size_ = 0;
  for (const Slot& s : old)
    if (s.key != kEmpty) add(s.key, s.weight);
}

ConflictEdge ConflictCollector::unpack(u64 key, u64 weight) {
  const u64 proc_mask = (u64{1} << kProcBits) - 1;
  const i64 writer = static_cast<i64>(key >> kWordShift);
  const i64 delta = static_cast<i64>((key >> kDeltaShift) &
                                     ((u64{1} << kDeltaBits) - 1)) -
                    kMaxDelta;
  return {writer * 4, (writer + delta) * 4,
          static_cast<int>((key >> kProcBits) & proc_mask),
          static_cast<int>(key & proc_mask), weight};
}

ConflictGraph ConflictCollector::graph(i64 block_size) const {
  FSOPT_CHECK(block_size > 0 && (block_size & (block_size - 1)) == 0,
              "conflict graph block size must be a power of two");
  const int bshift = std::countr_zero(static_cast<u64>(block_size));
  // Bucket by the victim word (the missing side).  Both endpoints of a
  // false-sharing conflict normally lie in one block, which makes key
  // order line-major already; the line leads the sort key anyway, so a
  // victim whose reference spans two blocks still lands in its own line.
  struct Edge {
    i64 line;
    u64 key;
    u64 weight;
  };
  std::vector<Edge> edges;
  edges.reserve(size_);
  for (const Slot& s : slots_)
    if (s.key != kEmpty)
      edges.push_back({unpack(s.key, 0).victim_word >> bshift, s.key,
                       s.weight});
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.line != b.line ? a.line < b.line : a.key < b.key;
  });

  ConflictGraph g;
  g.block_size = block_size;
  for (const Edge& e : edges) {
    if (g.lines.empty() || g.lines.back().line != e.line)
      g.lines.push_back({e.line, {}});
    g.lines.back().edges.push_back(unpack(e.key, e.weight));
  }
  return g;
}

namespace {

void write_endpoint(json::Writer& w, const char* prefix, i64 word, int proc,
                    const AddressMap* map) {
  w.key(std::string(prefix) + "_word").value(word);
  w.key(std::string(prefix) + "_proc").value(proc);
  if (map != nullptr) {
    int idx = map->index_of(word);
    if (idx >= 0) {
      const AddrRange& r = map->ranges()[static_cast<size_t>(idx)];
      w.key(std::string(prefix) + "_datum").value(r.name);
      w.key(std::string(prefix) + "_offset").value(word - r.lo);
    }
  }
}

}  // namespace

std::string conflict_graph_to_json(const ConflictGraph& graph,
                                   const AddressMap* map) {
  std::string out;
  json::Writer w(&out, 2);
  w.begin_object();
  w.key("block_size").value(graph.block_size);
  w.key("total_weight").value(graph.total_weight());
  w.key("lines").begin_array();
  for (const LineConflicts& l : graph.lines) {
    w.begin_object();
    w.key("line").value(l.line);
    w.key("base").value(l.line * graph.block_size);
    w.key("weight").value(l.weight());
    w.key("edges").begin_array();
    for (const ConflictEdge& e : l.edges) {
      w.begin_object();
      write_endpoint(w, "writer", e.writer_word, e.writer_proc, map);
      write_endpoint(w, "victim", e.victim_word, e.victim_proc, map);
      w.key("weight").value(e.weight);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace fsopt
