// Critical-path accounting of one traced benchmark pass.
//
// The benchmark wraps every call it makes into the library in an
// obs::Span of category "bench" (front, back, record, replay, search,
// baseline, sweep; the whole timed unit is "unit").  Inside those calls
// the library records its own spans: "pass" per compile pass, "record",
// "replay", "sweep" per timed compile+run job, and "pool" per worker job.
// account() folds both into per-layer self times over the timed windows:
//
//   * While the benchmark's thread is inside a library span, the time
//     belongs to that span's layer.
//   * While it is only inside a benchmark wrapper it is waiting for, or
//     doing untracked work of, that call.  If worker threads are inside
//     spans, the time is split evenly among them by their innermost
//     span's layer; a worker inside nothing more specific than its pool
//     job works for the wrapper's layer.  With no worker busy the time
//     goes to the wrapper's layer.
//   * Time inside a window but outside every span is "unaccounted".
//
// Every nanosecond of every window lands in exactly one layer, so the
// layer times sum to the windows' total length.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "obs/obs.h"

namespace fsbench {

using fsopt::u32;
using fsopt::u64;

enum class Layer : int {
  kFront,        // compile front half: parse, sema
  kBack,         // compile back half: analysis, planning, layout, codegen
  kRecord,       // trace-mode interpretation + trace encoding
  kReplay,       // cache-simulator replay
  kSearch,       // plan search and repair-loop bookkeeping (self time)
  kKsr,          // interpretation under the KSR timing model
  kUnaccounted,  // inside a timed unit, outside every span
  kCount,
};

constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

const char* layer_name(Layer layer);

/// A timed interval on the obs clock (obs::now_ns), [t0, t1).
struct Window {
  u64 t0 = 0;
  u64 t1 = 0;
};

struct LayerTimes {
  std::array<double, kLayers> seconds{};

  double& operator[](Layer l) { return seconds[static_cast<size_t>(l)]; }
  double operator[](Layer l) const {
    return seconds[static_cast<size_t>(l)];
  }
  double total() const;
};

/// Self time per layer over `windows` (sorted, disjoint), taking
/// `main_tid` as the thread that issued the benchmark's calls.
LayerTimes account(const fsopt::obs::TraceData& data, u32 main_tid,
                   const std::vector<Window>& windows);

/// True when `t` lies in one of the sorted, disjoint `windows`.
bool in_windows(const std::vector<Window>& windows, u64 t);

}  // namespace fsbench
