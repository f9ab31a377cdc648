// The benchmark's three workloads, one per fsopt user workflow.
//
//   study    the paper's §4 simulation study: every workload_matrix_jobs
//            variant is compiled, recorded and replayed at the seven
//            paper block sizes with per-datum attribution;
//   search   search_plan (graph-repair seed, budget 12) on every program,
//            the S column of bench_repair_loop;
//   speedup  baseline_cycles plus a speedup_sweep of the C version over
//            all nine Table-3 processor counts under the KSR timing model.
//
// A workload is a list of units, run one after another in a closed loop
// by a single client thread; the library fans each unit out to at most
// the harness thread count.  Inputs (NPROCS overrides, program order,
// the block size or processor count a check re-runs) come from the seed
// and nothing else.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accounting.h"
#include "support/common.h"
#include "support/json.h"

namespace fsbench {

using fsopt::i64;

/// Layer probes the traced run makes with the benchmark's own calls,
/// after a unit's timed region.
struct Probe {
  double interp_s = 0.0;       // run_program without a sink
  u64 interp_instructions = 0;
  u64 interp_refs = 0;
  double record_s = 0.0;       // record_encoded_trace of the same program
  double replay_serial_s = 0.0;    // replay_trace_study at 1 thread
  double replay_parallel_s = 0.0;  // ... and at the harness thread count
};

/// What one unit produced in one pass.
struct UnitOutcome {
  Window window;  // the timed region on the obs clock
  double seconds() const {
    return static_cast<double>(window.t1 - window.t0) * 1e-9;
  }
  /// Canonical rendering of every simulated result; must repeat exactly
  /// in every pass.
  std::string sim;
  u64 fs_misses = 0;      // false-sharing misses summed over block sizes
  double speedup = 0.0;   // peak speedup (speedup workload)
  /// The unit's simulated figures for its detail row, in print order.
  std::vector<std::pair<std::string, double>> row;
  /// Deterministic work counts (search.replays, ksr.instructions, ...).
  std::map<std::string, double> counts;
  /// Failed output checks; non-empty makes the unit a failure.
  std::vector<std::string> problems;
};

class Workflow {
 public:
  virtual ~Workflow() = default;

  virtual size_t size() const = 0;
  virtual std::string label(size_t unit) const = 0;
  /// Write the seeded inputs as one JSON object.
  virtual void write_inputs(fsopt::json::Writer& w) const = 0;
  /// Does this unit's fs_misses count towards the fs_misses metric?
  virtual bool counts_fs(size_t /*unit*/) const { return true; }

  /// Run one unit.  `check` adds the output checks and `probe` (when
  /// non-null) the layer probes; both run after the timed region.
  virtual UnitOutcome run(size_t unit, bool check, Probe* probe) = 0;
};

/// Build the named workload ("study", "search", "speedup") for `seed`,
/// fanning out to `threads` workers.  Returns null for an unknown name.
std::unique_ptr<Workflow> make_workflow(const std::string& name, u64 seed,
                                        int threads);

}  // namespace fsbench
