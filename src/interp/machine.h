// Event-driven multiprocessor interpreter.
//
// P logical processors execute the same bytecode (SPMD) over one simulated
// shared memory.  The scheduler always advances the processor with the
// smallest local clock (ties: lowest id), so lock handoffs, barrier
// arrivals and memory contention resolve in simulated-time order and runs
// are deterministic.  A processor runs until it spends simulated time on a
// shared reference or a sync op, or after 256 plain instructions; only
// then does the scheduler choose again, and it keeps the same processor
// for as long as that processor would still win the choice (run-ahead).
// Locks are test-and-test-and-set spins on shared words; the barrier is a
// central sense-reversing barrier — both generate real coherence traffic,
// which is what lock padding (§3.2) acts on.
#pragma once

#include "interp/bytecode.h"
#include "sim/memsys.h"
#include "trace/trace.h"

namespace fsopt {

struct MachineOptions {
  /// Timing model; null = every reference costs 2 cycles (trace mode).
  MemorySystem* memsys = nullptr;
  /// Optional trace sink receiving every shared-memory reference.
  /// References are staged internally and delivered in batches (in exact
  /// global emission order); the final partial batch is flushed when run()
  /// returns, so the sink sees the complete stream only after run().
  TraceSink* sink = nullptr;
  /// References staged per sink batch.
  size_t sink_batch = 1024;
  /// Cycles between successive polls of a busy lock / unreleased barrier.
  i64 spin_interval = 50;
  /// Exponential poll backoff cap, as a multiple of spin_interval.
  /// Test-and-test-and-set without backoff melts down under contention —
  /// both on real machines and in this simulator (poll storms across the
  /// skew window between processor clocks).
  i64 spin_backoff_max = 64;
  /// Runaway guard.
  u64 max_instructions = 2'000'000'000;
};

class Machine {
 public:
  Machine(const CodeImage& img, const MachineOptions& opt);

  /// Execute until every processor has returned from main.
  void run();

  /// Simulated completion time: the largest processor clock.
  i64 finish_cycles() const;
  i64 proc_cycles(int p) const;
  u64 instructions() const { return instructions_; }
  u64 refs() const { return refs_; }

  /// Raw access to simulated memory (for result inspection by tests and
  /// the transformation-safety checks).
  i64 load_int(i64 addr) const;
  double load_real(i64 addr) const;
  const std::vector<u8>& memory() const { return mem_; }

 private:
  struct Frame {
    int ret_pc = 0;
    size_t base = 0;  // first local slot in the processor's locals arena
    size_t end = 0;   // one past the last local slot
  };
  enum class Wait : u8 { kNone, kLockSpin, kBarrier };
  struct Proc {
    int id = 0;
    i64 time = 0;
    int pc = 0;
    bool halted = false;
    std::vector<i64> stack;   // operand stack storage; [0, depth) is live
    size_t depth = 0;
    std::vector<i64> locals;  // locals arena, indexed by Frame::base
    std::vector<Frame> frames;
    Wait wait = Wait::kNone;
    i64 lock_addr = 0;
    int bar_stage = 0;
    i64 bar_sense = 0;
    i64 backoff = 0;  // current poll interval (exponential)
  };

  void step(Proc& p);
  void exec_access(Proc& p, const Instr& in);
  void exec_sync(Proc& p, const Instr& in);
  /// Issue one shared-memory reference; returns its latency.
  i64 ref(Proc& p, i64 addr, i64 size, bool is_write);
  void flush_stage();
  void store_scalar(i64 addr, i64 size, i64 bits);
  i64 load_scalar(i64 addr, i64 size) const;

  const CodeImage& img_;
  MachineOptions opt_;
  std::vector<u8> mem_;
  std::vector<Proc> procs_;
  std::vector<MemRef> stage_;  // staged refs awaiting sink delivery
  size_t staged_ = 0;
  u64 instructions_ = 0;
  u64 refs_ = 0;
};

}  // namespace fsopt
