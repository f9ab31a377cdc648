#include "interp/machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

namespace fsopt {

namespace {

// Barrier word indices within the runtime region; each word sits at
// barrier_base + index * barrier_stride (stride 4 = the packed layout).
constexpr i64 kBarLock = 0;
constexpr i64 kBarCount = 1;
constexpr i64 kBarSense = 2;

// Instructions a processor runs before it yields to the scheduler even
// without spending time on memory.  The yield points are part of the
// schedule: changing this constant changes every interleaving.
constexpr u64 kYield = 256;

// Initial operand-stack slots per processor; push grows it on demand.
constexpr size_t kInitialStack = 64;

double as_real(i64 bits) { return std::bit_cast<double>(bits); }
i64 as_bits(double v) { return std::bit_cast<i64>(v); }

// Two's-complement wrapping arithmetic: PPL ints are 64-bit machine words.
i64 wrap_add(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}
i64 wrap_sub(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b));
}
i64 wrap_mul(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
}

// Every error leaves the hot loop through this one out-of-line call, so
// the checks on the fast path are a compare and a never-taken branch.
[[noreturn]] [[gnu::noinline, gnu::cold]] void fail(const char* msg) {
  throw InternalError(msg);
}

// Double `stack`'s storage; returns the relocated stack pointer.
[[gnu::noinline]] i64* grow(std::vector<i64>& stack, i64* sp) {
  size_t depth = static_cast<size_t>(sp - stack.data());
  stack.resize(stack.size() * 2);
  return stack.data() + depth;
}

}  // namespace

Machine::Machine(const CodeImage& img, const MachineOptions& opt)
    : img_(img), opt_(opt), mem_(static_cast<size_t>(img.total_bytes), 0) {
  FSOPT_CHECK(img.main_func >= 0, "code image has no main");
  // Processor ids are 8 bits wide in MemRef and in run()'s scheduling keys.
  FSOPT_CHECK(img.nprocs <= 256, "more than 256 processors");
  // step() indexes its handler table by opcode, and a call copies its
  // arguments into the callee's locals.
  for (const Instr& in : img.code)
    FSOPT_CHECK(in.op <= Op::kHalt, "invalid opcode in code image");
  for (const FuncInfo& f : img.funcs)
    FSOPT_CHECK(f.nparams >= 0 && f.nparams <= f.nlocals,
                "function has more parameters than locals");
  if (opt_.sink != nullptr) {
    FSOPT_CHECK(opt_.sink_batch > 0, "sink_batch must be > 0");
    stage_.resize(opt_.sink_batch);
  }
  procs_.resize(static_cast<size_t>(img.nprocs));
  const FuncInfo& mf = img.funcs[static_cast<size_t>(img.main_func)];
  for (size_t p = 0; p < procs_.size(); ++p) {
    Proc& pr = procs_[p];
    pr.id = static_cast<int>(p);
    pr.pc = mf.entry_pc;
    pr.stack.resize(kInitialStack);
    pr.locals.assign(static_cast<size_t>(mf.nlocals), 0);
    if (mf.nparams >= 1) pr.locals[0] = static_cast<i64>(p);  // pid
    pr.frames.push_back({-1, 0, pr.locals.size()});
  }
}

i64 Machine::load_scalar(i64 addr, i64 size) const {
  FSOPT_CHECK(addr >= 0 && addr + size <= static_cast<i64>(mem_.size()),
              "simulated address out of range");
  if (size == 4) {
    i32 v;
    std::memcpy(&v, mem_.data() + addr, 4);
    return v;
  }
  i64 v;
  std::memcpy(&v, mem_.data() + addr, 8);
  return v;
}

void Machine::store_scalar(i64 addr, i64 size, i64 bits) {
  FSOPT_CHECK(addr >= 0 && addr + size <= static_cast<i64>(mem_.size()),
              "simulated address out of range");
  if (size == 4) {
    i32 v = static_cast<i32>(bits);
    std::memcpy(mem_.data() + addr, &v, 4);
  } else {
    std::memcpy(mem_.data() + addr, &bits, 8);
  }
}

i64 Machine::load_int(i64 addr) const { return load_scalar(addr, 4); }
double Machine::load_real(i64 addr) const {
  return as_real(load_scalar(addr, 8));
}

i64 Machine::ref(Proc& p, i64 addr, i64 size, bool is_write) {
  ++refs_;
  if (opt_.sink != nullptr) {
    // Stage rather than dispatch: one virtual on_batch call per
    // opt_.sink_batch references instead of one on_ref per reference.
    // The global scheduler order *is* the trace order, so a single
    // staging buffer preserves the exact per-reference stream.
    stage_[staged_] = {addr, static_cast<u8>(size), static_cast<u8>(p.id),
                       is_write ? RefType::kWrite : RefType::kRead};
    if (++staged_ == stage_.size()) flush_stage();
  }
  if (opt_.memsys == nullptr) return 2;  // trace mode: uniform latency
  return opt_.memsys->access(p.id, addr, size, is_write, p.time);
}

void Machine::flush_stage() {
  if (staged_ == 0) return;
  opt_.sink->on_batch(stage_.data(), staged_);
  staged_ = 0;
}

void Machine::exec_access(Proc& p, const Instr& in) {
  const AccessPlan& plan = img_.plans[static_cast<size_t>(in.a)];
  bool is_store = in.op == Op::kStoreG;
  i64 value = 0;
  if (is_store) {
    if (p.depth == 0) fail("operand stack underflow");
    value = p.stack[--p.depth];
  }
  size_t n = plan.dims.size();
  if (p.depth < n) fail("operand stack underflow at access");
  const i64* idx = p.stack.data() + (p.depth - n);
  i64 addr = plan.address(idx);
  if (plan.indirection.has_value()) {
    // Extra pointer-slot load: the run-time cost of indirection.
    i64 slot = plan.pointer_slot(idx);
    p.time += ref(p, slot, 8, false);
  }
  p.depth -= n;
  if (is_store) {
    store_scalar(addr, plan.size, value);
    p.time += ref(p, addr, plan.size, true);
  } else {
    // With no index popped, the loaded value may not fit.
    if (p.depth == p.stack.size()) grow(p.stack, p.stack.data() + p.depth);
    p.stack[p.depth++] = load_scalar(addr, plan.size);
    p.time += ref(p, addr, plan.size, false);
  }
  ++p.pc;
}

void Machine::exec_sync(Proc& p, const Instr& in) {
  // Exponential poll backoff shared by lock and barrier spins.
  auto spin_wait = [this, &p]() {
    if (p.backoff == 0) p.backoff = opt_.spin_interval;
    p.time += p.backoff;
    p.backoff = std::min(p.backoff * 2,
                         opt_.spin_interval * opt_.spin_backoff_max);
  };
  if (in.op == Op::kBarrier) {
    switch (p.bar_stage) {
      case 0: {  // arrive: flip local sense, try to take the barrier lock
        if (p.wait == Wait::kNone) {
          p.bar_sense ^= 1;
          p.wait = Wait::kBarrier;
        }
        i64 lock_addr = img_.barrier_base + kBarLock * img_.barrier_stride;
        p.time += ref(p, lock_addr, 4, false);
        if (load_scalar(lock_addr, 4) == 0) {
          store_scalar(lock_addr, 4, 1);
          p.time += ref(p, lock_addr, 4, true);
          p.bar_stage = 1;
          p.backoff = 0;
        } else {
          spin_wait();
        }
        return;
      }
      case 1: {  // lock held: bump the count, maybe release everyone
        i64 count_addr = img_.barrier_base + kBarCount * img_.barrier_stride;
        i64 lock_addr = img_.barrier_base + kBarLock * img_.barrier_stride;
        p.time += ref(p, count_addr, 4, false);
        i64 c = load_scalar(count_addr, 4) + 1;
        bool last = c == img_.nprocs;
        store_scalar(count_addr, 4, last ? 0 : c);
        p.time += ref(p, count_addr, 4, true);
        if (last) {
          i64 sense_addr = img_.barrier_base + kBarSense * img_.barrier_stride;
          store_scalar(sense_addr, 4, p.bar_sense);
          p.time += ref(p, sense_addr, 4, true);
        }
        store_scalar(lock_addr, 4, 0);
        p.time += ref(p, lock_addr, 4, true);
        if (last) {
          p.bar_stage = 0;
          p.wait = Wait::kNone;
          ++p.pc;
        } else {
          p.bar_stage = 2;
        }
        return;
      }
      case 2: {  // spin on the sense word
        i64 sense_addr = img_.barrier_base + kBarSense * img_.barrier_stride;
        p.time += ref(p, sense_addr, 4, false);
        if (load_scalar(sense_addr, 4) == p.bar_sense) {
          p.bar_stage = 0;
          p.wait = Wait::kNone;
          p.backoff = 0;
          ++p.pc;
        } else {
          spin_wait();
        }
        return;
      }
      default:
        FSOPT_CHECK(false, "bad barrier stage");
    }
  }

  // Lock / unlock.
  const AccessPlan& plan = img_.plans[static_cast<size_t>(in.a)];
  if (in.op == Op::kLock) {
    if (p.wait == Wait::kNone) {
      // First visit: pop the index values and remember the address.
      size_t n = plan.dims.size();
      if (p.depth < n) fail("stack underflow at lock");
      p.lock_addr = plan.address(p.stack.data() + (p.depth - n));
      p.depth -= n;
      p.wait = Wait::kLockSpin;
    }
    p.time += ref(p, p.lock_addr, 4, false);
    if (load_scalar(p.lock_addr, 4) == 0) {
      store_scalar(p.lock_addr, 4, 1);
      p.time += ref(p, p.lock_addr, 4, true);
      p.wait = Wait::kNone;
      p.backoff = 0;
      ++p.pc;
    } else {
      spin_wait();
    }
    return;
  }
  FSOPT_CHECK(in.op == Op::kUnlock, "unexpected sync op");
  size_t n = plan.dims.size();
  if (p.depth < n) fail("stack underflow at unlock");
  i64 addr = plan.address(p.stack.data() + (p.depth - n));
  p.depth -= n;
  store_scalar(addr, 4, 0);
  p.time += ref(p, addr, 4, true);
  ++p.pc;
}

void Machine::step(Proc& p) {
  // Execute instructions until this processor spends simulated time on a
  // memory reference / sync, halts, or has run kYield instructions.  Plain
  // ALU work costs 1 cycle per instruction.
  //
  // The processor's pc, clock, operand-stack pointer and locals base live
  // in locals for the whole batch, and so does this batch's instruction
  // count; SAVE() writes them back before every exit and every throw.
  // `limit` folds the yield point and the instruction budget into one
  // compare: the budget throws before instruction max_instructions + 1,
  // exactly where a per-instruction check would.
  //
  // Dispatch is threaded (GNU labels as values): every handler ends with
  // its own indirect jump to the next instruction's handler.  The branch
  // predictor learns each of those jumps separately, which on the
  // workload matrix runs about 20% faster than one shared switch jump.
  static const void* const kHandlers[] = {
      &&push, &&push, &&load_l, &&store_l, &&access, &&access,
      &&add_i, &&sub_i, &&mul_i, &&div_i, &&rem_i, &&neg_i, &&not_i,
      &&eq_i, &&ne_i, &&lt_i, &&le_i, &&gt_i, &&ge_i,
      &&add_r, &&sub_r, &&mul_r, &&div_r, &&neg_r,
      &&eq_r, &&ne_r, &&lt_r, &&le_r, &&gt_r, &&ge_r,
      &&jmp, &&jz, &&call, &&ret, &&pop,
      &&sync, &&sync, &&sync,
      &&lcg, &&abs_i, &&abs_r, &&min_i, &&max_i, &&min_r, &&max_r,
      &&itor, &&rtoi, &&sqrt, &&halt,
  };
  // Indexed by Op: one entry per opcode, in interp/bytecode.h's order
  // (a misordered entry breaks every interpreter test).
  static_assert(std::size(kHandlers) == static_cast<size_t>(Op::kHalt) + 1);

  const Instr* const code = img_.code.data();
  const Instr* in = nullptr;
  int pc = p.pc;
  i64 time = p.time;
  i64* base = p.stack.data();
  i64* end = base + p.stack.size();
  i64* sp = base + p.depth;
  i64* lp = p.locals.data() + p.frames.back().base;
  const u64 limit = std::min(kYield, opt_.max_instructions - instructions_);
  u64 n = 0;

#define SAVE()                                  \
  do {                                          \
    p.pc = pc;                                  \
    p.time = time;                              \
    p.depth = static_cast<size_t>(sp - base);   \
    instructions_ += n;                         \
  } while (0)
#define DISPATCH()                              \
  do {                                          \
    if (n == limit) goto yield;                 \
    ++n;                                        \
    in = &code[pc];                             \
    goto* kHandlers[static_cast<u8>(in->op)];   \
  } while (0)
// Finish an instruction that costs one cycle and falls through.
#define NEXT()                                  \
  do {                                          \
    ++pc;                                       \
    ++time;                                     \
    DISPATCH();                                 \
  } while (0)
#define NEED(k)                                 \
  do {                                          \
    if (sp < base + (k)) [[unlikely]] {         \
      SAVE();                                   \
      fail("operand stack underflow");          \
    }                                           \
  } while (0)
#define PUSH(v)                                 \
  do {                                          \
    i64 v_ = (v);                               \
    if (sp == end) [[unlikely]] {               \
      sp = grow(p.stack, sp);                   \
      base = p.stack.data();                    \
      end = base + p.stack.size();              \
    }                                           \
    *sp++ = v_;                                 \
  } while (0)
// Operators on the top of stack: a binary op reads a (second from top)
// and b (top) and leaves one result; a unary op replaces a (top).
#define BINARY_I(expr)                          \
  {                                             \
    NEED(2);                                    \
    i64 a = sp[-2], b = sp[-1];                 \
    sp[-2] = (expr);                            \
    --sp;                                       \
    NEXT();                                     \
  }
#define BINARY_R(expr)                          \
  {                                             \
    NEED(2);                                    \
    double a = as_real(sp[-2]);                 \
    double b = as_real(sp[-1]);                 \
    sp[-2] = (expr);                            \
    --sp;                                       \
    NEXT();                                     \
  }
#define UNARY_I(expr)                           \
  {                                             \
    NEED(1);                                    \
    i64 a = sp[-1];                             \
    sp[-1] = (expr);                            \
    NEXT();                                     \
  }
#define UNARY_R(expr)                           \
  {                                             \
    NEED(1);                                    \
    double a = as_real(sp[-1]);                 \
    sp[-1] = (expr);                            \
    NEXT();                                     \
  }

  DISPATCH();

push:
  PUSH(in->a);
  NEXT();
load_l:
  PUSH(lp[in->a]);
  NEXT();
store_l:
  NEED(1);
  lp[in->a] = *--sp;
  NEXT();
access:
  SAVE();
  exec_access(p, *in);
  return;  // spent simulated time; yield to the scheduler
add_i: BINARY_I(wrap_add(a, b))
sub_i: BINARY_I(wrap_sub(a, b))
mul_i: BINARY_I(wrap_mul(a, b))
div_i:
  NEED(2);
  if (sp[-1] == 0) {
    SAVE();
    fail("integer division by zero");
  }
  sp[-2] /= sp[-1];
  --sp;
  NEXT();
rem_i:
  NEED(2);
  if (sp[-1] == 0) {
    SAVE();
    fail("integer modulo by zero");
  }
  sp[-2] %= sp[-1];
  --sp;
  NEXT();
neg_i: UNARY_I(wrap_sub(0, a))
not_i: UNARY_I(a == 0 ? 1 : 0)
eq_i: BINARY_I(a == b ? 1 : 0)
ne_i: BINARY_I(a != b ? 1 : 0)
lt_i: BINARY_I(a < b ? 1 : 0)
le_i: BINARY_I(a <= b ? 1 : 0)
gt_i: BINARY_I(a > b ? 1 : 0)
ge_i: BINARY_I(a >= b ? 1 : 0)
add_r: BINARY_R(as_bits(a + b))
sub_r: BINARY_R(as_bits(a - b))
mul_r: BINARY_R(as_bits(a * b))
div_r: BINARY_R(as_bits(a / b))
neg_r: UNARY_R(as_bits(-a))
eq_r: BINARY_R(a == b ? 1 : 0)
ne_r: BINARY_R(a != b ? 1 : 0)
lt_r: BINARY_R(a < b ? 1 : 0)
le_r: BINARY_R(a <= b ? 1 : 0)
gt_r: BINARY_R(a > b ? 1 : 0)
ge_r: BINARY_R(a >= b ? 1 : 0)
jmp:
  pc = static_cast<int>(in->a);
  ++time;
  DISPATCH();
jz:
  NEED(1);
  pc = *--sp == 0 ? static_cast<int>(in->a) : pc + 1;
  ++time;
  DISPATCH();
call: {
  const FuncInfo& f = img_.funcs[static_cast<size_t>(in->a)];
  NEED(f.nparams);
  size_t fbase = p.frames.back().end;
  size_t fend = fbase + static_cast<size_t>(f.nlocals);
  if (fend > p.locals.size()) p.locals.resize(fend);
  lp = p.locals.data() + fbase;
  std::fill(lp, lp + f.nlocals, 0);
  sp -= f.nparams;
  std::copy(sp, sp + f.nparams, lp);
  p.frames.push_back({pc + 1, fbase, fend});
  pc = f.entry_pc;
  ++time;
  DISPATCH();
}
ret: {
  // The return value (if any) is already on the shared operand stack;
  // frames only hold locals.
  int ret_pc = p.frames.back().ret_pc;
  p.frames.pop_back();
  if (p.frames.empty()) goto halt;
  lp = p.locals.data() + p.frames.back().base;
  pc = ret_pc;
  ++time;
  DISPATCH();
}
pop:
  NEED(1);
  --sp;
  NEXT();
sync:
  SAVE();
  exec_sync(p, *in);
  return;  // sync ops always spend time
lcg: UNARY_I(wrap_add(wrap_mul(a, 1103515245), 12345) & 0x7fffffff)
abs_i: UNARY_I(a < 0 ? wrap_sub(0, a) : a)
abs_r: UNARY_R(as_bits(std::fabs(a)))
min_i: BINARY_I(std::min(a, b))
max_i: BINARY_I(std::max(a, b))
min_r: BINARY_R(as_bits(std::min(a, b)))
max_r: BINARY_R(as_bits(std::max(a, b)))
itor: UNARY_I(as_bits(static_cast<double>(a)))
rtoi: UNARY_R(static_cast<i64>(a))
sqrt: UNARY_R(as_bits(std::sqrt(a)))
halt:
  p.halted = true;
  SAVE();
  return;
yield:
  SAVE();
  if (limit < kYield) fail("instruction budget exceeded (runaway program?)");

#undef SAVE
#undef DISPATCH
#undef NEXT
#undef NEED
#undef PUSH
#undef BINARY_I
#undef BINARY_R
#undef UNARY_I
#undef UNARY_R
}

void Machine::run() {
  // Each processor's scheduling key packs its clock above its id, so one
  // integer compare applies the selection rule: smaller clock first, ties
  // to the lower id.  `queue` holds the keys of the live processors in
  // ascending order: queue[0] is the processor to step, queue[1] the
  // runner-up.
  auto key = [](const Proc& p) { return p.time << 8 | p.id; };
  std::vector<i64> queue;
  for (const Proc& p : procs_)
    if (!p.halted) queue.push_back(key(p));
  std::sort(queue.begin(), queue.end());
  while (!queue.empty()) {
    Proc& p = procs_[static_cast<size_t>(queue[0] & 0xff)];
    // Run ahead: stepping a processor changes no other processor's clock,
    // so p stays first for as long as its key is below the runner-up's.
    const i64 rival = queue.size() > 1 ? queue[1]
                                       : std::numeric_limits<i64>::max();
    do {
      step(p);
    } while (!p.halted && key(p) < rival);
    if (p.halted) {
      queue.erase(queue.begin());
      continue;
    }
    // p's key only grew: move it back past every smaller key.
    const i64 k = key(p);
    size_t i = 1;
    for (; i < queue.size() && queue[i] < k; ++i) queue[i - 1] = queue[i];
    queue[i - 1] = k;
  }
  flush_stage();
}

i64 Machine::finish_cycles() const {
  i64 t = 0;
  for (const Proc& p : procs_) t = std::max(t, p.time);
  return t;
}

i64 Machine::proc_cycles(int p) const {
  return procs_[static_cast<size_t>(p)].time;
}

}  // namespace fsopt
