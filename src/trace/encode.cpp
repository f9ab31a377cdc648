#include "trace/encode.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/obs.h"

namespace fsopt {

namespace {

// LEB128 varints with zigzag for signed deltas.  The codec is a hot
// record-time path, so the common one-byte case stays branch-light.

inline void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

inline u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  int shift = 0;
  while (true) {
    FSOPT_CHECK(p != end, "truncated varint in encoded trace chunk");
    u8 b = *p++;
    v |= static_cast<u64>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    FSOPT_CHECK(shift < 64, "overlong varint in encoded trace chunk");
  }
}

inline u64 zigzag(i64 v) {
  return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63);
}

inline i64 unzigzag(u64 v) {
  return static_cast<i64>((v >> 1) ^ (~(v & 1) + 1));
}

// Packed meta byte: proc in the high 6 bits, then the write bit, then
// the 8-byte-size bit.  decode is pack's exact inverse.
inline u8 pack_meta(const MemRef& r) {
  return static_cast<u8>((static_cast<u8>(r.proc) << 2) |
                         (r.type == RefType::kWrite ? 2 : 0) |
                         (r.size == 8 ? 1 : 0));
}

}  // namespace

u64 EncodedTrace::memory_bytes() const {
  u64 total = 0;
  for (const EncodedChunk& c : chunks_)
    total += sizeof(EncodedChunk) + c.meta.size() + c.addr.size();
  return total;
}

namespace {

/// Resumable decoder over one chunk: yields the stream in caller-sized
/// batches without materializing the whole chunk.
struct ChunkCursor {
  const EncodedChunk& c;
  const u8 *mp, *mend, *ap, *aend;
  i64 last_addr[TraceEncoder::kMaxProcs] = {};
  u32 decoded = 0;
  MemRef run_ref{};   // meta of the open run
  u64 run_left = 0;

  explicit ChunkCursor(const EncodedChunk& ch)
      : c(ch),
        mp(ch.meta.data()),
        mend(ch.meta.data() + ch.meta.size()),
        ap(ch.addr.data()),
        aend(ch.addr.data() + ch.addr.size()) {}

  bool done() const { return decoded == c.refs; }

  /// Decode up to `cap` references into `out`; returns the count.
  size_t next(MemRef* out, size_t cap) {
    size_t n = 0;
    while (n < cap && decoded < c.refs) {
      if (run_left == 0) {
        FSOPT_CHECK(mp != mend,
                    "truncated meta column in encoded trace chunk");
        u8 meta = *mp++;
        run_left = get_varint(mp, mend);
        FSOPT_CHECK(run_left > 0 && decoded + run_left <= c.refs,
                    "corrupt run length in encoded trace chunk");
        run_ref.proc = static_cast<u8>(meta >> 2);
        run_ref.type = (meta & 2) != 0 ? RefType::kWrite : RefType::kRead;
        run_ref.size = (meta & 1) != 0 ? 8 : 4;
      }
      i64& last = last_addr[run_ref.proc];
      const u64 take = std::min<u64>(run_left, cap - n);
      u64 done = 0;
      // SWAR fast path: most address deltas are one byte (|delta| < 64
      // after zigzag), so one 8-byte load whose continuation bits are
      // all clear yields eight complete varints — decoded with shifts
      // instead of eight bounds-checked byte loops.  A window with any
      // continuation bit falls back to one scalar varint, then retries
      // the fast path on the next window.
      while (done + 8 <= take && aend - ap >= 8) {
        u64 x;
        std::memcpy(&x, ap, 8);
        if ((x & 0x8080808080808080ull) == 0) {
          ap += 8;
          for (int j = 0; j < 8; ++j) {
            last += unzigzag((x >> (8 * j)) & 0xFF);
            run_ref.addr = last;
            out[n++] = run_ref;
          }
          done += 8;
        } else {
          last += unzigzag(get_varint(ap, aend));
          run_ref.addr = last;
          out[n++] = run_ref;
          ++done;
        }
      }
      for (; done < take; ++done) {
        last += unzigzag(get_varint(ap, aend));
        run_ref.addr = last;
        out[n++] = run_ref;
      }
      run_left -= take;
      decoded += static_cast<u32>(take);
    }
    if (done())
      FSOPT_CHECK(mp == mend && ap == aend && run_left == 0,
                  "trailing bytes in encoded trace chunk");
    return n;
  }
};

}  // namespace

void EncodedTrace::decode_chunk(size_t k, std::vector<MemRef>& out) const {
  const EncodedChunk& c = chunks_[k];
  out.resize(c.refs);
  ChunkCursor cur(c);
  const size_t n = cur.next(out.data(), c.refs);
  FSOPT_CHECK(n == c.refs && cur.done(),
              "corrupt run length in encoded trace chunk");
}

void EncodedTrace::replay(TraceSink& sink) const {
  std::vector<MemRef> scratch(kReplayBatchRefs);
  for (const EncodedChunk& c : chunks_) {
    ChunkCursor cur(c);
    while (!cur.done()) {
      const size_t n = cur.next(scratch.data(), scratch.size());
      if (n != 0) sink.on_batch(scratch.data(), n);
    }
  }
}

void EncodedTrace::replay_pipelined(TraceSink& sink) const {
  if (chunks_.size() < 2 || std::thread::hardware_concurrency() < 2) {
    // Nothing to overlap (or no spare hardware thread to decode on):
    // the serial path is the same stream without the hand-off cost.
    replay(sink);
    return;
  }

  // Two rotating chunk buffers: the decoder fills one while the
  // consumer slices the other into replay()-identical sub-batches.
  // The buffers persist across chunks, so after the first two fills
  // the pipeline allocates nothing.
  struct Slot {
    std::vector<MemRef> refs;
    size_t n = 0;
    bool full = false;
  };
  Slot slots[2];
  std::mutex mu;
  std::condition_variable cv_full, cv_free;
  bool decoder_done = false;
  bool aborted = false;
  std::exception_ptr decoder_err;

  std::thread decoder([&] {
    try {
      size_t which = 0;
      for (const EncodedChunk& c : chunks_) {
        Slot& s = slots[which];
        {
          std::unique_lock<std::mutex> lk(mu);
          cv_free.wait(lk, [&] { return !s.full || aborted; });
          if (aborted) break;
        }
        obs::Span span("replay", "decode_chunk");
        s.refs.resize(c.refs);
        ChunkCursor cur(c);
        const size_t n = cur.next(s.refs.data(), c.refs);
        FSOPT_CHECK(n == c.refs && cur.done(),
                    "corrupt run length in encoded trace chunk");
        s.n = n;
        if (span.active()) span.arg("refs", static_cast<double>(n));
        {
          std::lock_guard<std::mutex> lk(mu);
          s.full = true;
        }
        cv_full.notify_one();
        which ^= 1;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu);
      decoder_err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      decoder_done = true;
    }
    cv_full.notify_one();
  });

  size_t which = 0;
  size_t chunks_left = chunks_.size();
  try {
    while (chunks_left > 0) {
      Slot& s = slots[which];
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_full.wait(lk, [&] { return s.full || decoder_done; });
        if (!s.full) break;  // decoder died; its error is rethrown below
      }
      obs::Span span("replay", "sim_chunk");
      for (size_t off = 0; off < s.n; off += kReplayBatchRefs)
        sink.on_batch(s.refs.data() + off,
                      std::min(kReplayBatchRefs, s.n - off));
      if (span.active()) span.arg("refs", static_cast<double>(s.n));
      {
        std::lock_guard<std::mutex> lk(mu);
        s.full = false;
      }
      cv_free.notify_one();
      which ^= 1;
      --chunks_left;
    }
  } catch (...) {
    // The sink threw mid-stream; release the decoder (it may be
    // blocked on a free slot) and propagate the sink's error.
    {
      std::lock_guard<std::mutex> lk(mu);
      aborted = true;
    }
    cv_free.notify_all();
    decoder.join();
    throw;
  }
  decoder.join();
  if (decoder_err) std::rethrow_exception(decoder_err);
}

TraceEncoder::TraceEncoder(size_t chunk_refs)
    : chunk_refs_(chunk_refs) {
  FSOPT_CHECK(chunk_refs_ > 0, "TraceEncoder chunk size must be > 0");
  std::memset(last_addr_, 0, sizeof(last_addr_));
}

void TraceEncoder::flush_run() {
  if (run_len_ == 0) return;
  cur_.meta.push_back(run_meta_);
  put_varint(cur_.meta, run_len_);
  run_len_ = 0;
}

void TraceEncoder::append(const MemRef* refs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const MemRef& r = refs[i];
    FSOPT_CHECK(static_cast<size_t>(r.proc) < kMaxProcs,
                "trace encoder supports at most 64 processors");
    FSOPT_CHECK(r.size == 4 || r.size == 8,
                "trace encoder supports 4- and 8-byte references");
    u8 meta = pack_meta(r);
    if (run_len_ > 0 && meta != run_meta_) flush_run();
    run_meta_ = meta;
    ++run_len_;
    i64& last = last_addr_[r.proc];
    put_varint(cur_.addr, zigzag(r.addr - last));
    last = r.addr;
    if (++cur_.refs == chunk_refs_) {
      flush_run();
      cur_.meta.shrink_to_fit();
      cur_.addr.shrink_to_fit();
      out_.chunks_.push_back(std::move(cur_));
      cur_ = EncodedChunk{};
      std::memset(last_addr_, 0, sizeof(last_addr_));
    }
    ++out_.size_;
  }
}

EncodedTrace TraceEncoder::take() {
  flush_run();
  if (cur_.refs > 0) {
    cur_.meta.shrink_to_fit();
    cur_.addr.shrink_to_fit();
    out_.chunks_.push_back(std::move(cur_));
    cur_ = EncodedChunk{};
  }
  std::memset(last_addr_, 0, sizeof(last_addr_));
  EncodedTrace done = std::move(out_);
  done.chunk_refs_ = chunk_refs_;
  out_ = EncodedTrace{};
  return done;
}

EncodedTrace encode_trace(const TraceBuffer& trace, size_t chunk_refs) {
  TraceEncoder enc(chunk_refs);
  trace.replay(enc);
  return enc.take();
}

}  // namespace fsopt
