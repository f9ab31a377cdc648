// Compressed columnar trace storage.
//
// A raw MemRef costs 16 bytes; recorded traces of a few million
// references dominate the memory footprint of a block-size sweep, and
// re-streaming them once per cache configuration dominates its memory
// traffic.  EncodedTrace stores the same stream in independently
// decodable structure-of-arrays chunks at ~2-4 bytes per reference:
//
//   * meta column — (proc, type, size) packed into one byte and
//     run-length encoded: consecutive references by the same processor
//     with the same type and size collapse to (byte, varint count).
//   * addr column — per-processor delta encoding: each reference stores
//     the zigzag-varint difference from the *same processor's* previous
//     address.  Per-processor deltas are small (each simulated process
//     walks its own strided working set) even when the global stream
//     interleaves processors.
//
// Every chunk encodes up to chunk_refs references and resets the
// per-processor address state, so chunks decode independently and in any
// order — a replay can stream chunk by chunk through a small scratch
// buffer without ever materializing the full raw trace.
//
// TraceEncoder is a TraceSink, so the interpreter can record straight
// into the compressed form (driver record_encoded_trace) — the raw
// 16-byte stream never exists in memory.
#pragma once

#include <vector>

#include "trace/trace.h"

namespace fsopt {

/// One independently decodable run of up to chunk_refs references.
struct EncodedChunk {
  u32 refs = 0;
  std::vector<u8> meta;  // RLE (packed meta byte, varint run length)
  std::vector<u8> addr;  // per-proc delta, zigzag varint
};

/// A compressed recorded trace: decode-only once built (use TraceEncoder
/// or encode_trace to build one).  Replay is const — concurrent replays
/// and per-chunk decodes into independent sinks are safe.
class EncodedTrace {
 public:
  u64 size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t chunk_count() const { return chunks_.size(); }
  /// References in chunk `k`.
  size_t chunk_size(size_t k) const { return chunks_[k].refs; }

  /// Heap bytes held by the encoded columns.
  u64 memory_bytes() const;
  /// Average encoded bytes per reference (0 for an empty trace).
  double bytes_per_ref() const {
    return size_ == 0 ? 0.0
                      : static_cast<double>(memory_bytes()) /
                            static_cast<double>(size_);
  }

  /// Decode chunk `k` into `out` (replacing its contents).  Chunks are
  /// self-contained: any subset may be decoded, in any order, from any
  /// thread.
  void decode_chunk(size_t k, std::vector<MemRef>& out) const;

  /// Deliver the whole stream, in order, to `sink`.  Each chunk is
  /// decoded incrementally through a resumable cursor and delivered in
  /// sub-batches of kReplayBatchRefs references, so peak extra
  /// memory is a fixed small scratch buffer regardless of trace or
  /// chunk size.
  void replay(TraceSink& sink) const;

  /// replay(), with the chunk decode pipelined ahead of the sink: a
  /// decoder thread fills one of two rotating chunk buffers while the
  /// consumer walks the other, so the varint decode of chunk N+1
  /// overlaps the simulation of chunk N.  The sink sees the same
  /// stream in the same sub-batch boundaries as replay() — only the
  /// wall-clock schedule changes — and is driven from the calling
  /// thread only.  Falls back to the serial replay() when there is
  /// nothing to overlap (a single chunk) or when the host has only one
  /// hardware thread.
  void replay_pipelined(TraceSink& sink) const;

 private:
  friend class TraceEncoder;
  std::vector<EncodedChunk> chunks_;
  u64 size_ = 0;
  size_t chunk_refs_ = 0;
};

/// Streaming encoder: feed it references (it is a TraceSink), then
/// take() the finished EncodedTrace.  Chunk capacity matches
/// TraceBuffer's default so encoded and raw replays batch identically.
class TraceEncoder : public TraceSink {
 public:
  explicit TraceEncoder(size_t chunk_refs = TraceBuffer::kDefaultChunkRefs);

  void on_ref(const MemRef& ref) override { append(&ref, 1); }
  void on_batch(const MemRef* refs, size_t n) override { append(refs, n); }

  u64 size() const { return out_.size_; }

  /// Finalize and return the encoded trace; the encoder is left empty
  /// and may be reused.
  EncodedTrace take();

  /// Processors per trace (bounded by the directory's u64 sharer mask);
  /// the packed meta byte spends 6 bits on the processor id.
  static constexpr size_t kMaxProcs = 64;

 private:
  void append(const MemRef* refs, size_t n);
  void flush_run();

  EncodedTrace out_;
  EncodedChunk cur_;
  size_t chunk_refs_;
  i64 last_addr_[kMaxProcs];
  // Open RLE run (not yet flushed into cur_.meta).
  u8 run_meta_ = 0;
  u64 run_len_ = 0;
};

/// Encode an already-recorded raw trace.
EncodedTrace encode_trace(const TraceBuffer& trace,
                          size_t chunk_refs = TraceBuffer::kDefaultChunkRefs);

/// References per replay sub-batch handed to the sink: small enough
/// that a decoded sub-batch (64 KB of MemRefs) is still cache-resident
/// when the simulator walks it, where a whole decoded chunk (1 MB at
/// the default chunk size) would fall out of cache between the decode
/// and the walk; large enough to amortize the per-batch virtual
/// dispatch.
inline constexpr size_t kReplayBatchRefs = 4096;

}  // namespace fsopt
