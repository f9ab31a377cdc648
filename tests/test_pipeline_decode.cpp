// The pipelined decode (EncodedTrace::replay_pipelined) hands the sink
// the SAME stream as the serial replay(): same references, same order,
// same sub-batch boundaries — only the wall-clock schedule of the
// decode changes.  These tests diff the delivered stream and the replay
// stats of replay_pipelined() against replay().  The threaded path
// needs at least two chunks and two hardware threads, so the tests that
// exercise it skip on a single-thread host.  Run under TSan in CI to
// check the double-buffer hand-off for races.
#include "trace/encode.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/multi.h"

namespace fsopt {
namespace {

/// Records every delivered reference and every sub-batch boundary.
struct RecordingSink : TraceSink {
  std::vector<MemRef> refs;
  std::vector<size_t> batch_sizes;
  void on_ref(const MemRef& ref) override { on_batch(&ref, 1); }
  void on_batch(const MemRef* batch, size_t n) override {
    refs.insert(refs.end(), batch, batch + n);
    batch_sizes.push_back(n);
  }
};

bool operator_eq(const MemRef& a, const MemRef& b) {
  return a.addr == b.addr && a.size == b.size && a.proc == b.proc &&
         a.type == b.type;
}

EncodedTrace seeded_trace(int nrefs, size_t chunk_refs) {
  // Deterministic xorshift stream with spanning refs and proc mixing, in
  // small chunks so the pipeline actually rotates buffers many times.
  TraceBuffer raw;
  u64 x = 0x853c49e6748fea9bull;
  std::vector<MemRef> refs;
  for (int i = 0; i < nrefs; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    refs.push_back({static_cast<i64>(x % 16384) & ~i64{3},
                    static_cast<u8>(x & 1 ? 8 : 4),
                    static_cast<u8>((x >> 8) % 8),
                    (x >> 16) % 3 == 0 ? RefType::kWrite : RefType::kRead});
  }
  raw.on_batch(refs.data(), refs.size());
  return encode_trace(raw, chunk_refs);
}

/// The threaded path runs only with a spare hardware thread to decode on.
bool threaded_path_available() {
  return std::thread::hardware_concurrency() >= 2;
}

TEST(PipelineDecode, ThreadedDeliversIdenticalStream) {
  if (!threaded_path_available())
    GTEST_SKIP() << "fewer than 2 hardware threads: no threaded path";
  EncodedTrace trace = seeded_trace(50000, /*chunk_refs=*/512);
  ASSERT_GE(trace.chunk_count(), 2u);

  RecordingSink serial;
  trace.replay(serial);
  RecordingSink threaded;
  trace.replay_pipelined(threaded);
  ASSERT_EQ(serial.refs.size(), threaded.refs.size());
  ASSERT_EQ(serial.refs.size(), trace.size());
  for (size_t i = 0; i < serial.refs.size(); ++i)
    ASSERT_TRUE(operator_eq(serial.refs[i], threaded.refs[i])) << "i=" << i;
  // Identical sub-batch boundaries, not just identical concatenation.
  EXPECT_EQ(serial.batch_sizes, threaded.batch_sizes);
}

TEST(PipelineDecode, SingleChunkFallsBackToSerial) {
  EncodedTrace trace = seeded_trace(300, /*chunk_refs=*/4096);
  ASSERT_EQ(trace.chunk_count(), 1u);
  RecordingSink sink;
  trace.replay_pipelined(sink);  // must not deadlock or drop refs
  EXPECT_EQ(sink.refs.size(), trace.size());
}

TEST(PipelineDecode, ReplayStatsIdenticalPipelinedVsSerial) {
  if (!threaded_path_available())
    GTEST_SKIP() << "fewer than 2 hardware threads: no threaded path";
  EncodedTrace trace = seeded_trace(40000, /*chunk_refs=*/1024);
  std::vector<CacheParams> params;
  for (i64 b : {4, 32, 256}) params.push_back({8, 8192, b, 1 << 15});

  MultiCacheSim serial(params);
  trace.replay(serial);
  MultiCacheSim threaded(params);
  trace.replay_pipelined(threaded);
  for (size_t p = 0; p < params.size(); ++p)
    EXPECT_EQ(serial.stats(p), threaded.stats(p)) << "plane " << p;
}

}  // namespace
}  // namespace fsopt
