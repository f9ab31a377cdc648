// Bit-exactness of the SIMD dispatch layer (support/simd.h): every
// vector kernel must return exactly what its scalar twin returns, for
// every extent and edge case, and a replay built on the vector tables
// must produce stats and attribution identical to a forced-scalar
// replay.  On hosts without
// AVX2/NEON the dispatched table IS the scalar table, so the suite
// degenerates to self-consistency and still passes.
#include "support/simd.h"

#include <gtest/gtest.h>

#include <vector>

#include "driver/experiment.h"
#include "sim/multi.h"

namespace fsopt {
namespace {

/// Restores the in-process force-scalar override to "defer to the
/// environment" however the test exits.
struct SimdOverrideGuard {
  ~SimdOverrideGuard() { simd::set_force_scalar(-1); }
};

TEST(Simd, LevelPlumbing) {
  SimdOverrideGuard guard;
  simd::set_force_scalar(1);
  EXPECT_TRUE(simd::force_scalar());
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::active_kernels().level, simd::Level::kScalar);
  simd::set_force_scalar(0);
  // With the in-process force cleared, the environment (FSOPT_SIMD=0 in
  // the CI scalar leg) may still pin scalar — only assert the dispatch
  // when it does not.
  if (!simd::force_scalar()) {
    EXPECT_EQ(simd::active_level(), simd::detected_level());
  }
  EXPECT_NE(simd::level_name(simd::active_level()), nullptr);
  EXPECT_FALSE(simd::cpu_features().empty());
}

TEST(Simd, Avx512TierSelection) {
  // Requests degrade gracefully across the x86 tiers: an AVX-512 host
  // serves both its own table and the AVX2 one (the FSOPT_SIMD=avx2 cap
  // lands there); an AVX2-only host serves AVX2 for either request; hosts
  // without either serve scalar.
  const simd::Level host = simd::detected_level();
  const simd::Kernels& req512 = simd::kernels(simd::Level::kAVX512);
  const simd::Kernels& req2 = simd::kernels(simd::Level::kAVX2);
  if (host == simd::Level::kAVX512) {
    EXPECT_EQ(req512.level, simd::Level::kAVX512);
    EXPECT_EQ(req2.level, simd::Level::kAVX2);
    EXPECT_NE(req512.max_u32, req2.max_u32);
    EXPECT_NE(req512.any_version_newer, req2.any_version_newer);
  } else if (host == simd::Level::kAVX2) {
    EXPECT_EQ(req512.level, simd::Level::kAVX2);
    EXPECT_EQ(req2.level, simd::Level::kAVX2);
  } else {
    EXPECT_EQ(req512.level, simd::Level::kScalar);
    EXPECT_EQ(req2.level, simd::Level::kScalar);
  }
  EXPECT_STREQ(simd::level_name(simd::Level::kAVX512), "avx512");
}

TEST(Simd, MaxU32MatchesScalarOnEveryExtent) {
  const simd::Kernels& k = simd::kernels(simd::detected_level());
  // A deterministic mix of small, large, and boundary values, swept over
  // every length 0..64 and every alignment offset 0..7 so partial vector
  // tails and unaligned heads are all exercised.
  std::vector<u32> data(128);
  u32 x = 0x9e3779b9u;
  for (u32& v : data) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = (x % 5 == 0) ? 0xffffffffu - (x & 7) : x;
  }
  for (size_t off = 0; off < 8; ++off)
    for (size_t n = 0; n + off <= 64; ++n)
      EXPECT_EQ(k.max_u32(data.data() + off, n),
                simd::max_u32_scalar(data.data() + off, n))
          << "off=" << off << " n=" << n;
  EXPECT_EQ(k.max_u32(data.data(), 0), 0u);
}

TEST(Simd, AnyVersionNewerMatchesScalarIncludingBiasEdges) {
  const simd::Kernels& k = simd::kernels(simd::detected_level());
  constexpr u64 kWMask = 127;  // engine writer mask (kWBits = 7)
  std::vector<u64> vers(96);
  u64 x = 0x2545f4914f6cdd1dull;
  for (u64& v : vers) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Mostly small versions, some enormous ones near the signed-compare
    // bias boundary the AVX2 kernel flips around.
    v = (x % 7 == 0) ? (x | (1ull << 63)) : (x % 1024) << 7 | (x & kWMask);
  }
  const u64 bounds[] = {0, 1, 1ull << 7, 1ull << 62, (1ull << 63) + 5,
                        ~0ull};
  for (u64 bound : bounds)
    for (u64 self : {u64{0}, u64{3}, kWMask})
      for (size_t off = 0; off < 4; ++off)
        for (size_t n = 0; n + off <= 48; ++n)
          EXPECT_EQ(
              k.any_version_newer(vers.data() + off, n, bound, self, kWMask),
              simd::any_version_newer_scalar(vers.data() + off, n, bound,
                                             self, kWMask))
              << "bound=" << bound << " self=" << self << " off=" << off
              << " n=" << n;
}

// --- end-to-end: replay stats must not depend on the instruction set --

std::vector<MemRef> contended_stream() {
  std::vector<MemRef> refs;
  for (int i = 0; i < 6000; ++i) {
    u8 proc = static_cast<u8>(i % 8);
    refs.push_back({proc * 4, 4, proc,
                    i % 3 == 0 ? RefType::kWrite : RefType::kRead});
    refs.push_back({512 + (i * 28) % 6144, static_cast<u8>(i % 2 ? 8 : 4),
                    proc, i % 5 == 0 ? RefType::kWrite : RefType::kRead});
  }
  return refs;
}

TEST(Simd, ReplayBitIdenticalScalarVsDispatched) {
  SimdOverrideGuard guard;
  TraceBuffer raw;
  std::vector<MemRef> refs = contended_stream();
  raw.on_batch(refs.data(), refs.size());
  AddressMap am;
  am.add(0, 64, "hot");
  am.add(64, 1 << 13, "cold");
  std::vector<CacheParams> params;
  for (i64 b : {4, 8, 16, 32, 64, 128, 256})
    params.push_back({8, 8192, b, 1 << 13});

  // Attributed and unattributed replays take different batch loops.
  simd::set_force_scalar(1);
  MultiReplayResult scalar = replay_multi(raw, params, &am);
  MultiReplayResult scalar_plain = replay_multi(raw, params);

  simd::set_force_scalar(0);  // dispatched kernels
  MultiReplayResult dispatched = replay_multi(raw, params, &am);
  MultiReplayResult dispatched_plain = replay_multi(raw, params);
  EXPECT_EQ(scalar.stats, dispatched.stats);
  EXPECT_EQ(scalar.by_datum, dispatched.by_datum);
  EXPECT_EQ(scalar_plain.stats, dispatched_plain.stats);
  EXPECT_EQ(scalar.stats, scalar_plain.stats);
}

}  // namespace
}  // namespace fsopt
