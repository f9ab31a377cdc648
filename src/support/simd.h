// Portable SIMD dispatch for the replay engines.
//
// The multi-plane replay's per-miss scans (word write-version checks,
// granule-aggregate maxima) are data parallel; this header gives them
// one portable seam:
//
//   * an always-available scalar implementation of every kernel — the
//     bit-exactness reference, and the only path on hardware without
//     AVX2/AVX-512/NEON;
//   * runtime dispatch: `detected_level()` probes the host once
//     (AVX-512F then AVX2 via __builtin_cpu_supports on x86-64, NEON
//     unconditionally on AArch64) and `active_kernels()` hands back a
//     function-pointer table for the best usable level;
//   * a force-scalar override for benchmarking and differential tests:
//     the environment variable `FSOPT_SIMD=0` (or
//     `set_force_scalar(1)` in-process, which wins over the
//     environment) pins every consumer to the scalar table; and a
//     level cap, `FSOPT_SIMD=avx2`, that pins x86 dispatch to the AVX2
//     kernels on AVX-512 hosts (tier-vs-tier measurement and
//     differential testing).
//
// Consumers snapshot the active level when they build their engine
// state (MultiCacheSim reads it in its constructor), so toggling the
// override between replays is race-free and each simulator's choice is
// fixed for its lifetime.  Every SIMD kernel computes bit-identical
// results to its scalar twin — the vector width changes the schedule,
// never the outcome — and tests/test_simd.cpp enforces that end to end.
//
// x86-64 kernels are compiled with the `target("avx2")` function
// attribute instead of a global -mavx2 flag, so one binary carries both
// paths and non-AVX2 hosts never execute a vector instruction.
#pragma once

#include <cstddef>
#include <string>

#include "support/common.h"

namespace fsopt::simd {

enum class Level {
  kScalar = 0,
  kAVX2 = 1,
  kNEON = 2,
  kAVX512 = 3,
};

const char* level_name(Level level);

/// Best instruction level this host supports (probed once, cached).
Level detected_level();

/// -1: defer to the FSOPT_SIMD environment variable (the default).
/// 1: force the scalar table regardless of the environment.
/// 0: clear a previous in-process force (the environment still applies).
void set_force_scalar(int force);

/// True when kernels are pinned to scalar — by set_force_scalar(1), or
/// by FSOPT_SIMD=0 in the environment when no in-process override is set.
bool force_scalar();

/// detected_level(), demoted to kScalar when force_scalar() is on.
Level active_level();

/// Short human-readable description of the host's vector features, for
/// bench metadata ("avx2+sse4.2", "neon", "scalar").
std::string cpu_features();

/// The dispatchable kernels.  All implementations of one slot return
/// bit-identical results for identical inputs.
struct Kernels {
  Level level;

  /// Maximum of n unsigned 32-bit values (0 when n == 0).
  u32 (*max_u32)(const u32* p, size_t n);

  /// True iff any packed word version v in [p, p+n) satisfies
  /// v >= bound && (v & wmask) != self — the classifier's "remotely
  /// written after the snapshot" test over a block or granule extent.
  bool (*any_version_newer)(const u64* p, size_t n, u64 bound, u64 self,
                            u64 wmask);
};

/// The kernel table for `level` (falls back to scalar slots where the
/// build lacks that level's compiler support).
const Kernels& kernels(Level level);

/// kernels(active_level()) — what consumers should snapshot.
inline const Kernels& active_kernels() { return kernels(active_level()); }

// Scalar reference implementations, always available and inlineable for
// short extents where a dispatch call would dominate the scan itself.
inline u32 max_u32_scalar(const u32* p, size_t n) {
  u32 m = 0;
  for (size_t i = 0; i < n; ++i) m = p[i] > m ? p[i] : m;
  return m;
}

inline bool any_version_newer_scalar(const u64* p, size_t n, u64 bound,
                                     u64 self, u64 wmask) {
  u64 acc = 0;
  for (size_t i = 0; i < n; ++i) {
    const u64 v = p[i];
    acc |= static_cast<u64>(v >= bound && (v & wmask) != self);
  }
  return acc != 0;
}

}  // namespace fsopt::simd
