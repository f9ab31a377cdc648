#include "support/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define FSOPT_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define FSOPT_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace fsopt::simd {

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAVX2: return "avx2";
    case Level::kNEON: return "neon";
    case Level::kAVX512: return "avx512";
  }
  return "scalar";
}

Level detected_level() {
#if defined(FSOPT_SIMD_X86) && defined(__GNUC__)
  static const Level cached = __builtin_cpu_supports("avx512f")
                                  ? Level::kAVX512
                              : __builtin_cpu_supports("avx2")
                                  ? Level::kAVX2
                                  : Level::kScalar;
  return cached;
#elif defined(FSOPT_SIMD_NEON)
  return Level::kNEON;
#else
  return Level::kScalar;
#endif
}

namespace {

// -1: defer to the environment; 0/1: in-process override.
std::atomic<int> g_force_scalar{-1};

bool env_force_scalar() {
  static const bool cached = [] {
    const char* env = std::getenv("FSOPT_SIMD");
    return env != nullptr && env[0] == '0' && env[1] == '\0';
  }();
  return cached;
}

// Level cap: FSOPT_SIMD=avx2 pins x86 dispatch to the AVX2 kernels on
// AVX-512 hosts.  Parsed per call (engine construction only, never per
// batch) so tests and benches that setenv between simulator builds see
// the change.
bool env_cap_avx2() {
  const char* env = std::getenv("FSOPT_SIMD");
  return env != nullptr && env[0] == 'a' && env[1] == 'v' && env[2] == 'x' &&
         env[3] == '2' && env[4] == '\0';
}

}  // namespace

void set_force_scalar(int force) { g_force_scalar.store(force); }

bool force_scalar() {
  const int f = g_force_scalar.load();
  return f >= 0 ? f != 0 : env_force_scalar();
}

Level active_level() {
  if (force_scalar()) return Level::kScalar;
  Level l = detected_level();
  if (l == Level::kAVX512 && env_cap_avx2()) return Level::kAVX2;
  return l;
}

std::string cpu_features() {
#if defined(FSOPT_SIMD_X86) && defined(__GNUC__)
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (out.empty()) out = "scalar";
  return out;
#elif defined(FSOPT_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace {

#if defined(FSOPT_SIMD_X86) && defined(__GNUC__)

__attribute__((target("avx2"))) u32 max_u32_avx2(const u32* p, size_t n) {
  size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm256_max_epu32(acc, v);
  }
  // Horizontal max of the 8 accumulator lanes.
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
  u32 out = static_cast<u32>(_mm_cvtsi128_si32(m));
  for (; i < n; ++i) out = p[i] > out ? p[i] : out;
  return out;
}

__attribute__((target("avx2"))) bool any_version_newer_avx2(const u64* p,
                                                            size_t n,
                                                            u64 bound,
                                                            u64 self,
                                                            u64 wmask) {
  // v >= bound tested as signed-compare on bias-flipped values (packed
  // versions use the full 64-bit range); the writer test is an equality
  // against self on the masked low bits.  bound == 0 would wrap the
  // bias arithmetic (and never occurs on the classifier path); take the
  // scalar route for it.
  if (bound == 0) return any_version_newer_scalar(p, n, bound, self, wmask);
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i bound_v = _mm256_set1_epi64x(
      static_cast<long long>((bound - 1) ^ (1ULL << 63)));
  const __m256i self_v = _mm256_set1_epi64x(static_cast<long long>(self));
  const __m256i mask_v = _mm256_set1_epi64x(static_cast<long long>(wmask));
  size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i newer =
        _mm256_cmpgt_epi64(_mm256_xor_si256(v, flip), bound_v);
    const __m256i foreign = _mm256_cmpeq_epi64(
        _mm256_and_si256(v, mask_v), self_v);  // == self; negated below
    acc = _mm256_or_si256(acc, _mm256_andnot_si256(foreign, newer));
  }
  bool any = _mm256_movemask_epi8(acc) != 0;
  for (; i < n && !any; ++i) {
    const u64 v = p[i];
    any = v >= bound && (v & wmask) != self;
  }
  return any;
}

__attribute__((target("avx512f"))) u32 max_u32_avx512(const u32* p,
                                                      size_t n) {
  size_t i = 0;
  __m512i acc = _mm512_setzero_si512();
  for (; i + 16 <= n; i += 16)
    acc = _mm512_max_epu32(acc, _mm512_loadu_si512(p + i));
  u32 out = _mm512_reduce_max_epu32(acc);
  for (; i < n; ++i) out = p[i] > out ? p[i] : out;
  return out;
}

__attribute__((target("avx512f"))) bool any_version_newer_avx512(
    const u64* p, size_t n, u64 bound, u64 self, u64 wmask) {
  // Unlike the AVX2 kernel, no bias flip: AVX-512 compares unsigned
  // 64-bit lanes natively, so bound == 0 needs no special case either.
  const __m512i bound_v = _mm512_set1_epi64(static_cast<long long>(bound));
  const __m512i self_v = _mm512_set1_epi64(static_cast<long long>(self));
  const __m512i mask_v = _mm512_set1_epi64(static_cast<long long>(wmask));
  size_t i = 0;
  __mmask8 acc = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(p + i);
    const __mmask8 newer =
        _mm512_cmp_epu64_mask(v, bound_v, _MM_CMPINT_NLT);  // v >= bound
    const __mmask8 foreign = _mm512_cmp_epu64_mask(
        _mm512_and_si512(v, mask_v), self_v, _MM_CMPINT_NE);
    acc |= newer & foreign;
  }
  bool any = acc != 0;
  for (; i < n && !any; ++i) {
    const u64 v = p[i];
    any = v >= bound && (v & wmask) != self;
  }
  return any;
}

#endif  // FSOPT_SIMD_X86

#if defined(FSOPT_SIMD_NEON)

u32 max_u32_neon(const u32* p, size_t n) {
  size_t i = 0;
  uint32x4_t acc = vdupq_n_u32(0);
  for (; i + 4 <= n; i += 4) acc = vmaxq_u32(acc, vld1q_u32(p + i));
  u32 out = vmaxvq_u32(acc);
  for (; i < n; ++i) out = p[i] > out ? p[i] : out;
  return out;
}

bool any_version_newer_neon(const u64* p, size_t n, u64 bound, u64 self,
                            u64 wmask) {
  const uint64x2_t bound_v = vdupq_n_u64(bound);
  const uint64x2_t self_v = vdupq_n_u64(self);
  const uint64x2_t mask_v = vdupq_n_u64(wmask);
  size_t i = 0;
  uint64x2_t acc = vdupq_n_u64(0);
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(p + i);
    const uint64x2_t newer = vcgeq_u64(v, bound_v);
    const uint64x2_t own = vceqq_u64(vandq_u64(v, mask_v), self_v);
    acc = vorrq_u64(acc, vbicq_u64(newer, own));
  }
  bool any = (vgetq_lane_u64(acc, 0) | vgetq_lane_u64(acc, 1)) != 0;
  for (; i < n && !any; ++i) {
    const u64 v = p[i];
    any = v >= bound && (v & wmask) != self;
  }
  return any;
}

#endif  // FSOPT_SIMD_NEON

u32 max_u32_scalar_fn(const u32* p, size_t n) { return max_u32_scalar(p, n); }

bool any_version_newer_scalar_fn(const u64* p, size_t n, u64 bound, u64 self,
                                 u64 wmask) {
  return any_version_newer_scalar(p, n, bound, self, wmask);
}

constexpr Kernels kScalarKernels{Level::kScalar, &max_u32_scalar_fn,
                                 &any_version_newer_scalar_fn};

}  // namespace

const Kernels& kernels(Level level) {
#if defined(FSOPT_SIMD_X86) && defined(__GNUC__)
  static const Kernels avx512{Level::kAVX512, &max_u32_avx512,
                              &any_version_newer_avx512};
  static const Kernels avx2{Level::kAVX2, &max_u32_avx2,
                            &any_version_newer_avx2};
  const Level host = detected_level();
  if (level == Level::kAVX512 && host == Level::kAVX512) return avx512;
  // An AVX2 request is honored on any host with at least AVX2 (the
  // FSOPT_SIMD=avx2 cap lands here on AVX-512 machines); an AVX-512
  // request on an AVX2-only host degrades to the AVX2 table.
  if ((level == Level::kAVX2 || level == Level::kAVX512) &&
      (host == Level::kAVX2 || host == Level::kAVX512))
    return avx2;
#endif
#if defined(FSOPT_SIMD_NEON)
  static const Kernels neon{Level::kNEON, &max_u32_neon,
                            &any_version_newer_neon};
  if (level == Level::kNEON) return neon;
#endif
  (void)level;
  return kScalarKernels;
}

}  // namespace fsopt::simd
