#include "support/simd.h"

namespace fsopt::simd {

const char* level_name(Level) { return "scalar"; }

std::string cpu_features() {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
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
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace fsopt::simd
