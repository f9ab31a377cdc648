// Host vector-feature metadata for bench output: the replay engine's
// instruction level, which is always scalar (DESIGN §12 records why),
// and the host's vector features.
#pragma once

#include <string>

namespace fsopt::simd {

enum class Level {
  kScalar = 0,
};

const char* level_name(Level level);

/// The replay engine's instruction level: always kScalar.
inline Level active_level() { return Level::kScalar; }

/// Short human-readable description of the host's vector features, for
/// bench metadata ("avx512f+avx2+sse4.2", "neon", "scalar").
std::string cpu_features();

}  // namespace fsopt::simd
