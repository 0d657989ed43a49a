#include "pss/membership/simd.hpp"

namespace pss::simd {

Level detected_level() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
  return Level::kSSE2;  // baseline of the x86-64 ABI, no probe needed
#else
  return Level::kScalar;
#endif
}

}  // namespace pss::simd
