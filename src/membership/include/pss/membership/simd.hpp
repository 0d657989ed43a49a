// Host SIMD capability probe.
//
// The exchange kernels are scalar C++ (flat_ops.hpp); the compiler
// vectorizes what pays, such as the aging adds. This probe only reports
// what the running CPU offers, for the host fingerprint that benchmark
// results carry. No code dispatches on it.
#pragma once

namespace pss::simd {

/// Ascending x86 vector capability tiers.
enum class Level : int { kScalar = 0, kSSE2 = 1, kAVX2 = 2 };

/// Highest tier the running CPU reports (CPUID on x86-64, where SSE2 is
/// the baseline; kScalar elsewhere).
Level detected_level();

}  // namespace pss::simd
