// Runtime-dispatched SIMD kernels for the packed-key descriptor hot paths.
//
// A NodeDescriptor is 8 little-endian bytes whose u64 image IS its sort key:
// (hop_count << 32) | address (see flat_ops.hpp detail::sort_key). Every
// per-exchange kernel — aging, buffer building, the sorted merge behind
// merge_select_head / handle_request / absorb — is therefore u64 lane
// arithmetic on contiguous arrays, which this header vectorizes:
//   - aging is a lane-wise add of (age << 32): the addend's low 32 bits are
//     zero, so carries can never reach the address field and the u64 add is
//     bit-exact against the scalar hop_count + age (mod 2^32) — PADDQ does
//     it two wide (SSE2), VPADDQ four wide (AVX2);
//   - the self-insertion point of write_active_buffer is a branch-free
//     count of keys < (0 << 32 | self) over a sorted run (VPCMPGTQ with the
//     usual sign-bias trick for unsigned order, then movemask popcounts);
//   - the two-pointer merge of two sorted descriptor runs becomes a 4-wide
//     in-register bitonic merge network producing the sorted union *with*
//     duplicates; the Rng-consuming dedup/selection pass stays scalar and
//     byte-identical (see flat_ops.hpp select_head_streaming).
//
// Dispatch contract: kernels are selected once per process from CPUID
// (SSE2 is the x86-64 baseline; AVX2 when the CPU reports it), overridable
// down — never up — via the PSS_FORCE_SCALAR environment variable or
// set_level_for_testing(). The scalar path is not vestigial: it is the
// reference oracle tests/simd_kernels_test.cpp replays every vector kernel
// against byte-for-byte, and a CI job pins it (PSS_FORCE_SCALAR=1) so the
// fallback never rots. Non-x86 builds compile to the scalar tier only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "pss/membership/node_descriptor.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PSS_SIMD_X86 1
#include <immintrin.h>
#else
#define PSS_SIMD_X86 0
#endif

namespace pss::simd {

/// Ascending capability tiers; dispatch picks the highest the CPU supports.
enum class Level : int { kScalar = 0, kSSE2 = 1, kAVX2 = 2 };

namespace detail {
// Zero-initialized (kScalar) until the dynamic initializer in simd.cpp runs
// detection, so kernels called from static constructors are safe, just slow.
extern Level g_level;
}  // namespace detail

/// Highest tier the running CPU supports (PSS_FORCE_SCALAR caps it).
Level detected_level();

/// Tier the kernels currently dispatch to.
inline Level active_level() { return detail::g_level; }

/// Test hook: force a tier at or below detected_level() (requests above it
/// are clamped — a kernel is never dispatched past what the CPU can run).
void set_level_for_testing(Level level);

namespace detail {

inline std::uint64_t load_key(const NodeDescriptor* d) {
  std::uint64_t k;
  std::memcpy(&k, d, sizeof(k));
  return k;
}

inline void store_key(NodeDescriptor* d, std::uint64_t k) {
  // NodeDescriptor is trivially copyable; the void* cast mutes GCC's
  // class-memaccess complaint about its defaulted member initializers.
  std::memcpy(static_cast<void*>(d), &k, sizeof(k));
}

#if PSS_SIMD_X86

// --- AVX2 helpers (compiled with the avx2 target attribute so the file
// itself builds at the SSE2 baseline; calls are gated by active_level()) ---

__attribute__((target("avx2"))) inline __m256i bias4(__m256i x) {
  // XOR with the sign bit maps unsigned order onto signed VPCMPGTQ order.
  return _mm256_xor_si256(
      x, _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL)));
}

__attribute__((target("avx2"))) inline void minmax4(__m256i& lo, __m256i& hi) {
  const __m256i gt = _mm256_cmpgt_epi64(bias4(lo), bias4(hi));
  const __m256i mn = _mm256_blendv_epi8(lo, hi, gt);
  hi = _mm256_blendv_epi8(hi, lo, gt);
  lo = mn;
}

/// Cleans a 4-lane bitonic sequence into ascending order (two halver
/// stages: distance 2, then distance 1).
__attribute__((target("avx2"))) inline __m256i bitonic_clean4(__m256i v) {
  __m256i sw = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  __m256i gt = _mm256_cmpgt_epi64(bias4(v), bias4(sw));
  __m256i mn = _mm256_blendv_epi8(v, sw, gt);
  __m256i mx = _mm256_blendv_epi8(sw, v, gt);
  v = _mm256_blend_epi32(mn, mx, 0xF0);  // lanes 0,1 take min; 2,3 take max
  sw = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 3, 0, 1));
  gt = _mm256_cmpgt_epi64(bias4(v), bias4(sw));
  mn = _mm256_blendv_epi8(v, sw, gt);
  mx = _mm256_blendv_epi8(sw, v, gt);
  return _mm256_blend_epi32(mn, mx, 0xCC);  // lanes 1,3 take max
}

/// Bitonic merge of two ascending 4-lane vectors: on return `a` holds the
/// 4 smallest of the 8 inputs (ascending) and `b` the 4 largest
/// (ascending). The standard network: reverse one input, halve, clean.
__attribute__((target("avx2"))) inline void bitonic_merge8(__m256i& a,
                                                           __m256i& b) {
  b = _mm256_permute4x64_epi64(b, _MM_SHUFFLE(0, 1, 2, 3));
  minmax4(a, b);
  a = bitonic_clean4(a);
  b = bitonic_clean4(b);
}

__attribute__((target("avx2"))) inline void aged_copy_avx2(
    NodeDescriptor* dst, const NodeDescriptor* src, std::size_t n,
    std::uint64_t age_key) {
  const __m256i add = _mm256_set1_epi64x(static_cast<long long>(age_key));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(v, add));
  }
  for (; i < n; ++i) store_key(dst + i, load_key(src + i) + age_key);
}

__attribute__((target("avx2"))) inline void age_write_both_avx2(
    NodeDescriptor* view, NodeDescriptor* out, std::size_t n) {
  const __m256i add = _mm256_set1_epi64x(static_cast<long long>(1ULL << 32));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i aged = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(view + i)), add);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(view + i), aged);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), aged);
  }
  for (; i < n; ++i) {
    const std::uint64_t k = load_key(view + i) + (1ULL << 32);
    store_key(view + i, k);
    store_key(out + i, k);
  }
}

__attribute__((target("avx2"))) inline std::size_t count_less_avx2(
    const NodeDescriptor* v, std::size_t n, std::uint64_t key) {
  const __m256i vk = bias4(_mm256_set1_epi64x(static_cast<long long>(key)));
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i gt = _mm256_cmpgt_epi64(
        vk,
        bias4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i))));
    count += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(gt)))));
  }
  for (; i < n; ++i) count += static_cast<std::size_t>(load_key(v + i) < key);
  return count;
}

/// Merges two ascending, sentinel-padded runs into `out`: the first
/// `na + nb` entries of `out` are the ascending union with duplicates
/// preserved. Both inputs must be padded with kSentinelKey entries up to a
/// multiple of 4 plus one spare group (see pad_after); `out` must have room
/// for na + nb rounded up to a multiple of 4, plus 4 (sentinel spill).
__attribute__((target("avx2"))) inline void merge_union_avx2(
    const NodeDescriptor* a, std::size_t na, const NodeDescriptor* b,
    std::size_t nb, NodeDescriptor* out) {
  const std::size_t total = na + nb;
  const std::size_t cap_a = ((na + 3) & ~std::size_t{3}) + 4;
  const std::size_t cap_b = ((nb + 3) & ~std::size_t{3}) + 4;
  __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  std::size_t ai = 4, bi = 4, oi = 0;
  for (;;) {
    bitonic_merge8(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + oi), va);
    oi += 4;
    if (oi >= total) break;
    // Refill the low register from whichever stream's head is smaller;
    // exhausted streams present sentinel keys, steering refills away. The
    // capacity guards make the pathological all-sentinel tail safe.
    const bool take_a =
        bi >= cap_b || (ai < cap_a && load_key(a + ai) <= load_key(b + bi));
    if (take_a) {
      va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ai));
      ai += 4;
    } else {
      va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + bi));
      bi += 4;
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + oi), vb);
}

// --- SSE2 baseline tier ---------------------------------------------------

inline void aged_copy_sse2(NodeDescriptor* dst, const NodeDescriptor* src,
                           std::size_t n, std::uint64_t age_key) {
  const __m128i add = _mm_set1_epi64x(static_cast<long long>(age_key));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_add_epi64(v, add));
  }
  for (; i < n; ++i) store_key(dst + i, load_key(src + i) + age_key);
}

inline void age_write_both_sse2(NodeDescriptor* view, NodeDescriptor* out,
                                std::size_t n) {
  const __m128i add = _mm_set1_epi64x(static_cast<long long>(1ULL << 32));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i aged = _mm_add_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(view + i)), add);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(view + i), aged);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), aged);
  }
  for (; i < n; ++i) {
    const std::uint64_t k = load_key(view + i) + (1ULL << 32);
    store_key(view + i, k);
    store_key(out + i, k);
  }
}

#endif  // PSS_SIMD_X86

}  // namespace detail

/// Sentinel padding value: its u64 key is UINT64_MAX, strictly above every
/// real descriptor key (a view never stores address kInvalidNode), so padded
/// tails sort after all real entries and fall out of the union naturally.
inline constexpr NodeDescriptor kSentinel{0xFFFFFFFFu, 0xFFFFFFFFu};

/// dst[i] = src[i] aged by `age` hops (key + (age << 32)); exact-length
/// reads and writes, so sources may sit flush against an allocation end.
inline void aged_copy(NodeDescriptor* dst, const NodeDescriptor* src,
                      std::size_t n, HopCount age) {
  const std::uint64_t age_key = static_cast<std::uint64_t>(age) << 32;
#if PSS_SIMD_X86
  const Level level = active_level();
  if (level == Level::kAVX2) {
    detail::aged_copy_avx2(dst, src, n, age_key);
    return;
  }
  if (level == Level::kSSE2) {
    detail::aged_copy_sse2(dst, src, n, age_key);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    detail::store_key(dst + i, detail::load_key(src + i) + age_key);
  }
}

/// Ages `view[0..n)` by one hop in place while streaming the aged entries
/// to `out` — the fused wakeup kernel: one pass over the active slot where
/// FlatViewStore::age + write_active_buffer used to take two.
inline void age_write_both(NodeDescriptor* view, NodeDescriptor* out,
                           std::size_t n) {
#if PSS_SIMD_X86
  const Level level = active_level();
  if (level == Level::kAVX2) {
    detail::age_write_both_avx2(view, out, n);
    return;
  }
  if (level == Level::kSSE2) {
    detail::age_write_both_sse2(view, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = detail::load_key(view + i) + (1ULL << 32);
    detail::store_key(view + i, k);
    detail::store_key(out + i, k);
  }
}

/// Ages a run by one hop in place (FlatViewStore::age's loop body).
inline void age_in_place(NodeDescriptor* view, std::size_t n) {
  age_write_both(view, view, n);  // dst == src: the store-twice is elided
}

/// Number of entries of the ascending run `v[0..n)` whose key is < `key` —
/// the insertion index of write_active_buffer's {self, 0} descriptor.
/// Branch-free full scan under AVX2 (n <= c + 1, so a scan beats binary
/// search's mispredicts); scalar lower-bound otherwise.
inline std::size_t count_less(const NodeDescriptor* v, std::size_t n,
                              std::uint64_t key) {
#if PSS_SIMD_X86
  if (active_level() == Level::kAVX2) {
    return detail::count_less_avx2(v, n, key);
  }
#endif
  std::size_t count = 0;
  while (count < n && detail::load_key(v + count) < key) ++count;
  return count;
}

/// True when the AVX2 union-merge kernel is available and worth dispatching
/// for run lengths (na, nb): both runs non-empty (empty sides reduce to an
/// aged copy) and enough total work to amortize the padding stores.
inline bool use_union_merge(std::size_t na, std::size_t nb) {
#if PSS_SIMD_X86
  return active_level() == Level::kAVX2 && na != 0 && nb != 0 &&
         na + nb >= 8;
#else
  (void)na;
  (void)nb;
  return false;
#endif
}

/// Pads `v[n..)` with sentinels up to a multiple of 4 plus one spare group,
/// as merge_union's refill guard requires. Returns entries written.
inline std::size_t pad_after(NodeDescriptor* v, std::size_t n) {
  const std::size_t padded = ((n + 3) & ~std::size_t{3}) + 4;
  for (std::size_t i = n; i < padded; ++i) v[i] = kSentinel;
  return padded - n;
}

/// Sorted union with duplicates of two sentinel-padded ascending runs (see
/// merge_union_avx2 for the contract). Caller must have checked
/// use_union_merge(); the scalar fallback exists so a forced-scalar process
/// that somehow reaches here still computes the right answer.
inline void merge_union(const NodeDescriptor* a, std::size_t na,
                        const NodeDescriptor* b, std::size_t nb,
                        NodeDescriptor* out) {
#if PSS_SIMD_X86
  if (active_level() == Level::kAVX2) {
    detail::merge_union_avx2(a, na, b, nb, out);
    return;
  }
#endif
  std::size_t i = 0, j = 0, o = 0;
  while (i < na && j < nb) {
    const bool take_a = detail::load_key(a + i) <= detail::load_key(b + j);
    out[o++] = take_a ? a[i++] : b[j++];
  }
  while (i < na) out[o++] = a[i++];
  while (j < nb) out[o++] = b[j++];
}

}  // namespace pss::simd
