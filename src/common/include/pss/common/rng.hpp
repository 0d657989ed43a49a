// Deterministic random number generation.
//
// Every source of randomness in the library flows through Rng so that an
// experiment is a pure function of (seed, parameters). The generator is
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, which is the
// standard way to expand a 64-bit seed into a full 256-bit state without
// correlation artifacts. Rng satisfies UniformRandomBitGenerator, so it can
// also be plugged into <random> distributions and std::shuffle.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/check.hpp"

namespace pss {

/// SplitMix64 step: used for seeding and as a cheap standalone mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** pseudo-random generator with convenience sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value. Inline: the per-exchange hot loops draw
  /// millions of values and the xoshiro step is a handful of ALU ops.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) {
    PSS_DCHECK(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) [[unlikely]] {
      const std::uint64_t t = -bound % bound;
      while (l < t) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fisher–Yates shuffle of a whole vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Draws k distinct indices from [0, n) (k <= n), in random order.
  /// Uses a partial Fisher–Yates over an index vector (O(n) memory) when k
  /// is large relative to n, and rejection sampling when k << n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Allocation-free variant of sample_indices for hot loops: writes the k
  /// indices into `out` and uses `scratch` for the Fisher–Yates index table,
  /// reusing both vectors' capacity across calls. Draws the exact same
  /// random sequence as sample_indices (which delegates here), so the two
  /// are interchangeable without perturbing seeded experiments. Inline for
  /// the per-exchange view-selection path.
  void sample_indices_into(std::size_t n, std::size_t k,
                           std::vector<std::size_t>& out,
                           std::vector<std::size_t>& scratch) {
    PSS_CHECK_MSG(k <= n, "cannot sample more indices than the population size");
    out.clear();
    out.reserve(k);
    if (k == 0) return;
    if (k * 3 >= n) {
      scratch.resize(n);
      for (std::size_t i = 0; i < n; ++i) scratch[i] = i;
      // Partial Fisher–Yates: the first k slots end up uniformly sampled.
      for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = i + static_cast<std::size_t>(below(n - i));
        std::swap(scratch[i], scratch[j]);
      }
      out.assign(scratch.begin(),
                 scratch.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      // Rejection sampling; k << n, so the linear duplicate scan over at
      // most k accepted values is cheap and needs no hash-set allocation.
      // Accepts and rejects exactly the candidates the historical
      // std::unordered_set-based implementation did, keeping the draw
      // sequence seed-stable.
      while (out.size() < k) {
        std::size_t candidate = static_cast<std::size_t>(below(n));
        bool duplicate = false;
        for (std::size_t v : out) {
          if (v == candidate) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) out.push_back(candidate);
      }
    }
  }

  /// Derives an independent child generator; child sequences are decorrelated
  /// from the parent and from each other by SplitMix64 remixing.
  Rng split();

  /// Counter-based stream derivation: a fresh generator for draw index
  /// `counter` of logical stream `stream` under `seed`. Pure function of its
  /// arguments — no shared state is read or advanced — so concurrent callers
  /// can derive generators for different (stream, counter) pairs without
  /// synchronization, and the values a stream produces depend only on how
  /// often *it* was used, never on global interleaving. AdversaryModel
  /// keys its forge streams this way (stream = sender, counter = the
  /// sender's own forge call index), so what a byzantine node sends does
  /// not depend on which lane runs its step; TraceChurn draws each node's
  /// Pareto session length from (seed, node id).
  static Rng stream_at(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t counter);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace pss
