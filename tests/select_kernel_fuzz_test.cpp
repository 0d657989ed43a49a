// Seeded differential fuzz of the merge and view-selection kernels
// (flat_ops.hpp) against the scalar kernel they replaced, kept below as the
// oracle: a branchy two-pointer merge stream, a std::unordered_set for the
// dedup, Rng::sample_indices_into for the picks and an insertion sort to
// order them. The kernels under test stream a branch-free merge over
// sentinel-padded keys, dedup through flat::AddressSet and mark their picks
// in a two-word stack mask instead (classes past 128 entries sample through
// Rng::sample_indices_into and sort). Every digest and golden in the suite
// depends on the two agreeing byte for byte, so each trial compares the
// output arrays and the generator state after the call. Direct tests of
// flat::AddressSet's collision chains close the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/membership/flat_ops.hpp"

namespace pss {
namespace {

// --- The oracle: the scalar kernel before the pick bitset ------------------

namespace oracle {

/// Sampler calls per class size and Rng::sample_indices_into branch, so
/// each test can check which its inputs reached. The size classes are the
/// kernel's: n <= 64 fills one mask word, 65-128 two, and past 128 the
/// oversized fallback runs. Branch 0 is Fisher–Yates (k * 3 >= n), 1 is
/// rejection.
struct BranchTally {
  std::size_t calls[3][2] = {};
};

BranchTally g_tally;

std::size_t size_class(std::size_t n) { return n <= 64 ? 0 : n <= 128 ? 1 : 2; }

/// Expects every branch of the first `classes` size classes reached.
void expect_reached(std::size_t classes) {
  static constexpr const char* kClass[] = {"n <= 64", "n in 65-128",
                                           "n > 128"};
  static constexpr const char* kBranch[] = {"Fisher-Yates", "rejection"};
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t b = 0; b < 2; ++b) {
      EXPECT_GT(g_tally.calls[c][b], 0u) << kClass[c] << ", " << kBranch[b];
    }
  }
}

struct Scratch {
  std::vector<std::size_t> picks;
  std::vector<std::size_t> fy;
  std::vector<NodeDescriptor> sel;
  std::unordered_set<NodeId> seen;
  std::vector<NodeDescriptor> arr;  ///< merge_select_head_arr's output
};

void sample(std::size_t n, std::size_t k, Rng& rng, Scratch& s) {
  if (k != 0) ++g_tally.calls[size_class(n)][k * 3 >= n ? 0 : 1];
  rng.sample_indices_into(n, k, s.picks, s.fy);
}

void sort_small(std::vector<std::size_t>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    const std::size_t x = v[i];
    std::size_t j = i;
    while (j > 0 && v[j - 1] > x) {
      v[j] = v[j - 1];
      --j;
    }
    v[j] = x;
  }
}

std::uint64_t key(const NodeDescriptor& d) {
  return (static_cast<std::uint64_t>(d.hop_count) << 32) | d.address;
}

void merge_into(flat::DescSpan a, flat::DescSpan b,
                std::vector<NodeDescriptor>& out, Scratch& s, HopCount age_a) {
  out.clear();
  if (a.size() + b.size() > flat::AddressSet::kMaxEntries) {
    for (const NodeDescriptor& d : a) {
      out.push_back({d.address, d.hop_count + age_a});
    }
    out.insert(out.end(), b.begin(), b.end());
    flat::normalize(out);
    return;
  }
  const std::uint64_t age_key = static_cast<std::uint64_t>(age_a) << 32;
  s.seen.clear();
  auto emit = [&](const NodeDescriptor& d) {
    if (s.seen.insert(d.address).second) out.push_back(d);
  };
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (key(a[i]) + age_key < key(b[j])) {
      emit({a[i].address, a[i].hop_count + age_a});
      ++i;
    } else {
      emit(b[j++]);
    }
  }
  for (; i < a.size(); ++i) emit({a[i].address, a[i].hop_count + age_a});
  for (; j < b.size(); ++j) emit(b[j]);
}

void select_boundary_sampled(std::vector<NodeDescriptor>& buf, std::size_t c,
                             Rng& rng, Scratch& s, bool from_head) {
  const std::size_t n = buf.size();
  const std::size_t k = std::min(c, n);
  if (k == n) return;
  if (k == 0) {
    buf.clear();
    return;
  }
  const std::size_t boundary_pos = from_head ? k - 1 : n - k;
  const HopCount boundary_hop = buf[boundary_pos].hop_count;
  std::size_t lo = boundary_pos;
  while (lo > 0 && buf[lo - 1].hop_count == boundary_hop) --lo;
  std::size_t hi = boundary_pos + 1;
  while (hi < n && buf[hi].hop_count == boundary_hop) ++hi;
  const std::size_t need = k - (from_head ? lo : n - hi);
  sample(hi - lo, need, rng, s);
  sort_small(s.picks);
  s.sel.clear();
  if (from_head) {
    s.sel.insert(s.sel.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(lo));
    for (std::size_t p : s.picks) s.sel.push_back(buf[lo + p]);
  } else {
    for (std::size_t p : s.picks) s.sel.push_back(buf[lo + p]);
    s.sel.insert(s.sel.end(), buf.begin() + static_cast<std::ptrdiff_t>(hi),
                 buf.end());
  }
  buf.swap(s.sel);
}

void select_rand(std::vector<NodeDescriptor>& buf, std::size_t c, Rng& rng,
                 Scratch& s) {
  sample(buf.size(), std::min(c, buf.size()), rng, s);
  sort_small(s.picks);
  s.sel.clear();
  for (std::size_t i : s.picks) s.sel.push_back(buf[i]);
  buf.swap(s.sel);
}

/// The streaming merge + drop-self + select_head_unbiased, leaving the
/// selected entries in s.arr.
void merge_select_head_arr(flat::DescSpan a, flat::DescSpan b, NodeId self,
                           std::size_t c, Rng& rng, Scratch& s,
                           HopCount age_a) {
  const std::uint64_t age_key = static_cast<std::uint64_t>(age_a) << 32;
  std::size_t i = 0, j = 0;
  auto next_raw = [&](NodeDescriptor& d) -> bool {
    if (i < a.size() && j < b.size()) {
      if (key(a[i]) + age_key < key(b[j])) {
        d = {a[i].address, a[i].hop_count + age_a};
        ++i;
      } else {
        d = b[j++];
      }
    } else if (i < a.size()) {
      d = {a[i].address, a[i].hop_count + age_a};
      ++i;
    } else if (j < b.size()) {
      d = b[j++];
    } else {
      return false;
    }
    return true;
  };
  s.seen.clear();
  auto next_survivor = [&](NodeDescriptor& d) -> bool {
    while (next_raw(d)) {
      if (d.address == self) continue;
      if (!s.seen.insert(d.address).second) continue;
      return true;
    }
    return false;
  };
  s.arr.clear();
  NodeDescriptor d;
  while (s.arr.size() != c && next_survivor(d)) s.arr.push_back(d);
  if (s.arr.size() != c) return;
  const HopCount boundary_hop = s.arr.back().hop_count;
  bool truncated = false;
  while (next_survivor(d)) {
    if (d.hop_count != boundary_hop) {
      truncated = true;
      break;
    }
    s.arr.push_back(d);
  }
  const std::size_t total = s.arr.size();
  if (total == c && !truncated) return;
  std::size_t lo = c - 1;
  while (lo > 0 && s.arr[lo - 1].hop_count == boundary_hop) --lo;
  const std::size_t need = c - lo;
  sample(total - lo, need, rng, s);
  sort_small(s.picks);
  for (std::size_t t = 0; t < need; ++t) s.arr[lo + t] = s.arr[lo + s.picks[t]];
  s.arr.resize(c);
}

}  // namespace oracle

// --- Inputs -----------------------------------------------------------------

/// A normalized run of at most `max_size` entries over `addresses`
/// addresses and `hops` hop values: few hops make heavy ties, few addresses
/// make cross-side duplicates. Given a `pool`, address i is pool[i].
std::vector<NodeDescriptor> random_run(Rng& rng, std::size_t max_size,
                                       NodeId addresses, HopCount hops,
                                       const std::vector<NodeId>* pool) {
  std::vector<NodeDescriptor> v(static_cast<std::size_t>(rng.below(max_size + 1)));
  for (NodeDescriptor& d : v) {
    const auto i = static_cast<NodeId>(rng.below(addresses));
    d = {pool != nullptr ? (*pool)[i] : i,
         static_cast<HopCount>(rng.below(hops))};
  }
  flat::normalize(v);
  return v;
}

/// One pair of merge inputs with the self address and aging of a trial.
struct Pair {
  std::vector<NodeDescriptor> a;
  std::vector<NodeDescriptor> b;
  NodeId self = 0;
  HopCount age = 0;
};

/// A pair whose sizes add up to at most `max_total`, drawn from one of
/// several shapes: both sides empty or one side empty at the extremes,
/// address spaces from 8 (nearly every address on both sides) to 10^4,
/// hop ranges from 1 (one tie class) to 16. Self is an input address half
/// the time. Given a `pool`, the addresses are the pool's, and self is a
/// pool address the other half of the time.
Pair random_pair(Rng& rng, std::size_t max_total,
                 const std::vector<NodeId>* pool = nullptr) {
  static constexpr NodeId kAddresses[] = {8, 40, 200, 10000};
  static constexpr HopCount kHops[] = {1, 2, 4, 16};
  const NodeId addresses = pool != nullptr
                               ? static_cast<NodeId>(pool->size())
                               : kAddresses[rng.below(4)];
  const HopCount hops = kHops[rng.below(4)];
  const auto max_a = static_cast<std::size_t>(rng.below(max_total + 1));
  Pair p;
  p.a = random_run(rng, max_a, addresses, hops, pool);
  p.b = random_run(rng, max_total - p.a.size(), addresses, hops, pool);
  p.age = static_cast<HopCount>(rng.below(3));
  const std::size_t present = p.a.size() + p.b.size();
  if (present != 0 && rng.chance(0.5)) {
    const auto at = static_cast<std::size_t>(rng.below(present));
    p.self = at < p.a.size() ? p.a[at].address : p.b[at - p.a.size()].address;
  } else if (pool != nullptr) {
    p.self = (*pool)[rng.below(addresses)];
  } else {
    p.self = addresses + 1;
  }
  return p;
}

/// The first `n` addresses whose flat::AddressSet home slot is `slot`.
std::vector<NodeId> homed_at(std::size_t slot, std::size_t n) {
  std::vector<NodeId> out;
  for (NodeId a = 0; out.size() < n; ++a) {
    if (flat::AddressSet::home(a) == slot) out.push_back(a);
  }
  return out;
}

constexpr std::size_t kLastSlot = flat::AddressSet::kSlots - 1;

/// Asserts that two generators sit at the same stream position.
void expect_same_stream(Rng expected, Rng actual, const char* what) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(expected(), actual()) << what << ": Rng state diverged";
  }
}

constexpr std::size_t kViewSizes[] = {1, 4, 30, 64};

// --- Differentials -----------------------------------------------------------

TEST(SelectKernelFuzz, MergeSelectHeadMatchesScalarOracle) {
  Rng rng(0xF0221);
  flat::Scratch scratch;
  oracle::Scratch ref;
  oracle::g_tally = {};
  for (const std::size_t c : kViewSizes) {
    for (int trial = 0; trial < 3000; ++trial) {
      const Pair p = random_pair(rng, flat::AddressSet::kMaxEntries);
      const std::uint64_t seed = rng();
      Rng expected_rng(seed), actual_rng(seed);
      oracle::merge_select_head_arr(p.a, p.b, p.self, c, expected_rng, ref,
                                    p.age);
      const std::size_t n = flat::merge_select_head_arr(
          p.a, p.b, p.self, c, actual_rng, scratch, p.age);
      ASSERT_EQ(std::vector<NodeDescriptor>(scratch.merge_arr.begin(),
                                            scratch.merge_arr.begin() +
                                                static_cast<std::ptrdiff_t>(n)),
                ref.arr)
          << "c=" << c << " trial=" << trial;
      expect_same_stream(expected_rng, actual_rng, "merge_select_head_arr");
    }
  }
  // The fused kernel's class never exceeds its kMaxEntries inputs.
  oracle::expect_reached(2);
}

TEST(SelectKernelFuzz, MergeIntoMatchesScalarOracle) {
  Rng rng(0xF0222);
  flat::Scratch scratch;
  oracle::Scratch ref;
  std::vector<NodeDescriptor> expected, actual;
  for (int trial = 0; trial < 4000; ++trial) {
    // Up to twice the array path's bound: the oversized half takes the
    // sort-based path in both kernels.
    const Pair p = random_pair(rng, 2 * flat::AddressSet::kMaxEntries);
    oracle::merge_into(p.a, p.b, expected, ref, p.age);
    flat::merge_into(p.a, p.b, actual, scratch, p.age);
    ASSERT_EQ(expected, actual) << "trial=" << trial;
  }
}

TEST(SelectKernelFuzz, SelectionsMatchScalarOracle) {
  // Merged buffers with self removed, as absorb hands them to the (rand|
  // tail) selections, up to 3 * kMaxEntries entries so classes past
  // kMaxEntries take the oversized fallback; c adds 200 for the same.
  Rng rng(0xF0223);
  flat::Scratch scratch;
  oracle::Scratch ref;
  oracle::g_tally = {};
  std::vector<std::size_t> view_sizes(std::begin(kViewSizes),
                                      std::end(kViewSizes));
  view_sizes.push_back(200);
  for (const std::size_t c : view_sizes) {
    for (int trial = 0; trial < 1500; ++trial) {
      const Pair p = random_pair(rng, 3 * flat::AddressSet::kMaxEntries);
      std::vector<NodeDescriptor> merged;
      oracle::merge_into(p.a, p.b, merged, ref, p.age);
      flat::remove_address(merged, p.self);
      const std::uint64_t seed = rng();
      for (int policy = 0; policy < 3; ++policy) {
        std::vector<NodeDescriptor> expected = merged, actual = merged;
        Rng expected_rng(seed), actual_rng(seed);
        switch (policy) {
          case 0:
            oracle::select_boundary_sampled(expected, c, expected_rng, ref,
                                            /*from_head=*/true);
            flat::select_head_unbiased(actual, c, actual_rng, scratch);
            break;
          case 1:
            oracle::select_boundary_sampled(expected, c, expected_rng, ref,
                                            /*from_head=*/false);
            flat::select_tail_unbiased(actual, c, actual_rng, scratch);
            break;
          default:
            oracle::select_rand(expected, c, expected_rng, ref);
            flat::select_rand(actual, c, actual_rng, scratch);
            break;
        }
        ASSERT_EQ(expected, actual)
            << "policy=" << policy << " c=" << c << " trial=" << trial;
        expect_same_stream(expected_rng, actual_rng, "selection");
      }
    }
  }
  oracle::expect_reached(3);
}

TEST(SelectKernelFuzz, OversizedAdapterPathMatchesScalarOracle) {
  // merge_select_head past the array bounds (inputs over kMaxEntries, or
  // c over it) runs merge_into + remove_address + select_head_unbiased on
  // vectors; the oracle composes its own three steps. Below the c bound,
  // pairs are redrawn until their sizes exceed kMaxEntries.
  Rng rng(0xF0224);
  flat::Scratch scratch;
  oracle::Scratch ref;
  std::vector<NodeDescriptor> actual;
  constexpr std::size_t kMax = flat::AddressSet::kMaxEntries;
  for (const std::size_t c : {std::size_t{4}, std::size_t{30}, kMax + 1,
                              std::size_t{300}}) {
    for (int trial = 0; trial < 400; ++trial) {
      Pair p = random_pair(rng, 3 * kMax);
      while (c <= kMax && p.a.size() + p.b.size() <= kMax) {
        p = random_pair(rng, 3 * kMax);
      }
      const std::uint64_t seed = rng();
      Rng expected_rng(seed), actual_rng(seed);
      std::vector<NodeDescriptor> expected;
      oracle::merge_into(p.a, p.b, expected, ref, p.age);
      flat::remove_address(expected, p.self);
      oracle::select_boundary_sampled(expected, c, expected_rng, ref,
                                      /*from_head=*/true);
      flat::merge_select_head(p.a, p.b, p.self, c, actual_rng, actual,
                              scratch, p.age);
      ASSERT_EQ(expected, actual) << "c=" << c << " trial=" << trial;
      expect_same_stream(expected_rng, actual_rng, "merge_select_head");
    }
  }
}

TEST(SelectKernelFuzz, MaskWordEdgesMatchScalarOracle) {
  // Class sizes on either side of the pick mask's word boundary (64) and
  // of the oversized fallback (past 128), each at every k from 0 to n. The
  // buffer is one hop class, so each selection samples all n entries.
  Rng rng(0xF0226);
  flat::Scratch scratch;
  oracle::Scratch ref;
  oracle::g_tally = {};
  for (const std::size_t n : {63, 64, 65, 127, 128, 129}) {
    std::vector<NodeDescriptor> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = {static_cast<NodeId>(3 * i + 1), 2};
    }
    for (std::size_t k = 0; k <= n; ++k) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::uint64_t seed = rng();
        for (int policy = 0; policy < 3; ++policy) {
          std::vector<NodeDescriptor> expected = buf, actual = buf;
          Rng expected_rng(seed), actual_rng(seed);
          switch (policy) {
            case 0:
              oracle::select_boundary_sampled(expected, k, expected_rng, ref,
                                              /*from_head=*/true);
              flat::select_head_unbiased(actual, k, actual_rng, scratch);
              break;
            case 1:
              oracle::select_boundary_sampled(expected, k, expected_rng, ref,
                                              /*from_head=*/false);
              flat::select_tail_unbiased(actual, k, actual_rng, scratch);
              break;
            default:
              oracle::select_rand(expected, k, expected_rng, ref);
              flat::select_rand(actual, k, actual_rng, scratch);
              break;
          }
          ASSERT_EQ(expected, actual)
              << "policy=" << policy << " n=" << n << " k=" << k;
          expect_same_stream(expected_rng, actual_rng, "selection");
        }
      }
    }
  }
  oracle::expect_reached(3);
}

TEST(SelectKernelFuzz, CollidingAddressesMatchScalarOracle) {
  // Every address shares one of four adjacent home slots, kLastSlot - 1 to
  // 1, so all but the first few inserts of a merge walk a collision chain,
  // and duplicates are found behind one. Pairs are redrawn until they hold
  // two distinct addresses homed at kLastSlot, so every trial's merge_into
  // wraps a chain from the last slot to slot 0.
  const std::pair<std::size_t, std::size_t> groups[] = {
      {kLastSlot - 1, 8}, {kLastSlot, 24}, {0, 8}, {1, 8}};
  std::vector<NodeId> pool;
  for (const auto& [slot, n] : groups) {
    const std::vector<NodeId> homed = homed_at(slot, n);
    pool.insert(pool.end(), homed.begin(), homed.end());
  }
  const auto wraps = [](const Pair& p) {
    std::unordered_set<NodeId> last;
    for (const auto* side : {&p.a, &p.b}) {
      for (const NodeDescriptor& d : *side) {
        if (flat::AddressSet::home(d.address) == kLastSlot) {
          last.insert(d.address);
        }
      }
    }
    return last.size() >= 2;
  };
  Rng rng(0xF0225);
  flat::Scratch scratch;
  oracle::Scratch ref;
  std::vector<NodeDescriptor> expected, actual;
  for (const std::size_t c : kViewSizes) {
    for (int trial = 0; trial < 1500; ++trial) {
      Pair p = random_pair(rng, flat::AddressSet::kMaxEntries, &pool);
      while (!wraps(p)) {
        p = random_pair(rng, flat::AddressSet::kMaxEntries, &pool);
      }
      oracle::merge_into(p.a, p.b, expected, ref, p.age);
      flat::merge_into(p.a, p.b, actual, scratch, p.age);
      ASSERT_EQ(expected, actual) << "merge_into trial=" << trial;
      const std::uint64_t seed = rng();
      Rng expected_rng(seed), actual_rng(seed);
      oracle::merge_select_head_arr(p.a, p.b, p.self, c, expected_rng, ref,
                                    p.age);
      const std::size_t n = flat::merge_select_head_arr(
          p.a, p.b, p.self, c, actual_rng, scratch, p.age);
      ASSERT_EQ(std::vector<NodeDescriptor>(scratch.merge_arr.begin(),
                                            scratch.merge_arr.begin() +
                                                static_cast<std::ptrdiff_t>(n)),
                ref.arr)
          << "c=" << c << " trial=" << trial;
      expect_same_stream(expected_rng, actual_rng, "merge_select_head_arr");
    }
  }
}

// --- flat::AddressSet's collision chains -----------------------------------

TEST(AddressSet, NewSetIsEmpty) {
  // No reset() yet. Were the new set's generation the one its zeroed slots
  // carry, 0 would read as present and any other address would probe
  // forever, hence the ASSERT before the second insert.
  flat::AddressSet set;
  ASSERT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.insert(5));
}

TEST(AddressSet, AddressesSharingAHomeSlotAreAllKept) {
  const std::vector<NodeId> same = homed_at(500, 8);
  flat::AddressSet set;
  set.reset();
  for (const NodeId a : same) EXPECT_TRUE(set.insert(a)) << a;
  for (const NodeId a : same) EXPECT_FALSE(set.insert(a)) << a;
}

TEST(AddressSet, DuplicateIsFoundBehindACollisionChain) {
  // Three addresses homed at 500 take slots 500-502. One homed at 501
  // probes past them to 503, and one homed at 502 to 504; then one homed
  // at 504 finds its home taken and lands on 505.
  const std::vector<NodeId> chain = homed_at(500, 3);
  const NodeId at501 = homed_at(501, 1)[0];
  const NodeId at502 = homed_at(502, 1)[0];
  const NodeId at504 = homed_at(504, 1)[0];
  flat::AddressSet set;
  set.reset();
  for (const NodeId a : chain) ASSERT_TRUE(set.insert(a)) << a;
  EXPECT_TRUE(set.insert(at501));
  EXPECT_TRUE(set.insert(at502));
  EXPECT_TRUE(set.insert(at504));
  EXPECT_FALSE(set.insert(chain[2]));
  EXPECT_FALSE(set.insert(at501));
  EXPECT_FALSE(set.insert(at502));
  EXPECT_FALSE(set.insert(at504));
  EXPECT_FALSE(set.insert(chain[0]));
}

TEST(AddressSet, ProbeChainWrapsFromTheLastSlotToTheFirst) {
  const std::vector<NodeId> last = homed_at(kLastSlot, 3);
  const std::vector<NodeId> first = homed_at(0, 2);
  flat::AddressSet set;
  set.reset();
  EXPECT_TRUE(set.insert(last[0]));   // the last slot
  EXPECT_TRUE(set.insert(last[1]));   // wraps to slot 0
  EXPECT_TRUE(set.insert(first[0]));  // its home is taken: slot 1
  EXPECT_TRUE(set.insert(last[2]));   // the last slot, 0 and 1 taken: slot 2
  EXPECT_TRUE(set.insert(first[1]));  // slot 3
  for (const NodeId a : last) EXPECT_FALSE(set.insert(a)) << a;
  for (const NodeId a : first) EXPECT_FALSE(set.insert(a)) << a;

  // A full merge's worth of addresses on one home slot near the end: the
  // chain runs over the wrap and every entry stays findable.
  const std::vector<NodeId> long_chain =
      homed_at(kLastSlot - 20, flat::AddressSet::kMaxEntries);
  set.reset();
  for (const NodeId a : long_chain) EXPECT_TRUE(set.insert(a)) << a;
  for (const NodeId a : long_chain) EXPECT_FALSE(set.insert(a)) << a;
}

TEST(AddressSet, ResetForgetsEveryAddress) {
  // After a reset the old generation's entries are free slots, even where
  // one holds the very address being inserted.
  const std::vector<NodeId> chain = homed_at(7, 4);
  flat::AddressSet set;
  set.reset();
  for (const NodeId a : chain) ASSERT_TRUE(set.insert(a)) << a;
  ASSERT_TRUE(set.insert(kInvalidNode));
  set.reset();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    EXPECT_TRUE(set.insert(*it)) << *it;
  }
  EXPECT_TRUE(set.insert(kInvalidNode));
  for (const NodeId a : chain) EXPECT_FALSE(set.insert(a)) << a;
  EXPECT_FALSE(set.insert(kInvalidNode));
}

}  // namespace
}  // namespace pss
