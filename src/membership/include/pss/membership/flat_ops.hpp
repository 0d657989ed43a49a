// Allocation-free mirrors of the View algorithms, for the flat hot path.
//
// Every routine here reproduces the corresponding View member bit-for-bit —
// same ordering (ByHopThenAddress), same dedup rule (lowest hop count per
// address), and, crucially, the same Rng call sequence — so that a
// simulation driven through flat buffers is indistinguishable from one
// driven through View objects at the same seed. The equivalence is pinned
// by randomized traces in tests/flat_view_store_test.cpp; when changing an
// algorithm here, change View in lockstep or those tests fail.
//
// All functions operate on caller-provided vectors whose capacity is reused
// across calls (see Scratch), so a steady-state exchange performs no heap
// allocation. Buffers may exceed the protocol's c — like View, the merge
// buffer is unbounded and only selection enforces c.
//
// Everything is defined inline: these are the per-exchange kernels of the
// simulation (tens of millions of calls per run), and cross-TU call
// overhead plus the lost inlining cost ~10% of wall-clock at 10^6 nodes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/rng.hpp"
#include "pss/membership/node_descriptor.hpp"

namespace pss::flat {

using DescSpan = std::span<const NodeDescriptor>;

/// Small open-addressing set of addresses with generation-stamped slots, so
/// clearing between merges is one counter bump instead of a memset. Each
/// slot packs (generation << 32 | address) into one word. Sized for merge
/// buffers (<= 2c + 2 entries at c = 30): kMaxEntries keeps it at most 1/8
/// full, and merge_into falls back to the sort-based path when a buffer
/// could overrun it.
///
/// An insert loads its home slot once and xors it with the entry it would
/// store. Zero is a duplicate; a nonzero generation half is a free slot
/// (stamped by an older generation). Both store the entry (a no-op for the
/// duplicate) and return with no branch, so a merge's duplicates cost no
/// mispredict. Only a home slot that holds another address of this
/// generation walks the linear-probe chain.
class AddressSet {
 public:
  static constexpr int kSlotBits = 10;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  /// Entries a single merge may insert: at most 1/8 of the slots.
  static constexpr std::size_t kMaxEntries = 128;

  void reset() {
    if (++generation_ == 0) {
      table_.fill(0);
      generation_ = 1;
    }
  }

  /// Returns true when `addr` was not in the set (and inserts it).
  bool insert(NodeId addr) {
    const std::uint64_t entry =
        (static_cast<std::uint64_t>(generation_) << 32) | addr;
    std::size_t i = home(addr);
    std::uint64_t d = table_[i] ^ entry;
    // 0 < d < 2^32: this generation, another address. Nothing is ever
    // deleted, so `addr` lies on the chain before the first free slot.
    while (d - 1 < kGenerationOne - 1) {
      i = (i + 1) & (kSlots - 1);
      d = table_[i] ^ entry;
    }
    table_[i] = entry;
    return d != 0;
  }

  /// The slot an insert of `addr` probes first: the top bits of a 32-bit
  /// multiplicative hash, so every address bit moves it.
  static std::size_t home(NodeId addr) {
    return static_cast<NodeId>(addr * 2654435761u) >> (32 - kSlotBits);
  }

 private:
  static constexpr std::uint64_t kGenerationOne = std::uint64_t{1} << 32;

  // Slots start at generation 0 and the set at 1, so a new set is empty.
  std::array<std::uint64_t, kSlots> table_{};
  std::uint32_t generation_ = 1;
};

/// Reusable working memory for one exchange pipeline. Owned by whoever
/// drives exchanges (the cycle engine owns one; adapter methods make a
/// short-lived local one). Never aliased across the pipeline: `merged`
/// backs absorb, `buffer`/`reply` carry the in-flight messages (c + 1
/// entries each, written by write_active_buffer), `forged` stages
/// sim::ExchangeCore's byzantine rewrites, the rest back the merge stream.
/// View selection samples on the stack; only a boundary class past
/// AddressSet::kMaxEntries (adapter API, c >= 64) uses `picks`/`pick_table`.
struct Scratch {
  std::vector<NodeDescriptor> merged;  ///< absorb's union buffer
  std::vector<NodeDescriptor> buffer;  ///< active thread's outgoing buffer
  std::vector<NodeDescriptor> reply;   ///< passive thread's pull reply
  std::vector<NodeDescriptor> forged;  ///< byzantine forge staging
  std::vector<std::size_t> picks;      ///< oversized selection: indices
  std::vector<std::size_t> pick_table; ///< oversized selection: sampler table
  AddressSet seen;                     ///< merge dedup table
  /// Raw landing zone for the merge loop: plain stores with no vector
  /// size/capacity bookkeeping, bulk-assigned to `merged` afterwards.
  std::array<NodeDescriptor, AddressSet::kMaxEntries> merge_arr;
  /// The merge stream's inputs as packed keys, each run closed by one
  /// sentinel key (see detail::MergeStream).
  std::array<std::uint64_t, AddressSet::kMaxEntries + 1> keys_a;
  std::array<std::uint64_t, AddressSet::kMaxEntries + 1> keys_b;
};

namespace detail {

/// (hop_count << 32) | address: u1 < u2 is exactly ByHopThenAddress.
inline std::uint64_t sort_key(const NodeDescriptor& d) {
  return (static_cast<std::uint64_t>(d.hop_count) << 32) | d.address;
}

#ifndef NDEBUG
inline bool is_normalized(DescSpan v) {
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    if (!ByHopThenAddress{}(v[i], v[i + 1])) return false;
  }
  return true;
}
#endif

inline NodeDescriptor from_key(std::uint64_t key) {
  return {static_cast<NodeId>(key), static_cast<HopCount>(key >> 32)};
}

/// Closes each staged key run. It is above every real key because no
/// stored descriptor carries address kInvalidNode (GossipNode::init_view
/// drops it, WireCodec::decode rejects it), so an exhausted run never wins
/// a comparison.
inline constexpr std::uint64_t kSentinelKey = ~std::uint64_t{0};

/// Branch-free two-pointer merge over two ascending, sentinel-closed key
/// runs: each next() yields the smaller head and advances its side with
/// plain adds, so the data-dependent take never costs a mispredict. Equal
/// keys are identical descriptors, so tie order cannot matter. The caller
/// stops after the a.size() + b.size() real keys.
class MergeStream {
 public:
  /// Copies `a`, aged by `age_a` hops, and `b` into s.keys_a / s.keys_b as
  /// packed keys, each run followed by kSentinelKey. Aging is a key add of
  /// (age_a << 32), which preserves the (hop, address) order.
  MergeStream(DescSpan a, DescSpan b, HopCount age_a, Scratch& s)
      : a_(s.keys_a.data()), b_(s.keys_b.data()) {
    PSS_DCHECK(
        std::ranges::find(a, kInvalidNode, &NodeDescriptor::address) ==
            a.end() &&
        std::ranges::find(b, kInvalidNode, &NodeDescriptor::address) ==
            b.end());
    const std::uint64_t age_key = static_cast<std::uint64_t>(age_a) << 32;
    for (std::size_t i = 0; i < a.size(); ++i) {
      s.keys_a[i] = sort_key(a[i]) + age_key;
    }
    s.keys_a[a.size()] = kSentinelKey;
    for (std::size_t j = 0; j < b.size(); ++j) s.keys_b[j] = sort_key(b[j]);
    s.keys_b[b.size()] = kSentinelKey;
  }

  std::uint64_t next() {
    const std::uint64_t ka = a_[i_];
    const std::uint64_t kb = b_[j_];
    const bool take_a = ka < kb;
    i_ += take_a;
    j_ += !take_a;
    return take_a ? ka : kb;
  }

 private:
  const std::uint64_t* a_;
  const std::uint64_t* b_;
  std::size_t i_ = 0;
  std::size_t j_ = 0;
};

/// The Fisher–Yates table before its first swap: entry i holds i.
inline constexpr std::array<std::uint8_t, AddressSet::kMaxEntries>
    kIdentityPicks = [] {
      std::array<std::uint8_t, AddressSet::kMaxEntries> t{};
      for (std::size_t i = 0; i < t.size(); ++i) {
        t[i] = static_cast<std::uint8_t>(i);
      }
      return t;
    }();

/// Keeps `k` of the `n` <= AddressSet::kMaxEntries entries at `src`,
/// writing them in ascending index order to `dst` (dst <= src may overlap:
/// every read is at or ahead of its write). The kept indices are exactly
/// the ones rng.sample_indices_into(n, k, ...) draws, through the same
/// branch and the same below() calls, but they are marked in a two-word
/// mask instead of listed, so the ascending gather needs no sort. Every
/// table lives on the stack: a call touches no vector.
inline void keep_sampled(const NodeDescriptor* src, std::size_t n,
                         std::size_t k, NodeDescriptor* dst, Rng& rng) {
  static_assert(AddressSet::kMaxEntries == 128);
  PSS_DCHECK(k <= n && n <= AddressSet::kMaxEntries);
  std::uint64_t bits[2] = {0, 0};
  if (k * 3 >= n) {
    // Partial Fisher–Yates. Step i swaps slot j into slot i, which no later
    // step reads, so only slot j's half of the swap is stored.
    std::array<std::uint8_t, AddressSet::kMaxEntries> fy = kIdentityPicks;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::size_t>(rng.below(n - i));
      const std::uint8_t pick = fy[j];
      fy[j] = fy[i];
      bits[pick >> 6] |= std::uint64_t{1} << (pick & 63);
    }
  } else {
    // Rejection sampling: a candidate is a duplicate exactly when its bit
    // is already set, the verdict sample_indices_into's table reaches.
    for (std::size_t got = 0; got < k;) {
      const auto x = static_cast<std::size_t>(rng.below(n));
      std::uint64_t& word = bits[x >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (x & 63);
      got += (word & bit) == 0;
      word |= bit;
    }
  }
  for (std::uint64_t m = bits[0]; m != 0; m &= m - 1) {
    *dst++ = src[std::countr_zero(m)];
  }
  for (std::uint64_t m = bits[1]; m != 0; m &= m - 1) {
    *dst++ = src[64 + std::countr_zero(m)];
  }
}

/// keep_sampled for a class of any size. A class past
/// AddressSet::kMaxEntries arises only from the adapter API's oversized
/// merges (c >= 64); it draws through Rng::sample_indices_into itself, then
/// sorts the picks and gathers them, as merge_into falls back to a sort.
inline void keep_sampled(const NodeDescriptor* src, std::size_t n,
                         std::size_t k, NodeDescriptor* dst, Rng& rng,
                         Scratch& s) {
  if (n <= AddressSet::kMaxEntries) {
    keep_sampled(src, n, k, dst, rng);
    return;
  }
  rng.sample_indices_into(n, k, s.picks, s.pick_table);
  std::sort(s.picks.begin(), s.picks.end());
  for (const std::size_t p : s.picks) *dst++ = src[p];
}

}  // namespace detail

/// View::normalize: sort by (address, hop) to bring each address's freshest
/// copy first, drop the rest, restore (hop, address) order. General-input
/// path; merge_into avoids it when both inputs are already normalized.
inline void normalize(std::vector<NodeDescriptor>& buf) {
  std::sort(buf.begin(), buf.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) {
              if (a.address != b.address) return a.address < b.address;
              return a.hop_count < b.hop_count;
            });
  buf.erase(std::unique(buf.begin(), buf.end(),
                        [](const NodeDescriptor& a, const NodeDescriptor& b) {
                          return a.address == b.address;
                        }),
            buf.end());
  std::sort(buf.begin(), buf.end(), ByHopThenAddress{});
}

/// View::merge(increase_hop_count(a, age_a), b): `out` becomes the
/// normalized union, with the `a` side aged by `age_a` hops on the fly.
/// `out` must not alias `a` or `b`. Requires `a` and `b` normalized
/// (I1/I2) — true for every view slot and message buffer — which admits a
/// linear merge with hash dedup instead of View::merge's two sorts; both
/// paths produce the identical canonical array (lowest hop per address,
/// ordered by ByHopThenAddress): in (hop, address) order the first
/// occurrence of an address is its lowest-hop copy, so dropping every
/// later occurrence reproduces View::merge exactly.
///
/// `age_a` exists because every Figure-1 handler ages the incoming buffer
/// immediately before merging it: folding the uniform +age into the merge's
/// key staging (aging preserves the (hop, address) order) saves a full
/// read-modify-write pass over the message on the hot path.
inline void merge_into(DescSpan a, DescSpan b, std::vector<NodeDescriptor>& out,
                       Scratch& scratch, HopCount age_a = 0) {
  if (a.size() + b.size() > AddressSet::kMaxEntries) {
    // Oversized inputs (possible only through the adapter API with
    // arbitrarily large Views) take the sort-based path.
    out.clear();
    out.reserve(a.size() + b.size());
    for (const NodeDescriptor& d : a) {
      out.push_back({d.address, d.hop_count + age_a});
    }
    out.insert(out.end(), b.begin(), b.end());
    normalize(out);
    return;
  }
  PSS_DCHECK(detail::is_normalized(a) && detail::is_normalized(b));
  detail::MergeStream stream(a, b, age_a, scratch);
  scratch.seen.reset();
  NodeDescriptor* const base = scratch.merge_arr.data();
  NodeDescriptor* cursor = base;
  for (std::size_t left = a.size() + b.size(); left != 0; --left) {
    const NodeDescriptor d = detail::from_key(stream.next());
    *cursor = d;
    cursor += scratch.seen.insert(d.address);
  }
  out.assign(base, cursor);
}

/// View::erase: removes the entry for `address`; returns true when removed.
inline bool remove_address(std::vector<NodeDescriptor>& buf, NodeId address) {
  auto it = std::find_if(buf.begin(), buf.end(),
                         [address](const NodeDescriptor& d) {
                           return d.address == address;
                         });
  if (it == buf.end()) return false;
  buf.erase(it);
  return true;
}

// --- View selection (in place on buf; mirrors View::select_*) -------------

/// select_head: deterministic truncation to the first min(c, size) entries.
inline void select_head(std::vector<NodeDescriptor>& buf, std::size_t c) {
  if (buf.size() > c) buf.resize(c);
}

namespace detail {

// Mirror of View's select_boundary_sampled: keep every entry strictly
// inside the kept range, sample the boundary hop-class uniformly to fill up
// to c. Same rng consumption: one sample_indices draw, none when k == n.
// Avoids View's final re-sort: the interior block is a subsequence of the
// sorted buffer and the sampled boundary entries all share one hop count,
// so gathering the picks in ascending index order (the class is
// address-ascending) next to the interior lands directly on the canonical
// (hop, address) order, in place.
inline void select_boundary_sampled(std::vector<NodeDescriptor>& buf,
                                    std::size_t c, Rng& rng, Scratch& s,
                                    bool from_head) {
  const std::size_t n = buf.size();
  const std::size_t k = std::min(c, n);
  if (k == n) return;  // nothing truncated; View draws no rng here either
  if (k == 0) {
    buf.clear();
    return;
  }
  const std::size_t boundary_pos = from_head ? k - 1 : n - k;
  const HopCount boundary_hop = buf[boundary_pos].hop_count;
  // The buffer is hop-sorted, so the boundary hop-class is the contiguous
  // run [lo, hi) around boundary_pos, the strict interior is the prefix
  // [0, lo) for head selection and the suffix [hi, n) for tail — no
  // element-wise classification pass needed.
  std::size_t lo = boundary_pos;
  while (lo > 0 && buf[lo - 1].hop_count == boundary_hop) --lo;
  std::size_t hi = boundary_pos + 1;
  while (hi < n && buf[hi].hop_count == boundary_hop) ++hi;
  const std::size_t inside = from_head ? lo : n - hi;
  const std::size_t need = k - inside;
  NodeDescriptor* const v = buf.data();
  if (from_head) {
    // Interior (fresher than the boundary) stays; the picks follow it.
    keep_sampled(v + lo, hi - lo, need, v + lo, rng, s);
    buf.resize(k);
  } else {
    // The picks are the freshest survivors of a tail selection: they move
    // to the front, and the older suffix [hi, n) closes up behind them.
    keep_sampled(v + lo, hi - lo, need, v, rng, s);
    buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(need),
              buf.begin() + static_cast<std::ptrdiff_t>(hi));
  }
}

}  // namespace detail

/// select_head_unbiased: keeps entries strictly fresher than the boundary
/// hop count, fills the rest by a uniform draw from the boundary class.
/// Consumes rng exactly as View::select_head_unbiased (one sample_indices
/// call, skipped when nothing is truncated).
inline void select_head_unbiased(std::vector<NodeDescriptor>& buf,
                                 std::size_t c, Rng& rng, Scratch& scratch) {
  detail::select_boundary_sampled(buf, c, rng, scratch, /*from_head=*/true);
}

/// select_tail_unbiased: mirror of select_head_unbiased from the old end.
inline void select_tail_unbiased(std::vector<NodeDescriptor>& buf,
                                 std::size_t c, Rng& rng, Scratch& scratch) {
  detail::select_boundary_sampled(buf, c, rng, scratch, /*from_head=*/false);
}

/// select_rand: uniform sample of min(c, size) entries without replacement.
/// The picks span hop classes, but gathering them in ascending index order
/// out of the already-sorted buffer lands in canonical order — the element
/// re-sort View::select_rand pays is unnecessary here.
inline void select_rand(std::vector<NodeDescriptor>& buf, std::size_t c,
                        Rng& rng, Scratch& scratch) {
  const std::size_t k = std::min(c, buf.size());
  detail::keep_sampled(buf.data(), buf.size(), k, buf.data(), rng, scratch);
  buf.resize(k);
}

/// Fused merge + drop-self + select_head_unbiased: produces exactly
///   merge_into(a, b, out, scratch, age_a); remove_address(out, self);
///   select_head_unbiased(out, c, rng, scratch);
/// with identical results and identical Rng consumption, in one streaming
/// pass. Head selection keeps the freshest c entries, so the merge can stop
/// at the selection boundary instead of materializing the full union: the
/// stream runs until c survivors are emitted, extends through the boundary
/// hop-class, and then only probes far enough to learn whether anything was
/// truncated (which decides whether the reference draws Rng at all). It is
/// the kernel behind every engine's (.,head,.) exchanges.
///
/// Streams into scratch.merge_arr and returns the selected length (<= c),
/// so the caller can hand the result straight to FlatViewStore::assign.
/// Preconditions as merge_into, plus a.size() + b.size() and c within
/// AddressSet::kMaxEntries (merge_select_head takes the unfused path
/// otherwise) and c > 0.
inline std::size_t merge_select_head_arr(DescSpan a, DescSpan b, NodeId self,
                                         std::size_t c, Rng& rng,
                                         Scratch& scratch, HopCount age_a) {
  PSS_DCHECK(detail::is_normalized(a) && detail::is_normalized(b));
  PSS_DCHECK(a.size() + b.size() <= AddressSet::kMaxEntries &&
             c <= AddressSet::kMaxEntries);
  PSS_DCHECK(c > 0);  // the boundary probe reads the c-th entry
  detail::MergeStream stream(a, b, age_a, scratch);
  std::size_t left = a.size() + b.size();
  // Seeding the dedup set with self drops self exactly as the reference's
  // remove_address does, without a second test per entry.
  scratch.seen.reset();
  scratch.seen.insert(self);
  NodeDescriptor* const base = scratch.merge_arr.data();
  NodeDescriptor* cursor = base;
  NodeDescriptor* const limit = base + c;
  for (; cursor != limit && left != 0; --left) {
    const NodeDescriptor d = detail::from_key(stream.next());
    *cursor = d;
    cursor += scratch.seen.insert(d.address);
  }
  if (cursor != limit) {
    // Fewer than c survivors: nothing truncated, no Rng consumed (the
    // reference's k == n early-out).
    return static_cast<std::size_t>(cursor - base);
  }
  // Extend through the boundary hop-class; the first survivor beyond it
  // proves truncation. Exhausting the inputs inside the class leaves the
  // emitted count to decide. A duplicate is stored and overwritten, as in
  // the loop above, so the only branch is the exit.
  const HopCount boundary_hop = cursor[-1].hop_count;
  bool truncated = false;
  for (; left != 0; --left) {
    const NodeDescriptor d = detail::from_key(stream.next());
    const bool fresh = scratch.seen.insert(d.address);
    if (fresh & (d.hop_count != boundary_hop)) {
      truncated = true;
      break;
    }
    *cursor = d;
    cursor += fresh;
  }
  const std::size_t total = static_cast<std::size_t>(cursor - base);
  if (total == c && !truncated) {
    // Exactly c survivors overall: again the reference's k == n case.
    return c;
  }
  // Same arithmetic as select_boundary_sampled(from_head): interior [0, lo)
  // is kept outright, the boundary class [lo, total) is sampled to fill.
  std::size_t lo = c - 1;
  while (lo > 0 && base[lo - 1].hop_count == boundary_hop) --lo;
  detail::keep_sampled(base + lo, total - lo, c - lo, base + lo, rng);
  return c;
}

inline void merge_select_head(DescSpan a, DescSpan b, NodeId self,
                              std::size_t c, Rng& rng,
                              std::vector<NodeDescriptor>& out,
                              Scratch& scratch, HopCount age_a = 0) {
  if (a.size() + b.size() > AddressSet::kMaxEntries ||
      c > AddressSet::kMaxEntries) {
    // Oversized inputs (adapter API with arbitrarily large Views) take the
    // unfused path.
    merge_into(a, b, out, scratch, age_a);
    remove_address(out, self);
    select_head_unbiased(out, c, rng, scratch);
    return;
  }
  const std::size_t n =
      merge_select_head_arr(a, b, self, c, rng, scratch, age_a);
  out.assign(scratch.merge_arr.data(), scratch.merge_arr.data() + n);
}

// --- Peer selection (on a normalized span; mirrors View::peer_*) ----------

/// peer_rand: uniform random address. Precondition: !v.empty().
inline NodeId peer_rand(DescSpan v, Rng& rng) {
  PSS_CHECK_MSG(!v.empty(), "peer_rand() on empty view");
  return v[static_cast<std::size_t>(rng.below(v.size()))].address;
}

/// peer_head: deterministic first element. Precondition: !v.empty().
inline NodeId peer_head(DescSpan v) {
  PSS_CHECK_MSG(!v.empty(), "peer_head() on empty view");
  return v.front().address;
}

/// peer_tail_unbiased: uniform choice within the oldest hop-class.
/// Precondition: !v.empty().
inline NodeId peer_tail_unbiased(DescSpan v, Rng& rng) {
  PSS_CHECK_MSG(!v.empty(), "peer_tail_unbiased() on empty view");
  const HopCount worst = v.back().hop_count;
  std::size_t first = v.size() - 1;
  while (first > 0 && v[first - 1].hop_count == worst) --first;
  const std::size_t tied = v.size() - first;
  return v[first + static_cast<std::size_t>(rng.below(tied))].address;
}

}  // namespace pss::flat
