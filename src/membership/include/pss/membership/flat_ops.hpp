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
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/rng.hpp"
#include "pss/membership/node_descriptor.hpp"
#include "pss/membership/simd.hpp"

namespace pss::flat {

using DescSpan = std::span<const NodeDescriptor>;

/// Small open-addressing set of addresses with generation-stamped slots, so
/// clearing between merges is one counter bump instead of a memset. Each
/// slot packs (generation << 32 | address) into one word — a probe is a
/// single load, an insert a single store. Sized for merge buffers
/// (<= 2c + 2 entries at c = 30); merge_into falls back to the sort-based
/// path when a buffer could overrun it.
class AddressSet {
 public:
  static constexpr std::size_t kSlots = 256;
  /// Entries a single merge may insert while staying under ~50% load.
  static constexpr std::size_t kMaxEntries = 128;

  void reset() {
    if (++generation_ == 0) {
      table_.fill(0);
      generation_ = 1;
    }
  }

  /// Returns true when `addr` was not in the set (and inserts it).
  bool insert(NodeId addr) {
    const std::uint64_t tag = (static_cast<std::uint64_t>(generation_) << 32);
    const std::uint64_t entry = tag | addr;
    std::size_t i = (addr * 2654435761u) & (kSlots - 1);
    while ((table_[i] & kGenMask) == tag) {
      if (table_[i] == entry) return false;
      i = (i + 1) & (kSlots - 1);
    }
    table_[i] = entry;
    return true;
  }

 private:
  static constexpr std::uint64_t kGenMask = 0xFFFFFFFF00000000ULL;

  std::array<std::uint64_t, kSlots> table_{};
  std::uint32_t generation_ = 0;
};

/// Reusable working memory for one exchange pipeline. Owned by whoever
/// drives exchanges (the cycle engine owns one; adapter methods make a
/// short-lived local one). Never aliased across the pipeline: `merged`
/// backs absorb, `buffer`/`reply` carry the in-flight messages, `forged`
/// stages sim::ExchangeCore's byzantine rewrites, the rest back view
/// selection.
struct Scratch {
  std::vector<NodeDescriptor> merged;  ///< absorb's union buffer
  std::vector<NodeDescriptor> buffer;  ///< active thread's outgoing buffer
  std::vector<NodeDescriptor> reply;   ///< passive thread's pull reply
  std::vector<NodeDescriptor> sel;     ///< selection: assembled result
  std::vector<NodeDescriptor> forged;  ///< byzantine forge staging
  std::vector<std::size_t> picks;      ///< sample_indices output
  std::vector<std::size_t> fy;         ///< sample_indices Fisher–Yates table
  AddressSet seen;                     ///< merge dedup table
  /// Raw landing zone for the merge loop: plain stores with no vector
  /// size/capacity bookkeeping, bulk-assigned to `merged` afterwards.
  std::array<NodeDescriptor, AddressSet::kMaxEntries> merge_arr;
  // SIMD union-merge staging (see pss/membership/simd.hpp): both inputs are
  // copied here so the 4-wide loads read sentinel padding, never the bytes
  // past a view slot or message slab; union_arr takes the merged stream
  // (<= kMaxEntries real entries) plus the kernel's 4-entry sentinel spill.
  std::array<NodeDescriptor, AddressSet::kMaxEntries + 8> pad_a;
  std::array<NodeDescriptor, AddressSet::kMaxEntries + 8> pad_b;
  std::array<NodeDescriptor, AddressSet::kMaxEntries + 8> union_arr;
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

/// Insertion sort for the tiny pick lists (<= c elements): beats introsort's
/// dispatch overhead at this size and is branch-friendly on nearly-sorted
/// input.
inline void sort_small(std::vector<std::size_t>& v) {
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
/// linear two-pointer merge with hash dedup instead of View::merge's two
/// sorts; both paths produce the identical canonical array (lowest hop per
/// address, ordered by ByHopThenAddress).
///
/// `age_a` exists because every Figure-1 handler ages the incoming buffer
/// immediately before merging it: folding the uniform +age into the merge's
/// key comparison (aging preserves the (hop, address) order) saves a full
/// read-modify-write pass over the message on the hot path.
inline void merge_into(DescSpan a, DescSpan b, std::vector<NodeDescriptor>& out,
                       Scratch& scratch, HopCount age_a = 0) {
  const std::uint64_t age_key = static_cast<std::uint64_t>(age_a) << 32;
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
  if (simd::use_union_merge(a.size(), b.size())) {
    // Vector path: 4-wide bitonic union merge (aging the `a` side during
    // its staging copy), then the same dedup rule as the scalar stream
    // below. Equal keys are identical descriptors and dedup keeps the first
    // occurrence per address — the lowest key — in both paths, so the
    // output is byte-identical (pinned by tests/simd_kernels_test.cpp).
    simd::aged_copy(scratch.pad_a.data(), a.data(), a.size(), age_a);
    simd::pad_after(scratch.pad_a.data(), a.size());
    simd::aged_copy(scratch.pad_b.data(), b.data(), b.size(), 0);
    simd::pad_after(scratch.pad_b.data(), b.size());
    simd::merge_union(scratch.pad_a.data(), a.size(), scratch.pad_b.data(),
                      b.size(), scratch.union_arr.data());
    scratch.seen.reset();
    NodeDescriptor* const base = scratch.merge_arr.data();
    NodeDescriptor* cursor = base;
    const std::size_t total = a.size() + b.size();
    for (std::size_t t = 0; t < total; ++t) {
      const NodeDescriptor d = scratch.union_arr[t];
      *cursor = d;
      cursor += scratch.seen.insert(d.address);
    }
    out.assign(base, cursor);
    return;
  }
  // Two-pointer merge over the already-sorted inputs. In (hop, address)
  // order the first occurrence of an address is its lowest-hop copy, so
  // dropping every later occurrence reproduces View::merge exactly. Equal
  // (hop, address) pairs are identical descriptors, so tie order between
  // the inputs cannot matter. Comparing packed (hop << 32 | address) keys
  // is ByHopThenAddress as one branch-free integer compare.
  scratch.seen.reset();
  NodeDescriptor* const base = scratch.merge_arr.data();
  NodeDescriptor* cursor = base;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::size_t take_a =
        static_cast<std::size_t>(detail::sort_key(a[i]) + age_key <
                                 detail::sort_key(b[j]));
    const NodeDescriptor d = take_a
                                 ? NodeDescriptor{a[i].address,
                                                  a[i].hop_count + age_a}
                                 : b[j];
    i += take_a;
    j += 1 - take_a;
    *cursor = d;
    cursor += scratch.seen.insert(d.address);
  }
  for (; i < a.size(); ++i) {
    *cursor = {a[i].address, a[i].hop_count + age_a};
    cursor += scratch.seen.insert(a[i].address);
  }
  for (; j < b.size(); ++j) {
    *cursor = b[j];
    cursor += scratch.seen.insert(b[j].address);
  }
  out.assign(base, cursor);
}

/// View::merge(view, {{self, 0}}) specialisation for buffer building:
/// inserts {self, 0} at its sorted position. Precondition: `self` is not in
/// `buf` (a node never stores its own descriptor).
inline void insert_self(std::vector<NodeDescriptor>& buf, NodeId self) {
  const NodeDescriptor d{self, 0};
  PSS_DCHECK(std::none_of(buf.begin(), buf.end(),
                          [self](const NodeDescriptor& e) {
                            return e.address == self;
                          }));
  auto pos = std::upper_bound(buf.begin(), buf.end(), d, ByHopThenAddress{});
  buf.insert(pos, d);
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
// address-ascending) and concatenating the two blocks lands directly on the
// canonical (hop, address) order.
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
  rng.sample_indices_into(hi - lo, need, s.picks, s.fy);
  sort_small(s.picks);
  s.sel.clear();
  s.sel.reserve(k);
  if (from_head) {
    // Interior (fresher than the boundary) first, boundary picks after.
    s.sel.insert(s.sel.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(lo));
    for (std::size_t p : s.picks) s.sel.push_back(buf[lo + p]);
  } else {
    // Boundary picks are the freshest survivors of a tail selection.
    for (std::size_t p : s.picks) s.sel.push_back(buf[lo + p]);
    s.sel.insert(s.sel.end(), buf.begin() + static_cast<std::ptrdiff_t>(hi),
                 buf.end());
  }
  buf.swap(s.sel);
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
inline void select_rand(std::vector<NodeDescriptor>& buf, std::size_t c,
                        Rng& rng, Scratch& scratch) {
  const std::size_t k = std::min(c, buf.size());
  rng.sample_indices_into(buf.size(), k, scratch.picks, scratch.fy);
  // The picks span hop classes, but sorting them as indices into the
  // already-sorted buffer makes the gather land in canonical order — the
  // element re-sort View::select_rand pays is unnecessary here.
  detail::sort_small(scratch.picks);
  scratch.sel.clear();
  scratch.sel.reserve(k);
  for (std::size_t i : scratch.picks) scratch.sel.push_back(buf[i]);
  buf.swap(scratch.sel);
}

/// Fused merge + drop-self + select_head_unbiased: produces in `out`
/// exactly
///   merge_into(a, b, out, scratch, age_a); remove_address(out, self);
///   select_head_unbiased(out, c, rng, scratch);
/// with identical results and identical Rng consumption, in one streaming
/// pass. Head selection keeps the freshest c entries, so the merge can stop
/// at the selection boundary instead of materializing the full union: the
/// stream runs until c survivors are emitted, extends through the boundary
/// hop-class, and then only probes far enough to learn whether anything was
/// truncated (which decides whether the reference draws Rng at all). On the
/// event engine's hot path this cuts the per-absorb work nearly in half —
/// it is the kernel behind both engines' (.,head,.) exchanges.
/// Preconditions as merge_into: `a`, `b` normalized, `out` aliases neither.
/// Core of merge_select_head: streams into scratch.merge_arr and returns
/// the selected length (<= c). Requires a.size() + b.size() and c within
/// AddressSet::kMaxEntries — callers dispatch to the vector-based fallback
/// otherwise. The result is left in scratch.merge_arr so the caller can
/// hand it straight to FlatViewStore::assign without an intermediate copy.
/// Selection tail shared by the scalar and SIMD merge front-ends:
/// `next_raw` yields the (hop, address)-ordered union stream (duplicates
/// included); this routine applies the self-skip + dedup + boundary-sampled
/// head selection with the reference Rng consumption. Templated so the
/// scalar two-pointer stream inlines as before and the SIMD path reads its
/// pre-merged union linearly — both land in scratch.merge_arr.
template <typename NextRaw>
inline std::size_t select_head_streaming(NextRaw&& next_raw, NodeId self,
                                         std::size_t c, Rng& rng,
                                         Scratch& scratch) {
  scratch.seen.reset();
  auto next_survivor = [&](NodeDescriptor& d) -> bool {
    while (next_raw(d)) {
      if (d.address == self) continue;
      if (!scratch.seen.insert(d.address)) continue;
      return true;
    }
    return false;
  };

  NodeDescriptor* const base = scratch.merge_arr.data();
  NodeDescriptor* cursor = base;
  NodeDescriptor* const limit = base + c;
  NodeDescriptor d;
  while (cursor != limit && next_survivor(d)) *cursor++ = d;
  if (cursor != limit) {
    // Fewer than c survivors: nothing truncated, no Rng consumed (the
    // reference's k == n early-out).
    return static_cast<std::size_t>(cursor - base);
  }
  // Extend through the boundary hop-class; the first survivor beyond it
  // proves truncation. Exhausting the inputs inside the class leaves the
  // emitted count to decide.
  const HopCount boundary_hop = cursor[-1].hop_count;
  bool truncated = false;
  while (next_survivor(d)) {
    if (d.hop_count != boundary_hop) {
      truncated = true;
      break;
    }
    *cursor++ = d;
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
  const std::size_t need = c - lo;
  rng.sample_indices_into(total - lo, need, scratch.picks, scratch.fy);
  detail::sort_small(scratch.picks);
  // Ascending in-place gather: picks[t] >= t, so every read is at or ahead
  // of its write.
  for (std::size_t t = 0; t < need; ++t) {
    base[lo + t] = base[lo + scratch.picks[t]];
  }
  return c;
}

inline std::size_t merge_select_head_arr(DescSpan a, DescSpan b, NodeId self,
                                         std::size_t c, Rng& rng,
                                         Scratch& scratch, HopCount age_a) {
  PSS_DCHECK(detail::is_normalized(a) && detail::is_normalized(b));
  PSS_DCHECK(a.size() + b.size() <= AddressSet::kMaxEntries &&
             c <= AddressSet::kMaxEntries);
  PSS_DCHECK(c > 0);  // the boundary probe reads the c-th entry
  if (simd::use_union_merge(a.size(), b.size())) {
    // Vector front-end: materialize the sorted union (duplicates included)
    // with the 4-wide bitonic merge, then run the shared selection tail
    // over it linearly. The tail sees the same survivor stream as the
    // scalar front-end (equal keys are identical records), so results and
    // Rng draws are byte-identical; the early-stop economy the scalar
    // stream enjoys is traded for the vector merge's throughput.
    simd::aged_copy(scratch.pad_a.data(), a.data(), a.size(), age_a);
    simd::pad_after(scratch.pad_a.data(), a.size());
    simd::aged_copy(scratch.pad_b.data(), b.data(), b.size(), 0);
    simd::pad_after(scratch.pad_b.data(), b.size());
    simd::merge_union(scratch.pad_a.data(), a.size(), scratch.pad_b.data(),
                      b.size(), scratch.union_arr.data());
    const NodeDescriptor* const u = scratch.union_arr.data();
    const std::size_t total = a.size() + b.size();
    std::size_t t = 0;
    return select_head_streaming(
        [&](NodeDescriptor& d) -> bool {
          if (t >= total) return false;
          d = u[t++];
          return true;
        },
        self, c, rng, scratch);
  }
  // Scalar front-end: streams the (hop, address)-ordered union with the
  // same take rule and dedup as merge_into (including its on-the-fly aging
  // of the `a` side). The packed sort keys roll forward with the two
  // cursors so each iteration recomputes only the side it consumed.
  const std::uint64_t age_key = static_cast<std::uint64_t>(age_a) << 32;
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t ka = i < a.size() ? detail::sort_key(a[i]) + age_key : 0;
  std::uint64_t kb = j < b.size() ? detail::sort_key(b[j]) : 0;
  return select_head_streaming(
      [&](NodeDescriptor& d) -> bool {
        if (i < a.size() && j < b.size()) {
          if (ka < kb) {
            d = {a[i].address, a[i].hop_count + age_a};
            if (++i < a.size()) ka = detail::sort_key(a[i]) + age_key;
          } else {
            d = b[j];
            if (++j < b.size()) kb = detail::sort_key(b[j]);
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
      },
      self, c, rng, scratch);
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
