#include "pss/obs/graph_census.hpp"

#include <algorithm>
#include <bit>

#include "pss/common/check.hpp"

namespace pss::obs {

namespace {

/// Mirrors graph::degree_summary's accumulation exactly — same casts, same
/// live-ascending (= exact-graph vertex-ascending) order — so the returned
/// doubles are bit-equal, not merely close.
template <typename DegreeFn>
DegreeStats summarize_degrees(std::span<const NodeId> live, DegreeFn degree) {
  DegreeStats s;
  const std::size_t n = live.size();
  if (n == 0) return s;
  s.min = degree(live[0]);
  s.max = degree(live[0]);
  double sum = 0, sum_sq = 0;
  for (const NodeId id : live) {
    const std::size_t d = degree(id);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    sum += static_cast<double>(d);
    sum_sq += static_cast<double>(d) * static_cast<double>(d);
  }
  s.mean = sum / static_cast<double>(n);
  s.variance = sum_sq / static_cast<double>(n) - s.mean * s.mean;
  if (s.variance < 0) s.variance = 0;  // numeric noise
  return s;
}

/// Lane `lane`'s contiguous chunk [first, last) of `total` items: sizes
/// differ by at most one, earlier lanes take the remainder — a pure
/// function of (total, lanes, lane), so the decomposition is identical on
/// every run at a given lane count, and the concatenation over lanes is
/// always the full ascending range.
struct Chunk {
  std::size_t first, last;
};
Chunk lane_chunk(std::size_t total, unsigned lanes, unsigned lane) {
  const std::size_t per = total / lanes;
  const std::size_t rem = total % lanes;
  const std::size_t first =
      lane * per + std::min<std::size_t>(lane, rem);
  return {first, first + per + (lane < rem ? 1 : 0)};
}

/// Address w's bit within its word of an N-bit set.
std::uint64_t bit(NodeId w) { return std::uint64_t{1} << (w & 63); }

/// Grows a lane's N-bit address set to cover addresses [0, n) and returns
/// its words. Users leave the set all-zero, so growth only appends zeros.
std::uint64_t* address_set(std::vector<std::uint64_t>& set, std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  if (set.size() < words) set.resize(words, 0);
  return set.data();
}

}  // namespace

void GraphCensus::rebuild(const sim::Network& network) {
  net_ = &network;
  const std::size_t n = network.size();
  const std::size_t c = network.options().view_size;

  // Live list (ascending): index i is vertex i of the exact snapshot graph.
  live_list_.reserve(n);
  live_list_.clear();
  for (NodeId id = 0; id < n; ++id) {
    if (network.is_live(id)) live_list_.push_back(id);
  }

  const unsigned lanes = lanes_for(live_list_.size());

  // Pass 1 — one walk over the packed descriptors: live out-degrees and
  // in-degree counts (the "count" half of the CSR build). The edge filter
  // is exactly UndirectedGraph::from_network's: both endpoints live, no
  // self-loops, out-of-range addresses dropped. The entries the filter
  // discards are themselves paper observables, so they are tallied as they
  // stream past instead of re-walked: dead links (Figure 7's self-healing
  // metric — dead or out-of-range targets, self-loops excluded) and
  // cross-partition links (Section 8 — live targets in another group).
  // Both tallies match Network::count_dead_links /
  // count_cross_partition_links bit for bit (pinned by tests/obs_test.cpp);
  // the separate O(N·c) walks those helpers make are no longer needed when
  // a census was just rebuilt.
  //
  // Parallel shape: each lane walks its chunk of the live list. out_deg_[v]
  // has one writer (the lane owning v); in-degree counts go to a per-lane
  // array merged below; the three tallies are exact integer partials summed
  // in lane order — every reduction is order-insensitive integer math, so
  // the pass is bit-equal to the sequential walk by construction.
  out_deg_.assign(n, 0);
  in_off_.assign(n + 1, 0);
  directed_edges_ = 0;
  dead_links_ = 0;
  cross_links_ = 0;
  const bool partitioned = network.partitioned();
  if (lanes == 1) {
    for (const NodeId v : live_list_) {
      const std::uint32_t gv = partitioned ? network.partition_group(v) : 0;
      std::uint32_t out = 0;
      for (const NodeDescriptor& d : network.view_span(v)) {
        const NodeId w = d.address;
        if (w >= n || !network.is_live(w)) {
          ++dead_links_;
          continue;
        }
        if (w == v) continue;
        if (partitioned && network.partition_group(w) != gv) ++cross_links_;
        ++out;
        ++in_off_[w + 1];
      }
      out_deg_[v] = out;
      directed_edges_ += out;
    }
  } else {
    pool_->run([&](unsigned lane) {
      LaneScratch& sc = lanes_[lane];
      sc.in_cnt.assign(n, 0);
      const Chunk ch = lane_chunk(live_list_.size(), lanes, lane);
      sc.directed = sc.dead = sc.cross = 0;
      for (std::size_t i = ch.first; i < ch.last; ++i) {
        const NodeId v = live_list_[i];
        const std::uint32_t gv = partitioned ? network.partition_group(v) : 0;
        std::uint32_t out = 0;
        for (const NodeDescriptor& d : network.view_span(v)) {
          const NodeId w = d.address;
          if (w >= n || !network.is_live(w)) {
            ++sc.dead;
            continue;
          }
          if (w == v) continue;
          if (partitioned && network.partition_group(w) != gv) ++sc.cross;
          ++out;
          ++sc.in_cnt[w];
        }
        out_deg_[v] = out;
        sc.directed += out;
      }
    });
    for (unsigned lane = 0; lane < lanes; ++lane) {
      directed_edges_ += lanes_[lane].directed;
      dead_links_ += lanes_[lane].dead;
      cross_links_ += lanes_[lane].cross;
    }
    for (std::size_t w = 0; w < n; ++w) {
      std::uint32_t total = 0;
      for (unsigned lane = 0; lane < lanes; ++lane) {
        total += lanes_[lane].in_cnt[w];
      }
      in_off_[w + 1] = total;
    }
  }
  for (std::size_t i = 1; i <= n; ++i) in_off_[i] += in_off_[i - 1];

  // Pass 2 — fill. Sources are visited in ascending address order, so
  // every in-list comes out sorted without a sort. In parallel, lane l's
  // slice of target w's in-list starts after the slices of lanes < l
  // (cursor bases derived from the pass-1 per-lane counts): lanes hold
  // ascending chunks of the source list, so the concatenation is the same
  // sorted in-list the sequential fill produces, and every in_nbr_ cell
  // has exactly one writer.
  if (in_nbr_.capacity() < directed_edges_) {
    // First-rebuild warm-up: reserve the hard ceiling (every live view full
    // of live targets) so steady state never grows this buffer again.
    in_nbr_.reserve(std::max<std::size_t>(directed_edges_, n * c));
  }
  in_nbr_.resize(directed_edges_);
  if (lanes == 1) {
    cursor_.assign(in_off_.begin(), in_off_.end() - 1);
    for (const NodeId v : live_list_) {
      for (const NodeDescriptor& d : network.view_span(v)) {
        const NodeId w = d.address;
        if (w == v || w >= n || !network.is_live(w)) continue;
        in_nbr_[cursor_[w]++] = v;
      }
    }
  } else {
    for (unsigned lane = 0; lane < lanes; ++lane) {
      lanes_[lane].cursor.resize(n);
    }
    for (std::size_t w = 0; w < n; ++w) {
      std::size_t base = in_off_[w];
      for (unsigned lane = 0; lane < lanes; ++lane) {
        lanes_[lane].cursor[w] = base;
        base += lanes_[lane].in_cnt[w];
      }
    }
    pool_->run([&](unsigned lane) {
      LaneScratch& sc = lanes_[lane];
      const Chunk ch = lane_chunk(live_list_.size(), lanes, lane);
      for (std::size_t i = ch.first; i < ch.last; ++i) {
        const NodeId v = live_list_[i];
        for (const NodeDescriptor& d : network.view_span(v)) {
          const NodeId w = d.address;
          if (w == v || w >= n || !network.is_live(w)) continue;
          in_nbr_[sc.cursor[w]++] = v;
        }
      }
    });
  }

  // Pass 3 — mutual bits and undirected-union degrees. v's in-list goes
  // into the lane's address set; then view entry k of v is mutual exactly
  // when its target's bit is set. In-lists hold only live non-self sources,
  // so a dead, self or out-of-range target never finds its bit: the range
  // check is the only filter. The bits are stored per view entry (read
  // back by the clustering sweep), the set words the in-list touched are
  // zeroed again, and und = out + in − mutual. Reads are shared (the CSR
  // is frozen now), a node's degree and mutual words have one writer, and
  // the per-lane sum/max partials merge exactly in lane order.
  mutual_words_ = (c + 63) / 64;
  mutual_.resize(n * mutual_words_);
  und_deg_.assign(n, 0);
  fan_out(lanes, [&](unsigned lane) {
    LaneScratch& sc = lanes_[lane];
    std::uint64_t* const set = address_set(sc.set, n);
    const Chunk ch = lane_chunk(live_list_.size(), lanes, lane);
    sc.und_sum = 0;
    sc.und_max = 0;
    for (std::size_t i = ch.first; i < ch.last; ++i) {
      const NodeId v = live_list_[i];
      const std::span<const NodeId> sources = in_list(v);
      for (const NodeId w : sources) set[w >> 6] |= bit(w);
      std::uint64_t* const bits = mutual_.data() + v * mutual_words_;
      std::fill_n(bits, mutual_words_, 0);
      std::uint32_t mutual = 0;
      std::size_t k = 0;
      for (const NodeDescriptor& d : network.view_span(v)) {
        const NodeId w = d.address;
        const std::uint64_t m = w < n ? (set[w >> 6] >> (w & 63)) & 1 : 0;
        bits[k >> 6] |= m << (k & 63);
        mutual += static_cast<std::uint32_t>(m);
        ++k;
      }
      for (const NodeId w : sources) set[w >> 6] = 0;
      const std::uint32_t und = out_deg_[v] + in_degree(v) - mutual;
      und_deg_[v] = und;
      sc.und_sum += und;
      sc.und_max = std::max<std::size_t>(sc.und_max, und);
    }
  });
  std::size_t max_deg = 0;
  std::uint64_t und_sum = 0;
  for (unsigned lane = 0; lane < lanes; ++lane) {
    und_sum += lanes_[lane].und_sum;
    max_deg = std::max(max_deg, lanes_[lane].und_max);
  }
  undirected_edges_ = und_sum / 2;

  const std::size_t hist_size = max_deg + 1;
  if (hist_.capacity() < hist_size) {
    // Reserve 2x ahead of need (floor 512): after the warm-up snapshot,
    // another allocation requires the max union degree to outgrow double
    // its warm-up value — a protocol regime change, not the steady-state
    // drift a converged overlay exhibits.
    hist_.reserve(std::max<std::size_t>(512, 2 * hist_size));
  }
  hist_.assign(hist_size, 0);
  for (const NodeId v : live_list_) ++hist_[und_deg_[v]];

  und_stats_ = summarize_degrees(
      live_list_, [this](NodeId id) { return std::size_t{und_deg_[id]}; });
  in_stats_ = summarize_degrees(
      live_list_, [this](NodeId id) { return std::size_t{in_degree(id)}; });
  out_stats_ = summarize_degrees(
      live_list_, [this](NodeId id) { return std::size_t{out_deg_[id]}; });

  // Pass 4 — connected components by union-find over view slots. Stays
  // serial: path-halving mutates shared parent chains.
  parent_.resize(n);
  comp_size_.resize(n);
  for (const NodeId v : live_list_) {
    parent_[v] = v;
    comp_size_[v] = 1;
  }
  for (const NodeId v : live_list_) {
    for (const NodeDescriptor& d : network.view_span(v)) {
      const NodeId w = d.address;
      if (w == v || w >= n || !network.is_live(w)) continue;
      unite(v, w);
    }
  }
  comp_sizes_.reserve(n);
  comp_sizes_.clear();
  for (const NodeId v : live_list_) {
    if (find_root(v) == v) comp_sizes_.push_back(comp_size_[v]);
  }
  std::sort(comp_sizes_.rbegin(), comp_sizes_.rend());
  components_.count = comp_sizes_.size();
  components_.largest = comp_sizes_.empty() ? 0 : comp_sizes_.front();
  components_.outside_largest = live_list_.size() - components_.largest;
}

void GraphCensus::reserve(std::size_t n, std::size_t c) {
  // A union degree is below the live count, so n bins hold any histogram,
  // and an exact estimator picks at most n nodes.
  for (auto* v : {&live_list_, &out_deg_, &und_deg_, &parent_, &comp_size_}) {
    v->reserve(n);
  }
  for (auto* v : {&hist_, &seen_, &frontier_, &next_}) v->reserve(n);
  for (auto* v : {&in_off_, &cursor_, &comp_sizes_, &picks_}) v->reserve(n + 1);
  in_nbr_.reserve(n * c);
  mutual_.reserve(n * ((c + 63) / 64));
  pick_clust_.reserve(n);
  const unsigned lanes = lanes_for(n);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    lanes_[lane].set.reserve((n + 63) / 64);
    if (lanes > 1) {
      lanes_[lane].in_cnt.reserve(n);
      lanes_[lane].cursor.reserve(n);
    }
  }
}

std::uint32_t GraphCensus::find_root(std::uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void GraphCensus::unite(std::uint32_t a, std::uint32_t b) {
  std::uint32_t ra = find_root(a);
  std::uint32_t rb = find_root(b);
  if (ra == rb) return;
  if (comp_size_[ra] < comp_size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  comp_size_[ra] += comp_size_[rb];
}

void GraphCensus::pick_live_nodes(std::size_t sample, Rng& rng) {
  const std::size_t n = live_list_.size();
  if (sample >= n) {
    // Every live node, ascending — the exact module's vertex order (its
    // exhaustive estimators consume no randomness either).
    picks_.resize(n);
    for (std::size_t i = 0; i < n; ++i) picks_[i] = i;
  } else {
    // Same draw sequence as rng.sample_indices (which delegates here), so a
    // cloned Rng reproduces the graph:: sampled estimators bit-exactly.
    rng.sample_indices_into(n, sample, picks_, pick_scratch_);
  }
}

double GraphCensus::local_clustering(NodeId v, LaneScratch& sc) const {
  const std::uint32_t d = und_deg_[v];
  if (d < 2) return 0;
  const sim::Network& network = *net_;
  const std::size_t n = network.size();
  std::uint64_t* const set = sc.set.data();
  const std::span<const NodeId> sources = in_list(v);
  const std::span<const NodeDescriptor> view = network.view_span(v);
  const std::uint64_t* const v_bits = mutual_.data() + v * mutual_words_;
  const auto mutual_bit = [](const std::uint64_t* bits, std::size_t k) {
    return (bits[k >> 6] >> (k & 63)) & 1;
  };
  // N(v) is v's in-list plus its live non-self out-targets; an out-target
  // carrying a mutual bit is already in the in-list, so listing the
  // members that way visits each exactly once.
  for (const NodeId w : sources) set[w >> 6] |= bit(w);
  for (const NodeDescriptor& desc : view) {
    const NodeId w = desc.address;
    if (w == v || w >= n || !network.is_live(w)) continue;
    set[w >> 6] |= bit(w);
  }
  // One sweep of each member a's view: `directed` counts a's entries
  // pointing into N(v), `mutual` those of them whose target points back.
  // A mutual pair is one undirected edge seen from both ends, so the
  // edges among N(v) number directed − mutual/2. Only live members carry
  // a bit, so dead targets need no liveness test — just the range check
  // and skipping a's own address.
  std::uint64_t directed = 0, mutual = 0;
  const auto sweep = [&](NodeId a) {
    const std::uint64_t* const a_bits = mutual_.data() + a * mutual_words_;
    std::size_t k = 0;
    for (const NodeDescriptor& desc : network.view_span(a)) {
      const NodeId w = desc.address;
      const std::uint64_t m =
          w < n && w != a ? (set[w >> 6] >> (w & 63)) & 1 : 0;
      directed += m;
      mutual += m & mutual_bit(a_bits, k);
      ++k;
    }
  };
  for (const NodeId a : sources) sweep(a);
  std::size_t members = sources.size();
  std::size_t k = 0;
  for (const NodeDescriptor& desc : view) {
    const NodeId w = desc.address;
    if (w != v && w < n && network.is_live(w) && !mutual_bit(v_bits, k)) {
      sweep(w);
      ++members;
    }
    ++k;
  }
  PSS_DCHECK(members == d);
  for (const NodeId w : sources) set[w >> 6] = 0;
  for (const NodeDescriptor& desc : view) {
    if (desc.address < n) set[desc.address >> 6] = 0;
  }
  const std::uint64_t links = directed - mutual / 2;
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

double GraphCensus::clustering_sampled(std::size_t sample, Rng& rng) {
  PSS_CHECK_MSG(net_ != nullptr, "rebuild() before sampling");
  if (live_list_.empty()) return 0;
  PSS_CHECK_MSG(sample > 0, "sample size must be positive");
  pick_live_nodes(sample, rng);
  const std::size_t count = picks_.size();
  const std::size_t net_n = net_->size();
  pick_clust_.resize(count);
  // Each pick's coefficient is a pure function of the frozen census, so
  // lanes compute contiguous chunks independently; the serial pick-order
  // reduction below is the exact module's double accumulation.
  const unsigned lanes = lanes_for(count);
  fan_out(lanes, [&](unsigned lane) {
    LaneScratch& sc = lanes_[lane];
    address_set(sc.set, net_n);
    const Chunk ch = lane_chunk(count, lanes, lane);
    for (std::size_t i = ch.first; i < ch.last; ++i) {
      pick_clust_[i] = local_clustering(live_list_[picks_[i]], sc);
    }
  });
  double sum = 0;
  for (std::size_t i = 0; i < count; ++i) sum += pick_clust_[i];
  return sum / static_cast<double>(count);
}

std::uint64_t GraphCensus::bfs_level(std::size_t first, std::size_t last,
                                     std::uint64_t all) {
  const sim::Network& network = *net_;
  const std::size_t n = network.size();
  std::uint64_t reached = 0;
  for (std::size_t i = first; i < last; ++i) {
    const NodeId v = live_list_[i];
    const std::uint64_t seen = seen_[v];
    std::uint64_t fresh = 0;
    if (seen != all) {
      // Pull: v is reached by every source whose frontier touches one of
      // its neighbours (view span ∪ in-list). Dead targets hold an all-zero
      // frontier and v's own bits are already seen, so no liveness or
      // self filter is needed — only the range check.
      std::uint64_t acc = 0;
      for (const NodeDescriptor& d : network.view_span(v)) {
        if (d.address < n) acc |= frontier_[d.address];
      }
      if ((acc | seen) != all) {  // the in-list can only add missing bits
        for (const NodeId w : in_list(v)) acc |= frontier_[w];
      }
      fresh = acc & ~seen;
      seen_[v] = seen | fresh;
      reached += static_cast<std::uint64_t>(std::popcount(fresh));
    }
    next_[v] = fresh;
  }
  return reached;
}

PathLengthEstimate GraphCensus::path_length_sampled(std::size_t sources,
                                                    Rng& rng) {
  PSS_CHECK_MSG(net_ != nullptr, "rebuild() before sampling");
  const std::size_t n = live_list_.size();
  PathLengthEstimate r;
  if (n == 0) return r;
  PSS_CHECK_MSG(sources > 0, "source sample must be positive");
  if (n < 2) return r;
  pick_live_nodes(sources, rng);
  const std::size_t count = picks_.size();
  const std::size_t net_n = net_->size();
  seen_.resize(net_n);
  frontier_.resize(net_n);
  next_.resize(net_n);

  // Bit-parallel BFS: source j of a batch of up to 64 owns bit j of every
  // node's seen/frontier/next word, so one sweep over the live list
  // advances all of them a level. The level-L sweep reaches `reached`
  // (source, node) pairs, each at distance exactly L, so the distance sum,
  // reachable-pair count and diameter are exact integers. The exact module
  // accumulates the same distances one by one into a double; every partial
  // sum is an integer below 2^53, so that double equals this integer total
  // converted once, whatever the order.
  std::uint64_t total = 0;
  std::uint64_t reachable_pairs = 0;
  std::uint32_t diameter = 0;
  const unsigned lanes = lanes_for(n);
  for (std::size_t b = 0; b < count; b += 64) {
    const std::size_t k = std::min<std::size_t>(64, count - b);
    const std::uint64_t all = k == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << k) - 1;
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(frontier_.begin(), frontier_.end(), 0);
    std::fill(next_.begin(), next_.end(), 0);
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId s = live_list_[picks_[b + j]];
      seen_[s] |= std::uint64_t{1} << j;
      frontier_[s] |= std::uint64_t{1} << j;
    }
    for (std::uint32_t level = 1;; ++level) {
      // Lanes sweep contiguous chunks of the live list: each writes only
      // its own nodes' seen/next words and reads the frozen frontier.
      fan_out(lanes, [&](unsigned lane) {
        const Chunk ch = lane_chunk(n, lanes, lane);
        lanes_[lane].reached = bfs_level(ch.first, ch.last, all);
      });
      std::uint64_t reached = 0;
      for (unsigned lane = 0; lane < lanes; ++lane) {
        reached += lanes_[lane].reached;
      }
      if (reached == 0) break;
      total += std::uint64_t{level} * reached;
      reachable_pairs += reached;
      diameter = std::max(diameter, level);
      frontier_.swap(next_);
    }
  }
  const std::uint64_t all_pairs = static_cast<std::uint64_t>(count) * (n - 1);
  r.average = reachable_pairs > 0 ? static_cast<double>(total) /
                                        static_cast<double>(reachable_pairs)
                                  : 0;
  r.reachable_fraction =
      all_pairs > 0
          ? static_cast<double>(reachable_pairs) / static_cast<double>(all_pairs)
          : 1;
  r.diameter = diameter;
  return r;
}

std::size_t GraphCensus::storage_bytes() const {
  std::size_t lane_bytes = 0;
  for (const LaneScratch& sc : lanes_) {
    lane_bytes += sc.in_cnt.capacity() * sizeof(std::uint32_t) +
                  sc.cursor.capacity() * sizeof(std::size_t) +
                  sc.set.capacity() * sizeof(std::uint64_t);
  }
  return live_list_.capacity() * sizeof(NodeId) +
         out_deg_.capacity() * sizeof(std::uint32_t) +
         und_deg_.capacity() * sizeof(std::uint32_t) +
         mutual_.capacity() * sizeof(std::uint64_t) +
         in_off_.capacity() * sizeof(std::size_t) +
         in_nbr_.capacity() * sizeof(NodeId) +
         cursor_.capacity() * sizeof(std::size_t) +
         hist_.capacity() * sizeof(std::uint64_t) +
         parent_.capacity() * sizeof(std::uint32_t) +
         comp_size_.capacity() * sizeof(std::uint32_t) +
         comp_sizes_.capacity() * sizeof(std::size_t) +
         seen_.capacity() * sizeof(std::uint64_t) +
         frontier_.capacity() * sizeof(std::uint64_t) +
         next_.capacity() * sizeof(std::uint64_t) +
         picks_.capacity() * sizeof(std::size_t) +
         pick_scratch_.capacity() * sizeof(std::size_t) +
         pick_clust_.capacity() * sizeof(double) + lane_bytes;
}

}  // namespace pss::obs
