// Byzantine node policies for the engines' ExchangeTamper seam.
//
// The paper assumes correct (if failure-prone) nodes; any deployed peer
// sampling service also faces nodes that lie. AdversaryModel supplies the
// two classic attacks against gossip membership, as *policy* behind the
// mechanism-only ExchangeTamper interface in pss/sim/exchange_apply.hpp:
//
//   kHubPoison — a poisoner answers every exchange with exactly one
//     descriptor: itself at hop count 0, and it never ages its own view.
//     Honest nodes keep absorbing a maximally fresh self-advertisement, so
//     the poisoner's in-degree grows without bound (hub formation) — the
//     attack that defeats proximity-free random sampling by making the
//     "uniform" sample concentrate on the attacker.
//
//   kForgery — a forger ships its honest buffer's worth of entries, but
//     every one fabricated: the receiver's own address (which absorb must
//     drop — a property test pins that) plus `forged_per_message` addresses
//     drawn from a configurable dead range, all at hop 0. Honest views fill
//     with dead links, stressing exactly the self-healing machinery of
//     paper Figure 7.
//
// Byzantine membership is the id prefix [0, byzantine_count): a pure
// function of the config, so classification is a lock-free compare (the
// thread-safety requirement of the tamper contract). Forgery content is
// derived from counter-based streams — Rng::stream_at(seed, sender,
// per-sender call index) — so what a byzantine node sends depends only on
// its own call sequence, never on thread interleaving: a hooked
// Deterministic parallel run stays bit-identical to the hooked sequential
// engine at any thread count (pinned by tests/scenarios_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/membership/node_descriptor.hpp"
#include "pss/sim/exchange_apply.hpp"

namespace pss::scenarios {

/// Which lie a byzantine node tells; see the header comment.
enum class AdversaryKind : std::uint8_t {
  kHubPoison,  ///< always push {self, hop 0}; never age own view
  kForgery,    ///< push receiver's own address + fabricated dead addresses
};

struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kHubPoison;
  /// Ids [0, byzantine_count) are byzantine; everyone else is honest.
  std::size_t byzantine_count = 0;
  /// kForgery: fabricated descriptors per forged buffer. The tamper
  /// contract caps a buffer at view_size + 1 entries, and one slot is the
  /// receiver's own address, so this must be <= view_size.
  std::size_t forged_per_message = 8;
  /// kForgery: fabricated addresses are drawn uniformly from
  /// [fabricated_base, fabricated_base + fabricated_range). Point this
  /// outside the allocatable id range (ScenarioSpec uses 4n) so forged
  /// entries are guaranteed dead links.
  NodeId fabricated_base = 0;
  std::uint64_t fabricated_range = 1;
  /// Seed of the counter-based forge streams (kForgery only).
  std::uint64_t seed = 0;
};

class AdversaryModel : public sim::ExchangeTamper {
 public:
  explicit AdversaryModel(AdversaryConfig config);

  bool is_byzantine(NodeId node) const override {
    return node < config_.byzantine_count;
  }

  bool suppress_aging(NodeId node) const override {
    return config_.kind == AdversaryKind::kHubPoison && is_byzantine(node);
  }

  void forge_buffer(NodeId sender, NodeId receiver,
                    std::vector<NodeDescriptor>& buffer) override;

  const AdversaryConfig& config() const { return config_; }

  /// Buffers forged so far, summed over all byzantine senders. Only
  /// meaningful while no engine is running (per-sender counters are
  /// written from worker lanes mid-cycle).
  std::uint64_t forged_messages() const;

 private:
  AdversaryConfig config_;
  /// Per-sender forge call counters — the `counter` of each sender's
  /// Rng::stream_at stream. Distinct array elements per sender and the
  /// engines' serialization of any one sender's steps make the increments
  /// race-free without atomics.
  std::vector<std::uint32_t> forge_seq_;
};

}  // namespace pss::scenarios
