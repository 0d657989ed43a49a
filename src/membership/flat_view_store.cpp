#include "pss/membership/flat_view_store.hpp"

namespace pss {

void FlatViewStore::assign(NodeId slot, std::span<const NodeDescriptor> entries) {
  PSS_CHECK_MSG(slot < sizes_.size(), "flat store slot out of range");
  PSS_CHECK_MSG(entries.size() <= capacity_,
                "view exceeds the flat slot capacity (protocol view size c)");
#ifndef NDEBUG
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    PSS_CHECK_MSG(ByHopThenAddress{}(entries[i], entries[i + 1]),
                  "assign: entries not normalized (sorted, duplicate-free)");
  }
#endif
  NodeDescriptor* base =
      slots_.data() + static_cast<std::size_t>(slot) * capacity_;
  for (std::size_t i = 0; i < entries.size(); ++i) base[i] = entries[i];
  sizes_[slot] = static_cast<std::uint32_t>(entries.size());
}

bool FlatViewStore::erase_address(NodeId slot, NodeId address) {
  PSS_CHECK_MSG(slot < sizes_.size(), "flat store slot out of range");
  NodeDescriptor* base =
      slots_.data() + static_cast<std::size_t>(slot) * capacity_;
  const std::uint32_t n = sizes_[slot];
  for (std::uint32_t i = 0; i < n; ++i) {
    if (base[i].address == address) {
      for (std::uint32_t j = i + 1; j < n; ++j) base[j - 1] = base[j];
      sizes_[slot] = n - 1;
      return true;
    }
  }
  return false;
}

}  // namespace pss
