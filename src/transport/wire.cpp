#include "pss/transport/wire.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pss/common/check.hpp"

namespace pss::transport {
namespace {

// All multi-byte fields are little-endian, assembled byte-by-byte so the
// codec is endian-agnostic and never type-puns the input span.

void store_u16(std::byte* p, std::uint16_t v) {
  p[0] = static_cast<std::byte>(v & 0xFF);
  p[1] = static_cast<std::byte>((v >> 8) & 0xFF);
}

void store_u32(std::byte* p, std::uint32_t v) {
  p[0] = static_cast<std::byte>(v & 0xFF);
  p[1] = static_cast<std::byte>((v >> 8) & 0xFF);
  p[2] = static_cast<std::byte>((v >> 16) & 0xFF);
  p[3] = static_cast<std::byte>((v >> 24) & 0xFF);
}

void store_u64(std::byte* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t load_u16(const std::byte* p) {
  return static_cast<std::uint16_t>(std::to_integer<std::uint16_t>(p[0]) |
                                    (std::to_integer<std::uint16_t>(p[1]) << 8));
}

std::uint32_t load_u32(const std::byte* p) {
  return std::to_integer<std::uint32_t>(p[0]) |
         (std::to_integer<std::uint32_t>(p[1]) << 8) |
         (std::to_integer<std::uint32_t>(p[2]) << 16) |
         (std::to_integer<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::byte* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

// decode's duplicate-address check: an open-addressing set whose slots pack
// (generation << 32 | address), so emptying it between frames is one
// counter bump (flat::AddressSet's scheme). Unlike that table, fixed at
// AddressSet::kSlots for merge buffers, it is sized from each frame's
// count, so every capacity the codec accepts takes this one path. It is
// kept at most 1/16 full: each extra probe is a mispredicted branch, and a
// 31-record decode measured 235, 130, 100 and 82 ns at 1/2, 1/4, 1/8 and
// 1/16 load (4-vCPU KVM Xeon, GCC 12). At c = 30 that is a 4 KB table.
class RecordAddressSet {
 public:
  /// Empties the set and readies it for `count` inserts.
  void reset(std::size_t count) {
    int bits = kMinBits;
    while ((std::size_t{1} << bits) < kSlotsPerRecord * count) ++bits;
    const std::size_t slots = std::size_t{1} << bits;
    if (table_.size() < slots) table_.assign(slots, 0);
    mask_ = slots - 1;
    shift_ = 64 - bits;
    if (++generation_ == 0) {
      std::fill(table_.begin(), table_.end(), 0);
      generation_ = 1;
    }
  }

  /// Returns true when `addr` was not in the set (and inserts it).
  bool insert(NodeId addr) {
    const std::uint64_t tag = static_cast<std::uint64_t>(generation_) << 32;
    const std::uint64_t entry = tag | addr;
    // Fibonacci hashing: the product's top bits mix every address bit.
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{addr} * 0x9E3779B97F4A7C15ULL) >> shift_);
    while ((table_[i] & kGenMask) == tag) {
      if (table_[i] == entry) return false;
      i = (i + 1) & mask_;
    }
    table_[i] = entry;
    return true;
  }

 private:
  static constexpr int kMinBits = 4;
  static constexpr std::size_t kSlotsPerRecord = 16;
  static constexpr std::uint64_t kGenMask = 0xFFFFFFFF00000000ULL;

  std::vector<std::uint64_t> table_;
  std::size_t mask_ = 0;
  int shift_ = 64 - kMinBits;
  std::uint32_t generation_ = 0;
};

// decode's working memory, one per thread and shared by every codec that
// decodes there (the ServiceNode workspace pattern): memory per codec would
// add to every node. Both grow to the largest frame the thread decoded.
struct DecodeWorkspace {
  RecordAddressSet seen;                ///< the duplicate-address check
  std::vector<NodeDescriptor> records;  ///< ParsedFrame::entries' storage
};

DecodeWorkspace& decode_workspace(std::size_t count) {
  thread_local DecodeWorkspace ws;
  ws.seen.reset(count);
  if (ws.records.size() < count) ws.records.resize(count);
  return ws;
}

}  // namespace

const char* to_string(WireError error) {
  switch (error) {
    case WireError::kOk: return "ok";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadType: return "bad-type";
    case WireError::kBadProtocol: return "bad-protocol";
    case WireError::kBadReserved: return "bad-reserved";
    case WireError::kOversized: return "oversized";
    case WireError::kTrailingBytes: return "trailing-bytes";
    case WireError::kBadAddress: return "bad-address";
    case WireError::kBadDescriptor: return "bad-descriptor";
    case WireError::kNotNormalized: return "not-normalized";
  }
  return "unknown";
}

std::uint8_t encode_protocol(const ProtocolSpec& spec) {
  return static_cast<std::uint8_t>(static_cast<int>(spec.peer_selection) * 9 +
                                   static_cast<int>(spec.view_selection) * 3 +
                                   static_cast<int>(spec.view_propagation));
}

bool decode_protocol(std::uint8_t id, ProtocolSpec& out) {
  if (id >= 27) return false;
  out.peer_selection = static_cast<PeerSelection>(id / 9);
  out.view_selection = static_cast<ViewSelection>((id / 3) % 3);
  out.view_propagation = static_cast<ViewPropagation>(id % 3);
  return true;
}

WireCodec::WireCodec(std::size_t view_size) : max_entries_(view_size + 1) {
  PSS_CHECK_MSG(view_size >= 1, "WireCodec: view_size must be positive");
  PSS_CHECK_MSG(max_entries_ <= 0xFFFF,
                "WireCodec: view_size overflows the u16 count field");
}

void WireCodec::encode(const WireFrame& frame,
                       std::vector<std::byte>& out) const {
  const std::size_t count = frame.entries.size();
  PSS_CHECK_MSG(count <= max_entries_, "WireCodec::encode: payload too large");
  PSS_CHECK_MSG(frame.from != kInvalidNode && frame.to != kInvalidNode &&
                    frame.from != frame.to,
                "WireCodec::encode: invalid addressing");
#ifndef NDEBUG
  PSS_DCHECK(flat::detail::is_normalized(frame.entries));
#endif

  out.resize(frame_bytes(count));
  std::byte* p = out.data();
  p[0] = static_cast<std::byte>(kMagic0);
  p[1] = static_cast<std::byte>(kMagic1);
  p[2] = static_cast<std::byte>(kVersion);
  p[3] = static_cast<std::byte>(frame.type);
  p[4] = static_cast<std::byte>(encode_protocol(frame.spec));
  p[5] = static_cast<std::byte>(0);
  store_u16(p + 6, static_cast<std::uint16_t>(count));
  store_u32(p + 8, frame.from);
  store_u32(p + 12, frame.to);
  store_u32(p + 16, frame.tick);
  store_u64(p + 20, frame.exchange_id);
  std::byte* rec = p + kHeaderBytes;
  for (const NodeDescriptor& d : frame.entries) {
    store_u32(rec, d.address);
    store_u32(rec + 4, d.hop_count);
    rec += kRecordBytes;
  }
}

WireError WireCodec::decode(std::span<const std::byte> bytes,
                            ParsedFrame& out) {
  if (bytes.size() < kHeaderBytes) return WireError::kTruncated;
  const std::byte* p = bytes.data();
  if (std::to_integer<std::uint8_t>(p[0]) != kMagic0 ||
      std::to_integer<std::uint8_t>(p[1]) != kMagic1) {
    return WireError::kBadMagic;
  }
  if (std::to_integer<std::uint8_t>(p[2]) != kVersion) {
    return WireError::kBadVersion;
  }
  const std::uint8_t type = std::to_integer<std::uint8_t>(p[3]);
  if (type != static_cast<std::uint8_t>(FrameType::kRequest) &&
      type != static_cast<std::uint8_t>(FrameType::kReply)) {
    return WireError::kBadType;
  }
  if (!decode_protocol(std::to_integer<std::uint8_t>(p[4]), out.spec)) {
    return WireError::kBadProtocol;
  }
  if (std::to_integer<std::uint8_t>(p[5]) != 0) {
    return WireError::kBadReserved;
  }
  const std::size_t count = load_u16(p + 6);
  if (count > max_entries_) return WireError::kOversized;
  // Bounds-check the declared payload before touching a single record byte:
  // `count` is attacker-controlled until this line.
  if (bytes.size() < frame_bytes(count)) return WireError::kTruncated;
  if (bytes.size() > frame_bytes(count)) return WireError::kTrailingBytes;

  out.type = static_cast<FrameType>(type);
  out.from = load_u32(p + 8);
  out.to = load_u32(p + 12);
  out.tick = load_u32(p + 16);
  out.exchange_id = load_u64(p + 20);
  if (out.from == kInvalidNode || out.to == kInvalidNode ||
      out.from == out.to) {
    return WireError::kBadAddress;
  }

  // One pass loads the records and checks what lets a decoded span feed
  // absorb() directly: no sentinel address, strictly increasing (age,
  // address) keys, and unique addresses (key order alone admits one address
  // at two ages). A sentinel anywhere outranks disorder, so the
  // normalization verdict waits for the last record.
  DecodeWorkspace& ws = decode_workspace(count);
  NodeDescriptor* const records = ws.records.data();
  bool normalized = true;
  std::uint64_t prev_key = 0;
  const std::byte* rec = p + kHeaderBytes;
  for (std::size_t i = 0; i < count; ++i, rec += kRecordBytes) {
    NodeDescriptor& d = records[i];
    d.address = load_u32(rec);
    d.hop_count = load_u32(rec + 4);
    if (d.address == kInvalidNode) return WireError::kBadDescriptor;
    if (!normalized) continue;
    const std::uint64_t key = flat::detail::sort_key(d);
    normalized = (i == 0 || key > prev_key) && ws.seen.insert(d.address);
    prev_key = key;
  }
  if (!normalized) return WireError::kNotNormalized;

  out.entries = flat::DescSpan(records, count);
  return WireError::kOk;
}

}  // namespace pss::transport
