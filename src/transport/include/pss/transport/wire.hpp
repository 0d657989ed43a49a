#pragma once

// Wire format for descriptor-buffer exchanges (the middleware framing).
//
// A frame is one request or one reply of the paper's Figure-1 exchange,
// serialized to a bounded little-endian byte span:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     2  magic          0x50 0x53 ("PS")
//        2     1  version        kVersion (currently 1)
//        3     1  type           1 = request, 2 = reply
//        4     1  protocol id    ps*9 + vs*3 + vp, in [0, 27)
//        5     1  reserved       must be 0
//        6     2  count          number of descriptor records, u16
//        8     4  from           sender address (NodeId)
//       12     4  to             destination address (NodeId)
//       16     4  tick           sender-local period-tick stamp (Cycle)
//       20     8  exchange id    active side's exchange counter, u64
//       28   8*k  records        count x fixed-stride (address u32, age u32)
//
// Records reuse NodeDescriptor's layout semantics: `address` is the peer's
// NodeId, `age` its hop count. The payload must be normalized exactly like
// an in-arena view buffer — sorted by (age, address) with unique addresses —
// so a decoded span can feed flat_exchange kernels without re-validation.
//
// Decoding is strict and total: every malformed input maps to a typed
// WireError without reading past the span and without UB. The codec never
// trusts `count` before bounds-checking it against both the declared span
// length and the codec's configured capacity (view_size + 1, the largest
// buffer make_active_buffer can emit).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/membership/node_descriptor.hpp"
#include "pss/protocol/spec.hpp"

namespace pss::transport {

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
};

enum class WireError : std::uint8_t {
  kOk = 0,
  kTruncated,       // span shorter than header, or than header + count records
  kBadMagic,        // first two bytes are not "PS"
  kBadVersion,      // version byte != kVersion
  kBadType,         // type byte is neither request nor reply
  kBadProtocol,     // protocol id outside [0, 27)
  kBadReserved,     // reserved byte non-zero
  kOversized,       // count exceeds the codec's view_size + 1 capacity
  kTrailingBytes,   // span longer than header + count records
  kBadAddress,      // from/to invalid or equal (self-addressed frame)
  kBadDescriptor,   // a record carries the kInvalidNode sentinel address
  kNotNormalized,   // records not sorted by (age, address) or address repeated
};

const char* to_string(WireError error);

// Encode input: `entries` is borrowed for the duration of the call.
struct WireFrame {
  FrameType type = FrameType::kRequest;
  ProtocolSpec spec;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Cycle tick = 0;
  std::uint64_t exchange_id = 0;
  flat::DescSpan entries;
};

// Decode output: `entries` points into the decoding thread's record
// buffer and is valid until the next decode() on the same thread, by any
// codec.
struct ParsedFrame {
  FrameType type = FrameType::kRequest;
  ProtocolSpec spec;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Cycle tick = 0;
  std::uint64_t exchange_id = 0;
  flat::DescSpan entries;
};

// Maps a ProtocolSpec onto the single-byte wire id (ps*9 + vs*3 + vp) and
// back. decode_protocol returns false for ids outside the 27-point design
// space without touching `out`.
std::uint8_t encode_protocol(const ProtocolSpec& spec);
bool decode_protocol(std::uint8_t id, ProtocolSpec& out);

// A codec holds only its capacity, so one per node costs 8 bytes. decode
// checks the records in one pass and owns no heap: it writes them into one
// record buffer per thread, beside its duplicate-address table, both
// shared by every codec there. So a parsed frame's entries are invalidated
// by the next decode on the same thread, whichever codec runs it, and
// frames decoded on different threads never share storage.
class WireCodec {
 public:
  static constexpr std::size_t kHeaderBytes = 28;
  static constexpr std::size_t kRecordBytes = 8;
  static constexpr std::uint8_t kMagic0 = 0x50;  // 'P'
  static constexpr std::uint8_t kMagic1 = 0x53;  // 'S'
  static constexpr std::uint8_t kVersion = 1;

  // view_size is the protocol's c; the largest legal payload is c+1 records
  // (own descriptor prepended to a full view by make_active_buffer).
  explicit WireCodec(std::size_t view_size);

  std::size_t max_entries() const { return max_entries_; }
  std::size_t max_frame_bytes() const {
    return frame_bytes(max_entries_);
  }
  static constexpr std::size_t frame_bytes(std::size_t count) {
    return kHeaderBytes + kRecordBytes * count;
  }

  // Serializes `frame` into `out` (resized to the exact frame length,
  // capacity reused across calls). PSS_CHECKs the frame is one the decoder
  // would accept; honest senders built from arena views always satisfy it.
  void encode(const WireFrame& frame, std::vector<std::byte>& out) const;

  // Parses `bytes`, filling `out` on success. On any error `out` is left
  // unspecified and no byte past bytes.size() is read.
  WireError decode(std::span<const std::byte> bytes, ParsedFrame& out);

 private:
  std::size_t max_entries_;
};

}  // namespace pss::transport
