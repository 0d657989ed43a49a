// Wire-format contract tests: exhaustive encode -> decode -> re-encode
// roundtrips across the protocol design space, and a table-driven
// malformed-frame suite asserting every corruption maps to its typed
// WireError. Frame comparison is field-by-field plus payload memcmp (the
// galera msg_equal idiom); "no reads past the span" is enforced by running
// this suite under ASan/UBSan in CI against exactly-sized heap buffers.

#include "pss/transport/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/membership/flat_ops.hpp"

namespace pss::transport {
namespace {

// Random normalized payload: unique small addresses, random ages, brought
// to canonical (age, address) order by the production normalize().
std::vector<NodeDescriptor> random_entries(Rng& rng, std::size_t n) {
  std::vector<NodeDescriptor> v;
  std::vector<NodeId> addrs;
  for (NodeId a = 0; addrs.size() < n; ++a) addrs.push_back(a * 3 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(NodeDescriptor{addrs[i],
                               static_cast<HopCount>(rng.below(50))});
  }
  flat::normalize(v);
  return v;
}

WireFrame make_frame(const std::vector<NodeDescriptor>& entries,
                     FrameType type = FrameType::kRequest,
                     ProtocolSpec spec = ProtocolSpec::newscast()) {
  WireFrame f;
  f.type = type;
  f.spec = spec;
  f.from = 7;
  f.to = 12;
  f.tick = 41;
  f.exchange_id = 0x0123456789ABCDEFull;
  f.entries = flat::DescSpan(entries);
  return f;
}

// msg_equal: every header field, then the payload record-by-record.
void expect_frames_equal(const WireFrame& sent, const ParsedFrame& got) {
  EXPECT_EQ(sent.type, got.type);
  EXPECT_EQ(sent.spec, got.spec);
  EXPECT_EQ(sent.from, got.from);
  EXPECT_EQ(sent.to, got.to);
  EXPECT_EQ(sent.tick, got.tick);
  EXPECT_EQ(sent.exchange_id, got.exchange_id);
  ASSERT_EQ(sent.entries.size(), got.entries.size());
  for (std::size_t i = 0; i < sent.entries.size(); ++i) {
    EXPECT_EQ(sent.entries[i], got.entries[i]) << "record " << i;
  }
}

// Decode from an exactly-sized heap buffer so ASan catches any read past
// the declared span end.
WireError decode_tight(WireCodec& codec, const std::vector<std::byte>& bytes,
                       ParsedFrame& out) {
  std::vector<std::byte> tight(bytes);
  tight.shrink_to_fit();
  return codec.decode(std::span<const std::byte>(tight), out);
}

TEST(WireCodec, RoundtripAllProtocolsAndSizes) {
  Rng rng(0xC0DEC001);
  for (const ProtocolSpec& spec : ProtocolSpec::all()) {
    // 200: a 201-record frame outgrows flat::AddressSet::kMaxEntries, and
    // the daemon takes c from its command line, so such frames are legal.
    for (std::size_t view_size : {std::size_t{1}, std::size_t{4},
                                  std::size_t{30}, std::size_t{200}}) {
      WireCodec codec(view_size);
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, view_size,
                            view_size + 1}) {
        const auto entries = random_entries(rng, n);
        for (FrameType type : {FrameType::kRequest, FrameType::kReply}) {
          const WireFrame frame = make_frame(entries, type, spec);
          std::vector<std::byte> bytes;
          codec.encode(frame, bytes);
          ASSERT_EQ(bytes.size(), WireCodec::frame_bytes(n));

          ParsedFrame parsed;
          ASSERT_EQ(decode_tight(codec, bytes, parsed), WireError::kOk)
              << spec.name() << " n=" << n;
          expect_frames_equal(frame, parsed);

          // Re-encode of the parsed frame must be byte-identical: the
          // format has exactly one representation per logical frame.
          WireFrame again;
          again.type = parsed.type;
          again.spec = parsed.spec;
          again.from = parsed.from;
          again.to = parsed.to;
          again.tick = parsed.tick;
          again.exchange_id = parsed.exchange_id;
          again.entries = parsed.entries;
          std::vector<std::byte> bytes2;
          codec.encode(again, bytes2);
          ASSERT_EQ(bytes.size(), bytes2.size());
          EXPECT_EQ(0,
                    std::memcmp(bytes.data(), bytes2.data(), bytes.size()));
        }
      }
    }
  }
}

TEST(WireCodec, ProtocolIdBijection) {
  for (const ProtocolSpec& spec : ProtocolSpec::all()) {
    const std::uint8_t id = encode_protocol(spec);
    ASSERT_LT(id, 27);
    ProtocolSpec back;
    ASSERT_TRUE(decode_protocol(id, back));
    EXPECT_EQ(spec, back) << spec.name();
  }
  ProtocolSpec sink;
  for (int id = 27; id <= 255; ++id) {
    EXPECT_FALSE(decode_protocol(static_cast<std::uint8_t>(id), sink));
  }
}

TEST(WireCodec, CodecsOfDifferentViewSizesShareOneThreadsRecordBuffer) {
  // decode owns no heap: it writes the records into one buffer per thread.
  // A c = 5 and a c = 30 codec decoding interleaved frames on one thread
  // each get every frame back whole, and a parsed frame lasts until the
  // next decode on the thread, whichever codec runs it.
  Rng rng(0xC0DEC005);
  WireCodec small(5);
  WireCodec large(30);
  for (int round = 0; round < 200; ++round) {
    for (WireCodec* codec : {&large, &small}) {
      const auto n =
          static_cast<std::size_t>(rng.below(codec->max_entries() + 1));
      const auto entries = random_entries(rng, n);
      const WireFrame frame = make_frame(entries);
      std::vector<std::byte> bytes;
      codec->encode(frame, bytes);
      ParsedFrame parsed;
      ASSERT_EQ(decode_tight(*codec, bytes, parsed), WireError::kOk);
      expect_frames_equal(frame, parsed);
    }
  }

  const auto long_entries = random_entries(rng, 31);
  const auto short_entries = random_entries(rng, 6);
  std::vector<std::byte> long_bytes;
  std::vector<std::byte> short_bytes;
  large.encode(make_frame(long_entries), long_bytes);
  small.encode(make_frame(short_entries), short_bytes);
  ParsedFrame first;
  ParsedFrame second;
  ASSERT_EQ(decode_tight(large, long_bytes, first), WireError::kOk);
  ASSERT_EQ(decode_tight(small, short_bytes, second), WireError::kOk);
  EXPECT_EQ(first.entries.data(), second.entries.data());

  // Another thread decodes into its own buffer and leaves this one alone.
  std::thread([&] {
    ParsedFrame other;
    ASSERT_EQ(decode_tight(large, long_bytes, other), WireError::kOk);
    expect_frames_equal(make_frame(long_entries), other);
  }).join();
  expect_frames_equal(make_frame(short_entries), second);
}

TEST(WireCodec, HeaderLayoutIsStable) {
  // The layout documented in wire.hpp, pinned byte-for-byte: any change is
  // a wire-format break and must bump kVersion.
  Rng rng(0xC0DEC002);
  const auto entries = random_entries(rng, 2);
  WireCodec codec(4);
  std::vector<std::byte> bytes;
  codec.encode(make_frame(entries), bytes);
  ASSERT_EQ(bytes.size(), 28u + 2 * 8u);
  EXPECT_EQ(std::to_integer<int>(bytes[0]), 0x50);
  EXPECT_EQ(std::to_integer<int>(bytes[1]), 0x53);
  EXPECT_EQ(std::to_integer<int>(bytes[2]), 1);   // version
  EXPECT_EQ(std::to_integer<int>(bytes[3]), 1);   // request
  EXPECT_EQ(std::to_integer<int>(bytes[4]),
            encode_protocol(ProtocolSpec::newscast()));
  EXPECT_EQ(std::to_integer<int>(bytes[5]), 0);   // reserved
  EXPECT_EQ(std::to_integer<int>(bytes[6]), 2);   // count LE lo
  EXPECT_EQ(std::to_integer<int>(bytes[7]), 0);   // count LE hi
  EXPECT_EQ(std::to_integer<int>(bytes[8]), 7);   // from
  EXPECT_EQ(std::to_integer<int>(bytes[12]), 12); // to
  EXPECT_EQ(std::to_integer<int>(bytes[16]), 41); // tick
  EXPECT_EQ(std::to_integer<int>(bytes[20]), 0xEF); // exchange id LE lo
  // First record: address then age, both LE u32.
  EXPECT_EQ(std::to_integer<unsigned>(bytes[28]), entries[0].address & 0xFF);
  EXPECT_EQ(std::to_integer<unsigned>(bytes[32]),
            entries[0].hop_count & 0xFF);
}

// --- Malformed-frame suite -------------------------------------------------

struct Mutation {
  const char* name;
  std::size_t offset;
  std::uint8_t value;
  WireError expected;
};

class WireCodecMalformed : public ::testing::Test {
 protected:
  WireCodecMalformed() : codec_(4) {
    Rng rng(0xBADF00D5);
    entries_ = random_entries(rng, 3);
    codec_.encode(make_frame(entries_), bytes_);
  }

  WireError decode_mutated(std::size_t offset, std::uint8_t value) {
    std::vector<std::byte> mutated(bytes_);
    mutated[offset] = static_cast<std::byte>(value);
    ParsedFrame out;
    return decode_tight(codec_, mutated, out);
  }

  WireCodec codec_;
  std::vector<NodeDescriptor> entries_;
  std::vector<std::byte> bytes_;
};

TEST_F(WireCodecMalformed, EveryHeaderFieldMutationIsTyped) {
  const Mutation kTable[] = {
      {"magic byte 0", 0, 0x00, WireError::kBadMagic},
      {"magic byte 1", 1, 0xFF, WireError::kBadMagic},
      {"future version", 2, 2, WireError::kBadVersion},
      {"zero version", 2, 0, WireError::kBadVersion},
      {"type zero", 3, 0, WireError::kBadType},
      {"type out of range", 3, 3, WireError::kBadType},
      {"type garbage", 3, 0xFF, WireError::kBadType},
      {"protocol id 27", 4, 27, WireError::kBadProtocol},
      {"protocol id 255", 4, 0xFF, WireError::kBadProtocol},
      {"reserved set", 5, 1, WireError::kBadReserved},
      // count = 4 still fits the codec (max 5) but not the span.
      {"count inflated in range", 6, 4, WireError::kTruncated},
      {"count over codec capacity", 6, 6, WireError::kOversized},
      {"count huge (hi byte)", 7, 0x40, WireError::kOversized},
      {"count deflated", 6, 2, WireError::kTrailingBytes},
      {"count zeroed", 6, 0, WireError::kTrailingBytes},
  };
  for (const Mutation& m : kTable) {
    EXPECT_EQ(decode_mutated(m.offset, m.value), m.expected) << m.name;
  }
}

TEST_F(WireCodecMalformed, BadAddressing) {
  // from == to.
  {
    std::vector<std::byte> mutated(bytes_);
    mutated[8] = mutated[12];
    mutated[9] = mutated[13];
    mutated[10] = mutated[14];
    mutated[11] = mutated[15];
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, mutated, out), WireError::kBadAddress);
  }
  // from == kInvalidNode.
  {
    std::vector<std::byte> mutated(bytes_);
    for (std::size_t i = 8; i < 12; ++i) {
      mutated[i] = static_cast<std::byte>(0xFF);
    }
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, mutated, out), WireError::kBadAddress);
  }
  // to == kInvalidNode.
  {
    std::vector<std::byte> mutated(bytes_);
    for (std::size_t i = 12; i < 16; ++i) {
      mutated[i] = static_cast<std::byte>(0xFF);
    }
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, mutated, out), WireError::kBadAddress);
  }
}

TEST_F(WireCodecMalformed, BadPayloads) {
  const std::size_t rec0 = WireCodec::kHeaderBytes;
  // Sentinel address in a record.
  {
    std::vector<std::byte> mutated(bytes_);
    for (std::size_t i = 0; i < 4; ++i) {
      mutated[rec0 + i] = static_cast<std::byte>(0xFF);
    }
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, mutated, out), WireError::kBadDescriptor);
  }
  // Records out of (age, address) order: swap record 0 and 1.
  {
    std::vector<std::byte> mutated(bytes_);
    for (std::size_t i = 0; i < WireCodec::kRecordBytes; ++i) {
      std::swap(mutated[rec0 + i], mutated[rec0 + WireCodec::kRecordBytes + i]);
    }
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, mutated, out), WireError::kNotNormalized);
  }
  // Exact duplicate record.
  {
    std::vector<std::byte> mutated(bytes_);
    for (std::size_t i = 0; i < WireCodec::kRecordBytes; ++i) {
      mutated[rec0 + WireCodec::kRecordBytes + i] = mutated[rec0 + i];
    }
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, mutated, out), WireError::kNotNormalized);
  }
  // Same address at two different ages — sorted, but still a duplicate.
  {
    std::vector<NodeDescriptor> dup = {{5, 1}, {9, 2}, {5, 3}};
    ASSERT_TRUE(std::is_sorted(dup.begin(), dup.end(), ByHopThenAddress{}));
    // Splice the records into a byte-level copy of a valid frame (encode()
    // itself refuses to produce this).
    std::vector<std::byte> raw(bytes_);
    for (std::size_t r = 0; r < dup.size(); ++r) {
      const std::size_t off = rec0 + r * WireCodec::kRecordBytes;
      raw[off] = static_cast<std::byte>(dup[r].address & 0xFF);
      raw[off + 1] = raw[off + 2] = raw[off + 3] = static_cast<std::byte>(0);
      raw[off + 4] = static_cast<std::byte>(dup[r].hop_count & 0xFF);
      raw[off + 5] = raw[off + 6] = raw[off + 7] = static_cast<std::byte>(0);
    }
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, raw, out), WireError::kNotNormalized);
  }
}

TEST_F(WireCodecMalformed, TruncationAtEveryByteOffset) {
  // Every strict prefix of a valid frame is kTruncated: either the header
  // is incomplete, or the count field promises more records than the span
  // holds. No prefix may parse, crash, or read out of bounds.
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    std::vector<std::byte> prefix(bytes_.begin(), bytes_.begin() + len);
    prefix.shrink_to_fit();
    ParsedFrame out;
    EXPECT_EQ(codec_.decode(std::span<const std::byte>(prefix), out),
              WireError::kTruncated)
        << "prefix length " << len;
  }
}

TEST_F(WireCodecMalformed, TrailingBytesRejected) {
  for (std::size_t extra : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    std::vector<std::byte> padded(bytes_);
    padded.resize(bytes_.size() + extra, static_cast<std::byte>(0));
    ParsedFrame out;
    EXPECT_EQ(decode_tight(codec_, padded, out), WireError::kTrailingBytes);
  }
}

TEST_F(WireCodecMalformed, OversizedPayloadWithMatchingLengthRejected) {
  // A frame that consistently declares max_entries + 1 records (length
  // matches!) must still be rejected by the capacity bound.
  Rng rng(0xBADF00D6);
  const auto big = random_entries(rng, codec_.max_entries() + 1);
  WireCodec wide(codec_.max_entries());  // capacity max_entries + 1
  std::vector<std::byte> bytes;
  wide.encode(make_frame(big), bytes);
  ParsedFrame out;
  EXPECT_EQ(decode_tight(codec_, bytes, out), WireError::kOversized);
}

// The record checks decode ran before its one-pass rewrite, kept as the
// oracle: a sentinel anywhere first, then adjacent (age, address) order,
// then a sorted copy of the addresses for duplicates.
WireError reference_record_verdict(const std::vector<NodeDescriptor>& records) {
  for (const NodeDescriptor& d : records) {
    if (d.address == kInvalidNode) return WireError::kBadDescriptor;
  }
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    if (flat::detail::sort_key(records[i]) >=
        flat::detail::sort_key(records[i + 1])) {
      return WireError::kNotNormalized;
    }
  }
  std::vector<NodeId> addrs;
  for (const NodeDescriptor& d : records) addrs.push_back(d.address);
  std::sort(addrs.begin(), addrs.end());
  if (std::adjacent_find(addrs.begin(), addrs.end()) != addrs.end()) {
    return WireError::kNotNormalized;
  }
  return WireError::kOk;
}

// A valid frame of records.size() records with the payload overwritten by
// `records` byte for byte: encode() refuses to write a faulty payload.
std::vector<std::byte> splice_records(
    const WireCodec& codec, const std::vector<NodeDescriptor>& records) {
  std::vector<NodeDescriptor> filler;
  for (std::size_t i = 0; i < records.size(); ++i) {
    filler.push_back(NodeDescriptor{static_cast<NodeId>(i + 1), 0});
  }
  std::vector<std::byte> bytes;
  codec.encode(make_frame(filler), bytes);
  std::size_t off = WireCodec::kHeaderBytes;
  for (const NodeDescriptor& d : records) {
    for (std::size_t b = 0; b < 4; ++b) {
      bytes[off + b] = static_cast<std::byte>((d.address >> (8 * b)) & 0xFF);
      bytes[off + 4 + b] =
          static_cast<std::byte>((d.hop_count >> (8 * b)) & 0xFF);
    }
    off += WireCodec::kRecordBytes;
  }
  return bytes;
}

TEST(WireCodecFuzz, VerdictMatchesReferenceChecker) {
  // 12000 seeded frames at c in {1, 4, 30, 200}: each starts normalized,
  // then independently gets a sentinel address, an adjacent swap and the
  // same address at two ages, at random positions. decode's one-pass
  // verdict must equal the copy-and-sort oracle's, and an accepted frame
  // must carry its records unchanged.
  {
    // Pinned first: records out of order before a sentinel are rejected
    // for the sentinel, which outranks disorder.
    WireCodec codec(8);
    const std::vector<NodeDescriptor> records = {
        {9, 2}, {4, 1}, {4, 3}, {kInvalidNode, 5}};
    ASSERT_EQ(reference_record_verdict(records), WireError::kBadDescriptor);
    ParsedFrame parsed;
    EXPECT_EQ(decode_tight(codec, splice_records(codec, records), parsed),
              WireError::kBadDescriptor);
  }
  Rng rng(0xF0220009);
  std::size_t verdicts[3] = {0, 0, 0};  // ok, bad descriptor, not normalized
  for (const std::size_t c :
       {std::size_t{1}, std::size_t{4}, std::size_t{30}, std::size_t{200}}) {
    WireCodec codec(c);
    for (int frame = 0; frame < 3000; ++frame) {
      const std::size_t n = rng.below(codec.max_entries() + 1);
      // Small address pools and few ages make collisions and ties common;
      // the full range exercises the hash with wide addresses.
      const std::uint32_t pool =
          rng.below(2) == 0 ? static_cast<std::uint32_t>(4 * n + 8)
                            : kInvalidNode;
      std::vector<NodeDescriptor> records;
      std::set<NodeId> used;
      while (records.size() < n) {
        const NodeId a = static_cast<NodeId>(rng.below(pool));
        if (!used.insert(a).second) continue;
        records.push_back({a, static_cast<HopCount>(rng.below(6))});
      }
      flat::normalize(records);
      if (n >= 1 && rng.below(5) == 0) {
        records[rng.below(n)].address = kInvalidNode;
      }
      if (n >= 2 && rng.below(4) == 0) {
        const std::size_t i = rng.below(n - 1);
        std::swap(records[i], records[i + 1]);
      }
      if (n >= 2 && rng.below(3) == 0) {
        const std::size_t i = rng.below(n);
        std::size_t j = rng.below(n - 1);
        if (j >= i) ++j;
        records[j].address = records[i].address;
        records[j].hop_count =
            records[i].hop_count + 1 + static_cast<HopCount>(rng.below(3));
        // Half the time restore key order, so only the address check can
        // catch the repeat.
        if (rng.below(2) == 0) {
          std::sort(records.begin(), records.end(), ByHopThenAddress{});
        }
      }
      const WireError expected = reference_record_verdict(records);
      ParsedFrame parsed;
      ASSERT_EQ(decode_tight(codec, splice_records(codec, records), parsed),
                expected)
          << "c=" << c << " frame " << frame << " n=" << n;
      if (expected == WireError::kOk) {
        ASSERT_EQ(parsed.entries.size(), records.size());
        EXPECT_TRUE(std::equal(records.begin(), records.end(),
                               parsed.entries.begin()));
        ++verdicts[0];
      } else {
        ++verdicts[expected == WireError::kBadDescriptor ? 1 : 2];
      }
    }
  }
  // Every verdict class occurs often, so none is compared vacuously.
  for (const std::size_t count : verdicts) EXPECT_GT(count, 1000u);
}

TEST(WireCodecFuzz, RandomBytesNeverParseUnsafely) {
  // 10k random buffers of random lengths: decode must return a typed
  // verdict (almost always an error — magic alone filters 65535/65536)
  // without UB; ASan/UBSan in CI make this a memory-safety proof.
  Rng rng(0xF0220007);
  WireCodec codec(30);
  std::uint64_t ok = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t len = rng.below(2 * codec.max_frame_bytes());
    std::vector<std::byte> buf(len);
    for (auto& b : buf) b = static_cast<std::byte>(rng.below(256));
    buf.shrink_to_fit();
    ParsedFrame out;
    if (codec.decode(std::span<const std::byte>(buf), out) == WireError::kOk) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, 0u) << "random bytes should essentially never be a frame";
}

TEST(WireCodecFuzz, MutatedValidFramesAlwaysTyped) {
  // Random single-byte mutations of a valid frame: every outcome is either
  // a clean parse (the mutation hit a don't-care bit like tick) or a typed
  // error — never a crash, never an out-of-range enum.
  Rng rng(0xF0220008);
  WireCodec codec(8);
  const auto entries = random_entries(rng, 6);
  std::vector<std::byte> bytes;
  codec.encode(make_frame(entries), bytes);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::byte> mutated(bytes);
    mutated[rng.below(static_cast<std::uint32_t>(mutated.size()))] =
        static_cast<std::byte>(rng.below(256));
    mutated.shrink_to_fit();
    ParsedFrame out;
    const WireError err =
        codec.decode(std::span<const std::byte>(mutated), out);
    EXPECT_NE(to_string(err), std::string("unknown"));
  }
}

}  // namespace
}  // namespace pss::transport
