// Unit tests for the NVMe wire structures: exact sizes, field encodings,
// the ByteExpress reserved-field semantics, status fields, and the KV key
// placement.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "nvme/spec.h"

namespace bx::nvme {
namespace {

TEST(SpecTest, StructSizesAreWireExact) {
  EXPECT_EQ(sizeof(SubmissionQueueEntry), 64u);
  EXPECT_EQ(sizeof(CompletionQueueEntry), 16u);
  EXPECT_EQ(sizeof(SqSlot), 64u);
  EXPECT_EQ(kChunkSize, 64u);
}

TEST(SpecTest, SqeFieldOffsets) {
  // The layout must match the spec so raw-byte chunk handling is sound.
  SubmissionQueueEntry sqe;
  auto* raw = reinterpret_cast<const Byte*>(&sqe);
  sqe.opcode = 0xAB;
  sqe.cid = 0x1234;
  sqe.nsid = 0xDEADBEEF;
  sqe.cdw2 = 0x11111111;
  EXPECT_EQ(raw[0], 0xAB);
  std::uint16_t cid;
  std::memcpy(&cid, raw + 2, 2);
  EXPECT_EQ(cid, 0x1234);
  std::uint32_t nsid;
  std::memcpy(&nsid, raw + 4, 4);
  EXPECT_EQ(nsid, 0xDEADBEEFu);
  std::uint32_t cdw2;
  std::memcpy(&cdw2, raw + 8, 4);
  EXPECT_EQ(cdw2, 0x11111111u);
}

TEST(SpecTest, TransferModeBitsInFlags) {
  SubmissionQueueEntry sqe;
  EXPECT_EQ(sqe.transfer_mode(), DataTransferMode::kPrp);
  sqe.set_transfer_mode(DataTransferMode::kSglData);
  EXPECT_EQ(sqe.transfer_mode(), DataTransferMode::kSglData);
  // PSDT lives in flags bits 7:6 and must not clobber the low bits.
  sqe.flags |= 0x3;
  sqe.set_transfer_mode(DataTransferMode::kPrp);
  EXPECT_EQ(sqe.flags & 0x3, 0x3);
  EXPECT_EQ(sqe.transfer_mode(), DataTransferMode::kPrp);
}

TEST(SpecTest, InlineLengthUsesReservedCdw2) {
  // §3.3.1: the payload length is re-encoded into a reserved field; zero
  // means "not ByteExpress".
  SubmissionQueueEntry sqe;
  EXPECT_EQ(sqe.inline_length(), 0u);
  sqe.set_inline_length(192);
  EXPECT_EQ(sqe.inline_length(), 192u);
  EXPECT_EQ(sqe.cdw2, 192u);
}

TEST(SpecTest, CqePhaseAndStatusCoexist) {
  CompletionQueueEntry cqe;
  cqe.set_status(StatusField::vendor(VendorStatus::kKvKeyNotFound));
  cqe.set_phase(true);
  EXPECT_TRUE(cqe.phase());
  EXPECT_EQ(cqe.status().type, StatusCodeType::kVendor);
  EXPECT_EQ(cqe.status().code,
            static_cast<std::uint8_t>(VendorStatus::kKvKeyNotFound));
  cqe.set_phase(false);
  EXPECT_FALSE(cqe.phase());
  EXPECT_EQ(cqe.status().code,
            static_cast<std::uint8_t>(VendorStatus::kKvKeyNotFound));
}

TEST(SpecTest, StatusFieldEncodeDecodeRoundTrip) {
  for (const auto type :
       {StatusCodeType::kGeneric, StatusCodeType::kCommandSpecific,
        StatusCodeType::kMediaError, StatusCodeType::kVendor}) {
    for (std::uint8_t code : {0, 1, 0x42, 0xff}) {
      const StatusField field{type, code};
      const StatusField decoded = StatusField::decode(field.encode());
      EXPECT_EQ(decoded.type, type);
      EXPECT_EQ(decoded.code, code);
    }
  }
}

TEST(SpecTest, SuccessPredicate) {
  EXPECT_TRUE(StatusField::success().is_success());
  EXPECT_FALSE(
      StatusField::generic(GenericStatus::kInvalidOpcode).is_success());
  EXPECT_FALSE(
      StatusField::vendor(VendorStatus::kKvKeyNotFound).is_success());
}

TEST(SpecTest, BlockIoFieldsRoundTrip) {
  SubmissionQueueEntry sqe;
  BlockIoFields fields;
  fields.slba = 0x1234567890ULL;
  fields.block_count = 16;
  fields.apply(sqe);
  const BlockIoFields decoded = BlockIoFields::from(sqe);
  EXPECT_EQ(decoded.slba, 0x1234567890ULL);
  EXPECT_EQ(decoded.block_count, 16u);
}

TEST(SpecTest, BlockCountIsZeroBasedOnTheWire) {
  SubmissionQueueEntry sqe;
  BlockIoFields fields;
  fields.block_count = 1;
  fields.apply(sqe);
  EXPECT_EQ(sqe.cdw12 & 0xffff, 0u);  // NLB is 0's based
}

TEST(SpecTest, VendorFieldsRoundTrip) {
  SubmissionQueueEntry sqe;
  VendorFields fields;
  fields.data_length = 777;
  fields.aux = 0xABCD00;
  fields.apply(sqe);
  const VendorFields decoded = VendorFields::from(sqe);
  EXPECT_EQ(decoded.data_length, 777u);
  EXPECT_EQ(decoded.aux, 0xABCD00u);
}

TEST(SpecTest, KvKeyFieldsRoundTrip) {
  SubmissionQueueEntry sqe;
  KvKeyFields key;
  key.key_len = 16;
  for (int i = 0; i < 16; ++i) key.key[i] = static_cast<Byte>(i + 1);
  key.apply(sqe);
  const KvKeyFields decoded = KvKeyFields::from(sqe);
  EXPECT_EQ(decoded.key_len, 16);
  EXPECT_EQ(std::memcmp(decoded.key, key.key, 16), 0);
}

TEST(SpecTest, KvKeyDoesNotTouchByteExpressOrDataFields) {
  SubmissionQueueEntry sqe;
  sqe.set_inline_length(128);
  sqe.cdw12 = 128;
  sqe.dptr1 = 0x1000;
  KvKeyFields key;
  key.key_len = 16;
  std::memset(key.key, 0xEE, 16);
  key.apply(sqe);
  EXPECT_EQ(sqe.inline_length(), 128u);
  EXPECT_EQ(sqe.cdw12, 128u);
  EXPECT_EQ(sqe.dptr1, 0x1000u);
}

TEST(SpecTest, KvKeyLenSharesCdw13WithAux) {
  SubmissionQueueEntry sqe;
  VendorFields vendor;
  vendor.aux = 0x42 << 8;
  vendor.apply(sqe);
  KvKeyFields key;
  key.key_len = 7;
  key.apply(sqe);
  EXPECT_EQ(sqe.cdw13 & 0xff, 7u);
  EXPECT_EQ(sqe.cdw13 >> 8, 0x42u);
}

TEST(SpecTest, OpcodeNames) {
  EXPECT_EQ(io_opcode_name(IoOpcode::kWrite), "write");
  EXPECT_EQ(io_opcode_name(IoOpcode::kVendorKvStore), "kv_store");
  EXPECT_EQ(io_opcode_name(IoOpcode::kVendorCsdFilter), "csd_filter");
  EXPECT_EQ(io_opcode_name(IoOpcode::kVendorBandSlimFragment),
            "bandslim_fragment");
  EXPECT_EQ(io_opcode_name(static_cast<IoOpcode>(0x55)), "unknown");
}

// The one data-direction classifier the driver, controller and method
// policy share, pinned for every opcode: the table must name each opcode
// io_opcode_name() knows, and an unknown opcode moves no data.
TEST(SpecTest, OpcodeDirectionTable) {
  enum class Dir { kNone, kWrite, kRead };
  const std::map<IoOpcode, Dir> table = {
      {IoOpcode::kFlush, Dir::kNone},
      {IoOpcode::kWrite, Dir::kWrite},
      {IoOpcode::kRead, Dir::kRead},
      {IoOpcode::kVendorKvStore, Dir::kWrite},
      {IoOpcode::kVendorKvRetrieve, Dir::kRead},
      {IoOpcode::kVendorKvDelete, Dir::kNone},
      {IoOpcode::kVendorKvExist, Dir::kNone},
      {IoOpcode::kVendorKvIterate, Dir::kRead},
      {IoOpcode::kVendorCsdFilter, Dir::kWrite},
      {IoOpcode::kVendorBandSlimFragment, Dir::kNone},
      {IoOpcode::kVendorRawWrite, Dir::kWrite},
      {IoOpcode::kVendorRawRead, Dir::kRead},
      {IoOpcode::kVendorPartialWrite, Dir::kWrite},
  };
  for (unsigned raw = 0; raw <= 0xff; ++raw) {
    const auto op = static_cast<IoOpcode>(raw);
    const auto it = table.find(op);
    if (it == table.end()) {
      EXPECT_EQ(io_opcode_name(op), "unknown") << "untabled opcode " << raw;
    }
    const Dir dir = it == table.end() ? Dir::kNone : it->second;
    EXPECT_EQ(is_write_direction(op), dir == Dir::kWrite) << raw;
    EXPECT_EQ(is_read_direction(op), dir == Dir::kRead) << raw;
  }
}

}  // namespace
}  // namespace bx::nvme
