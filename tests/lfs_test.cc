// Log-structured layer: on-disk codecs, segment writer behaviour (chunking,
// rollover, pending reads), usage-table accounting, and log scanning.
#include <gtest/gtest.h>

#include "src/lfs/format.h"
#include "src/lfs/scan.h"
#include "src/lfs/segment_writer.h"
#include "src/lfs/usage_table.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

class LfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>();
    device_ = std::make_unique<BlockDevice>((16ull << 20) / kSectorSize, clock_.get());
    sb_.total_sectors = device_->sector_count();
    sb_.segment_sectors = 256;  // 128KB segments
    sb_.checkpoint_a = 1;
    sb_.checkpoint_b = 2;
    sb_.checkpoint_sectors = 1;
    sb_.first_segment = 3;
    sb_.segment_count =
        static_cast<uint32_t>((sb_.total_sectors - sb_.first_segment) / sb_.segment_sectors);
    sut_ = std::make_unique<SegmentUsageTable>(sb_.segment_count, sb_.segment_sectors);
    writer_ = std::make_unique<SegmentWriter>(device_.get(), &sb_, sut_.get(), clock_.get(), 1);
  }

  Bytes Block(uint8_t fill) { return Bytes(kBlockSize, fill); }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<BlockDevice> device_;
  Superblock sb_;
  std::unique_ptr<SegmentUsageTable> sut_;
  std::unique_ptr<SegmentWriter> writer_;
};

TEST_F(LfsTest, SuperblockRoundTrip) {
  Bytes encoded = sb_.Encode();
  ASSERT_EQ(encoded.size(), kSectorSize);
  ASSERT_OK_AND_ASSIGN(Superblock decoded, Superblock::Decode(encoded));
  EXPECT_EQ(decoded.total_sectors, sb_.total_sectors);
  EXPECT_EQ(decoded.segment_sectors, sb_.segment_sectors);
  EXPECT_EQ(decoded.segment_count, sb_.segment_count);
  EXPECT_EQ(decoded.first_segment, sb_.first_segment);

  encoded[10] ^= 0xFF;
  EXPECT_EQ(Superblock::Decode(encoded).status().code(), ErrorCode::kDataCorruption);
}

TEST_F(LfsTest, ChunkSummaryRoundTrip) {
  ChunkSummary summary;
  summary.seq = 42;
  summary.write_time = 12345;
  summary.records.push_back(ChunkRecord{RecordKind::kData, 17, 3, 8});
  summary.records.push_back(ChunkRecord{RecordKind::kJournal, 17, 0, 1});
  ASSERT_OK_AND_ASSIGN(Bytes encoded, summary.Encode());
  ASSERT_EQ(encoded.size(), kSectorSize);
  ASSERT_OK_AND_ASSIGN(ChunkSummary decoded, ChunkSummary::Decode(encoded));
  EXPECT_EQ(decoded.seq, 42u);
  ASSERT_EQ(decoded.records.size(), 2u);
  EXPECT_EQ(decoded.records[0].object_id, 17u);
  EXPECT_EQ(decoded.records[0].sectors, 8u);
  EXPECT_EQ(decoded.PayloadSectors(), 9u);
}

TEST_F(LfsTest, AppendAssignsSequentialAddresses) {
  ASSERT_OK_AND_ASSIGN(DiskAddr a, writer_->Append(RecordKind::kData, 1, 0, Block(0xAA)));
  ASSERT_OK_AND_ASSIGN(DiskAddr b, writer_->Append(RecordKind::kData, 1, 1, Block(0xBB)));
  // Payloads are consecutive (summary sector sits at the chunk head).
  EXPECT_EQ(b, a + kSectorsPerBlock);
}

TEST_F(LfsTest, PendingReadsServeUnflushedData) {
  ASSERT_OK_AND_ASSIGN(DiskAddr a, writer_->Append(RecordKind::kData, 1, 0, Block(0x5A)));
  Bytes out;
  ASSERT_TRUE(writer_->ReadPending(a, kSectorsPerBlock, &out));
  EXPECT_EQ(out, Block(0x5A));
  ASSERT_OK(writer_->Flush());
  EXPECT_FALSE(writer_->ReadPending(a, kSectorsPerBlock, &out));
  // After flush the data is on the device.
  Bytes from_disk;
  ASSERT_OK(device_->Read(a, kSectorsPerBlock, &from_disk));
  EXPECT_EQ(from_disk, Block(0x5A));
}

TEST_F(LfsTest, FlushWritesScannableChunks) {
  ASSERT_OK(writer_->Append(RecordKind::kData, 7, 0, Block(1)).status());
  ASSERT_OK(writer_->Append(RecordKind::kJournal, 7, 0, Bytes(kSectorSize, 2)).status());
  ASSERT_OK(writer_->Flush());
  ASSERT_OK(writer_->Append(RecordKind::kData, 8, 0, Block(3)).status());
  ASSERT_OK(writer_->Flush());

  ASSERT_OK_AND_ASSIGN(std::vector<ScannedChunk> chunks,
                       ScanSegment(device_.get(), sb_, writer_->active_segment()));
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_LT(chunks[0].seq, chunks[1].seq);
  ASSERT_EQ(chunks[0].records.size(), 2u);
  EXPECT_EQ(chunks[0].records[0].kind, RecordKind::kData);
  EXPECT_EQ(chunks[0].records[1].kind, RecordKind::kJournal);
  EXPECT_EQ(chunks[1].records[0].object_id, 8u);
}

TEST_F(LfsTest, SegmentRolloverSealsAndAllocates) {
  // Fill more than one segment worth of blocks.
  uint32_t blocks_per_segment = sb_.segment_sectors / kSectorsPerBlock;
  for (uint32_t i = 0; i < blocks_per_segment + 4; ++i) {
    ASSERT_OK(writer_->Append(RecordKind::kData, 1, i, Block(static_cast<uint8_t>(i)))
                  .status());
  }
  ASSERT_OK(writer_->Flush());
  EXPECT_GE(writer_->stats().segments_sealed, 1u);
  uint32_t full = 0;
  for (SegmentId s = 0; s < sut_->segment_count(); ++s) {
    full += sut_->Info(s).state == SegmentState::kFull ? 1 : 0;
  }
  EXPECT_GE(full, 1u);
}

TEST_F(LfsTest, ScanLogAfterOrdersBySeq) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(writer_->Append(RecordKind::kData, 1, i, Block(1)).status());
    if (i % 5 == 4) {
      ASSERT_OK(writer_->Flush());
    }
  }
  ASSERT_OK(writer_->Flush());
  ASSERT_OK_AND_ASSIGN(std::vector<ScannedChunk> all, ScanLogAfter(device_.get(), sb_, 0));
  ASSERT_GE(all.size(), 8u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].seq, all[i - 1].seq);
  }
  // Filtering works.
  uint64_t mid = all[all.size() / 2].seq;
  ASSERT_OK_AND_ASSIGN(std::vector<ScannedChunk> later,
                       ScanLogAfter(device_.get(), sb_, mid));
  EXPECT_EQ(later.size(), all.size() - (all.size() / 2) - 1);
}

TEST_F(LfsTest, UsageTableLifecycle) {
  SimTime now = clock_->Now();
  auto seg = sut_->Allocate(now);
  ASSERT_TRUE(seg.has_value());
  sut_->AddLive(*seg, 16, now);
  sut_->AddWritten(*seg, 16);
  sut_->Seal(*seg);
  EXPECT_FALSE(sut_->Reclaimable(*seg));
  sut_->LiveToHistory(*seg, 16);
  EXPECT_FALSE(sut_->Reclaimable(*seg));  // history pins it
  sut_->ReleaseHistory(*seg, 16);
  EXPECT_TRUE(sut_->Reclaimable(*seg));
  sut_->Reclaim(*seg);
  EXPECT_EQ(sut_->Info(*seg).state, SegmentState::kFree);
}

TEST_F(LfsTest, UsageTableSerializationRoundTrip) {
  SimTime now = clock_->Now();
  auto seg = sut_->Allocate(now);
  sut_->AddLive(*seg, 100, now);
  sut_->AddWritten(*seg, 120);
  sut_->LiveToHistory(*seg, 30);
  Encoder enc;
  sut_->EncodeTo(&enc);
  Decoder dec(enc.bytes());
  ASSERT_OK_AND_ASSIGN(SegmentUsageTable restored, SegmentUsageTable::DecodeFrom(&dec));
  EXPECT_EQ(restored.segment_count(), sut_->segment_count());
  EXPECT_EQ(restored.Info(*seg).live_sectors, 70u);
  EXPECT_EQ(restored.Info(*seg).history_sectors, 30u);
  EXPECT_EQ(restored.Info(*seg).state, SegmentState::kActive);
}

// The free/reclaimable tallies are kept incrementally; after every random
// transition (recovery SetState and checkpoint round trips included) they
// must equal a full scan of the table.
TEST(UsageTableCountersTest, MatchFullScanUnderRandomTransitions) {
  auto expect_counters_match_scan = [](const SegmentUsageTable& sut, int step) {
    uint32_t free_count = 0;
    uint32_t reclaimable = 0;
    for (SegmentId seg = 0; seg < sut.segment_count(); ++seg) {
      free_count += sut.Info(seg).state == SegmentState::kFree;
      reclaimable += sut.Reclaimable(seg);
    }
    ASSERT_EQ(sut.FreeSegments(), free_count) << "step " << step;
    ASSERT_EQ(sut.ReclaimableSegments(), reclaimable) << "step " << step;
  };
  uint32_t max_reclaimable = 0;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    SegmentUsageTable sut(12, 256);
    expect_counters_match_scan(sut, -1);
    for (int step = 0; step < 5000; ++step) {
      auto seg = static_cast<SegmentId>(rng.Below(sut.segment_count()));
      const SegmentInfo& info = sut.Info(seg);
      SimTime now = step;
      switch (rng.Below(10)) {
        case 0:
          (void)sut.Allocate(now);  // nullopt when full is a valid outcome
          break;
        case 1:
          if (info.state == SegmentState::kActive) {
            sut.Seal(seg);
          }
          break;
        case 2:
          if (info.state != SegmentState::kFree) {
            sut.AddLive(seg, static_cast<uint32_t>(rng.Range(0, 8)), now);
            sut.AddWritten(seg, 8);
          }
          break;
        case 3:
          sut.LiveToHistory(seg, static_cast<uint32_t>(rng.Range(0, info.live_sectors)));
          break;
        case 4:
          sut.ReleaseHistory(seg, static_cast<uint32_t>(rng.Range(0, info.history_sectors)));
          break;
        case 5:
          sut.ReleaseLive(seg, static_cast<uint32_t>(rng.Range(0, info.live_sectors)));
          break;
        case 6:
          if (sut.Reclaimable(seg)) {
            sut.Reclaim(seg);
          }
          break;
        case 7:  // roll-forward's state override, from any state to any state
          sut.SetState(seg, static_cast<SegmentState>(rng.Below(3)));
          break;
        case 8: {  // checkpoint encode/decode round trip
          Encoder enc;
          sut.EncodeTo(&enc);
          Decoder dec(enc.bytes());
          ASSERT_OK_AND_ASSIGN(sut, SegmentUsageTable::DecodeFrom(&dec));
          break;
        }
        default:  // drain a segment so reclaimable states are common
          sut.ReleaseLive(seg, info.live_sectors);
          sut.ReleaseHistory(seg, info.history_sectors);
          break;
      }
      expect_counters_match_scan(sut, step);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      max_reclaimable = std::max(max_reclaimable, sut.ReclaimableSegments());
    }
  }
  EXPECT_GT(max_reclaimable, 0u);  // the walk reached the reclaimable class
}

TEST_F(LfsTest, CompactionVictimPrefersEmptiest) {
  SimTime now = clock_->Now();
  SegmentId a = *sut_->Allocate(now);
  sut_->AddWritten(a, 100);
  sut_->AddLive(a, 90, now);
  sut_->Seal(a);
  SegmentId b = *sut_->Allocate(now);
  sut_->AddWritten(b, 100);
  sut_->AddLive(b, 10, now);
  sut_->Seal(b);
  auto victim = sut_->CompactionVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, b);
}

TEST_F(LfsTest, OutOfSpaceReported) {
  // Tiny table: 2 segments.
  SegmentUsageTable small(2, sb_.segment_sectors);
  SegmentWriter writer(device_.get(), &sb_, &small, clock_.get(), 1);
  uint32_t blocks_per_segment = sb_.segment_sectors / kSectorsPerBlock;
  Status last = Status::Ok();
  for (uint32_t i = 0; i < 3 * blocks_per_segment && last.ok(); ++i) {
    last = writer.Append(RecordKind::kData, 1, i, Block(0)).status();
  }
  EXPECT_EQ(last.code(), ErrorCode::kOutOfSpace);
}

}  // namespace
}  // namespace s4
