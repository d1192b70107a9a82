#include "src/lfs/usage_table.h"

#include "src/util/check.h"
#include "src/util/codec.h"

namespace s4 {

SegmentUsageTable::SegmentUsageTable(uint32_t segment_count, uint32_t segment_sectors)
    : segment_sectors_(segment_sectors), free_segments_(segment_count) {
  segments_.resize(segment_count);
}

bool SegmentUsageTable::IsReclaimable(const SegmentInfo& info) {
  return info.state == SegmentState::kFull && info.live_sectors == 0 &&
         info.history_sectors == 0;
}

std::optional<SegmentId> SegmentUsageTable::Allocate(SimTime now) {
  uint32_t n = segment_count();
  for (uint32_t i = 0; i < n; ++i) {
    SegmentId seg = (next_alloc_hint_ + i) % n;
    if (segments_[seg].state == SegmentState::kFree) {
      Update(seg, [now](SegmentInfo& info) {
        info = SegmentInfo();
        info.state = SegmentState::kActive;
        info.last_write_time = now;
      });
      next_alloc_hint_ = (seg + 1) % n;
      return seg;
    }
  }
  return std::nullopt;
}

void SegmentUsageTable::Seal(SegmentId seg) {
  S4_CHECK(segments_[seg].state == SegmentState::kActive);
  Update(seg, [](SegmentInfo& info) { info.state = SegmentState::kFull; });
}

void SegmentUsageTable::SetState(SegmentId seg, SegmentState state) {
  Update(seg, [state](SegmentInfo& info) { info.state = state; });
}

void SegmentUsageTable::AddLive(SegmentId seg, uint32_t n, SimTime now) {
  Update(seg, [n, now](SegmentInfo& info) {
    info.live_sectors += n;
    info.last_write_time = now;
  });
}

void SegmentUsageTable::AddWritten(SegmentId seg, uint32_t n) {
  segments_[seg].written_sectors += n;
}

void SegmentUsageTable::LiveToHistory(SegmentId seg, uint32_t n) {
  S4_CHECK(segments_[seg].live_sectors >= n);
  Update(seg, [n](SegmentInfo& info) {
    info.live_sectors -= n;
    info.history_sectors += n;
  });
}

void SegmentUsageTable::ReleaseHistory(SegmentId seg, uint32_t n) {
  S4_CHECK(segments_[seg].history_sectors >= n);
  Update(seg, [n](SegmentInfo& info) { info.history_sectors -= n; });
}

void SegmentUsageTable::ReleaseLive(SegmentId seg, uint32_t n) {
  S4_CHECK(segments_[seg].live_sectors >= n);
  Update(seg, [n](SegmentInfo& info) { info.live_sectors -= n; });
}

bool SegmentUsageTable::Reclaimable(SegmentId seg) const {
  return IsReclaimable(segments_[seg]);
}

void SegmentUsageTable::Reclaim(SegmentId seg) {
  S4_CHECK(Reclaimable(seg));
  Update(seg, [](SegmentInfo& info) { info = SegmentInfo(); });
}

uint64_t SegmentUsageTable::LiveSectorsTotal() const {
  uint64_t n = 0;
  for (const auto& s : segments_) {
    n += s.live_sectors;
  }
  return n;
}

uint64_t SegmentUsageTable::HistorySectorsTotal() const {
  uint64_t n = 0;
  for (const auto& s : segments_) {
    n += s.history_sectors;
  }
  return n;
}

std::optional<SegmentId> SegmentUsageTable::CompactionVictim() const {
  std::optional<SegmentId> best;
  double best_ratio = 1.0;
  for (SegmentId seg = 0; seg < segments_.size(); ++seg) {
    const SegmentInfo& s = segments_[seg];
    if (s.state != SegmentState::kFull || s.written_sectors == 0) {
      continue;
    }
    double ratio =
        static_cast<double>(s.live_sectors + s.history_sectors) / s.written_sectors;
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best = seg;
    }
  }
  return best;
}

void SegmentUsageTable::EncodeTo(Encoder* enc) const {
  enc->PutVarint(segment_sectors_);
  enc->PutVarint(segments_.size());
  for (const auto& s : segments_) {
    enc->PutU8(static_cast<uint8_t>(s.state));
    enc->PutVarint(s.live_sectors);
    enc->PutVarint(s.history_sectors);
    enc->PutVarint(s.written_sectors);
    enc->PutI64(s.last_write_time);
  }
  enc->PutVarint(next_alloc_hint_);
}

Result<SegmentUsageTable> SegmentUsageTable::DecodeFrom(Decoder* dec) {
  S4_ASSIGN_OR_RETURN(uint64_t segment_sectors, dec->Varint());
  S4_ASSIGN_OR_RETURN(uint64_t count, dec->Varint());
  SegmentUsageTable table(static_cast<uint32_t>(count), static_cast<uint32_t>(segment_sectors));
  for (uint64_t i = 0; i < count; ++i) {
    SegmentInfo s;
    S4_ASSIGN_OR_RETURN(uint8_t state, dec->U8());
    if (state > 2) {
      return Status::DataCorruption("bad segment state");
    }
    s.state = static_cast<SegmentState>(state);
    S4_ASSIGN_OR_RETURN(uint64_t live, dec->Varint());
    S4_ASSIGN_OR_RETURN(uint64_t hist, dec->Varint());
    S4_ASSIGN_OR_RETURN(uint64_t written, dec->Varint());
    S4_ASSIGN_OR_RETURN(s.last_write_time, dec->I64());
    s.live_sectors = static_cast<uint32_t>(live);
    s.history_sectors = static_cast<uint32_t>(hist);
    s.written_sectors = static_cast<uint32_t>(written);
    table.Update(static_cast<SegmentId>(i), [&s](SegmentInfo& info) { info = s; });
  }
  S4_ASSIGN_OR_RETURN(uint64_t hint, dec->Varint());
  if (count > 0 && hint >= count) {
    return Status::DataCorruption("bad allocation hint");
  }
  table.next_alloc_hint_ = static_cast<SegmentId>(hint);
  return table;
}

}  // namespace s4
