// SegmentUsageTable (SUT): per-segment allocation state and live-sector
// accounting.
//
// Unlike classic LFS, a segment with zero *live* sectors cannot necessarily
// be reclaimed: historical sectors (old versions inside the detection window)
// also pin a segment. The table therefore tracks live and historical counts
// separately; a segment is reclaimable only when both reach zero.
#ifndef S4_SRC_LFS_USAGE_TABLE_H_
#define S4_SRC_LFS_USAGE_TABLE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/lfs/format.h"
#include "src/util/status.h"

namespace s4 {

enum class SegmentState : uint8_t {
  kFree = 0,    // available for allocation
  kActive = 1,  // currently being filled by the segment writer
  kFull = 2,    // sealed; candidate for cleaning
};

struct SegmentInfo {
  SegmentState state = SegmentState::kFree;
  uint32_t live_sectors = 0;      // reachable from some object's current state
  uint32_t history_sectors = 0;   // reachable only via the history pool
  uint32_t written_sectors = 0;   // total payload+summary sectors ever written
  SimTime last_write_time = 0;
};

class SegmentUsageTable {
 public:
  explicit SegmentUsageTable(uint32_t segment_count, uint32_t segment_sectors);

  uint32_t segment_count() const { return static_cast<uint32_t>(segments_.size()); }
  uint32_t segment_sectors() const { return segment_sectors_; }

  const SegmentInfo& Info(SegmentId seg) const { return segments_[seg]; }

  // Allocates the next free segment (round robin from the last allocation).
  // Returns nullopt when no free segment exists.
  std::optional<SegmentId> Allocate(SimTime now);

  // Seals the active segment.
  void Seal(SegmentId seg);

  // Crash-recovery override of a segment's state (roll-forward reconstructs
  // post-checkpoint allocations and seals).
  void SetState(SegmentId seg, SegmentState state);

  // Accounting transitions. `n` is in sectors.
  void AddLive(SegmentId seg, uint32_t n, SimTime now);
  void AddWritten(SegmentId seg, uint32_t n);
  // A write superseded data: the sectors stay on disk as history.
  void LiveToHistory(SegmentId seg, uint32_t n);
  // The cleaner expired historical sectors.
  void ReleaseHistory(SegmentId seg, uint32_t n);
  // Live data relocated or permanently deleted with no history retention
  // (e.g. versioning disabled).
  void ReleaseLive(SegmentId seg, uint32_t n);

  // A sealed segment with no live and no history sectors can be reused.
  bool Reclaimable(SegmentId seg) const;
  // Marks a reclaimable segment free again. Caller must have verified
  // Reclaimable().
  void Reclaim(SegmentId seg);

  // O(1): the table keeps both tallies current on every transition, because
  // the drive's throttle and cleaner consult them on every request.
  uint32_t FreeSegments() const { return free_segments_; }
  uint32_t ReclaimableSegments() const { return reclaimable_segments_; }
  uint64_t LiveSectorsTotal() const;
  uint64_t HistorySectorsTotal() const;

  // Sealed segment with the lowest (live+history)/written ratio, for the
  // compacting cleaner. Returns nullopt if none sealed.
  std::optional<SegmentId> CompactionVictim() const;

  // Round-robin origin of the next Allocate(). Persisted in the checkpoint:
  // between checkpoints allocation order is a pure function of this hint and
  // the table state, which lets recovery enumerate exactly the segments the
  // writer could have touched since the checkpoint instead of scanning all.
  SegmentId next_alloc_hint() const { return next_alloc_hint_; }

  // Checkpoint serialisation.
  void EncodeTo(class Encoder* enc) const;
  static Result<SegmentUsageTable> DecodeFrom(class Decoder* dec);

 private:
  static bool IsReclaimable(const SegmentInfo& info);

  // Applies `mutate` to segment `seg` and moves the segment between the
  // free/reclaimable tallies to match. Every state or live/history change
  // goes through here.
  template <typename Fn>
  void Update(SegmentId seg, Fn&& mutate) {
    SegmentInfo& info = segments_[seg];
    free_segments_ -= info.state == SegmentState::kFree;
    reclaimable_segments_ -= IsReclaimable(info);
    std::forward<Fn>(mutate)(info);
    free_segments_ += info.state == SegmentState::kFree;
    reclaimable_segments_ += IsReclaimable(info);
  }

  uint32_t segment_sectors_;
  std::vector<SegmentInfo> segments_;
  SegmentId next_alloc_hint_ = 0;
  uint32_t free_segments_ = 0;
  uint32_t reclaimable_segments_ = 0;
};

}  // namespace s4

#endif  // S4_SRC_LFS_USAGE_TABLE_H_
