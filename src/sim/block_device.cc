#include "src/sim/block_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/check.h"

namespace s4 {

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

void FaultInjector::SchedulePowerCut(uint64_t nth_write, uint64_t persist_sectors,
                                     uint64_t corrupt_sectors) {
  S4_CHECK(nth_write > 0);
  writes_until_cut_ = nth_write;
  cut_persist_sectors_ = persist_sectors;
  cut_corrupt_sectors_ = corrupt_sectors;
}

void FaultInjector::ScheduleBitRot(uint64_t lba, uint32_t byte_offset, uint8_t mask) {
  S4_CHECK(byte_offset < kSectorSize);
  rot_.emplace(lba, RotMark{byte_offset, mask});
}

void FaultInjector::ScheduleReadError(uint64_t lba, uint32_t count) {
  read_errors_[lba] += count;
}

void FaultInjector::Reset() {
  powered_off_ = false;
  power_cut_fired_ = false;
  writes_until_cut_ = 0;
  cut_persist_sectors_ = 0;
  cut_corrupt_sectors_ = 0;
  rot_.clear();
  read_errors_.clear();
}

FaultInjector::WriteFault FaultInjector::OnWrite() {
  WriteFault fault;
  if (writes_until_cut_ == 0) {
    return fault;
  }
  if (--writes_until_cut_ == 0) {
    fault.power_cut = true;
    fault.persist_sectors = cut_persist_sectors_;
    fault.corrupt_sectors = cut_corrupt_sectors_;
    powered_off_ = true;
    power_cut_fired_ = true;
  }
  return fault;
}

bool FaultInjector::OnRead(uint64_t lba, uint64_t count) {
  auto it = read_errors_.lower_bound(lba);
  if (it == read_errors_.end() || it->first >= lba + count) {
    return false;
  }
  if (--it->second == 0) {
    read_errors_.erase(it);
  }
  return true;
}

std::vector<std::pair<uint64_t, FaultInjector::RotMark>> FaultInjector::TakeRot(
    uint64_t lba, uint64_t count) {
  std::vector<std::pair<uint64_t, RotMark>> hits;
  auto it = rot_.lower_bound(lba);
  while (it != rot_.end() && it->first < lba + count) {
    hits.emplace_back(it->first, it->second);
    it = rot_.erase(it);
  }
  return hits;
}

// ---------------------------------------------------------------------------
// BlockDevice
// ---------------------------------------------------------------------------

namespace {

// Reserves a zero-filled image of `sector_count` sectors without committing
// memory.
uint8_t* MapImage(uint64_t sector_count) {
  S4_CHECK(sector_count > 0 && sector_count <= UINT64_MAX / kSectorSize);
  size_t bytes = sector_count * kSectorSize;
  void* image = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  S4_CHECK(image != MAP_FAILED);
#ifdef MADV_HUGEPAGE
  // A hint only. The log fills the image in long sequential runs, so a 2MB
  // page takes one fault where 4KB pages take 512, and first-touch faults
  // are most of the host cost of writing to a fresh image.
  madvise(image, bytes, MADV_HUGEPAGE);
#endif
  return static_cast<uint8_t*>(image);
}

}  // namespace

BlockDevice::BlockDevice(uint64_t sector_count, SimClock* clock, DiskModel model)
    : sector_count_(sector_count), clock_(clock), model_(model), image_(MapImage(sector_count)) {
  S4_CHECK(clock != nullptr);
}

BlockDevice::~BlockDevice() { munmap(image_, capacity_bytes()); }

SimDuration BlockDevice::PositioningCost(uint64_t lba, SimTime start) {
  if (lba == head_lba_) {
    // Sequential: no seek. If the host paused, the platter rotated on and
    // the sector must come around again. `start` is when this command
    // actually reaches the arm (it may have queued behind other lanes).
    bool idle = start - last_io_end_ > model_.sequential_idle_gap;
    return idle ? model_.average_rotation : 0;
  }
  ++stats_.seeks;
  // Distance-scaled seek: short hops cost track-to-track, the average-length
  // hop costs roughly average_seek. A sqrt profile approximates measured
  // drives well enough for relative comparisons.
  double frac = static_cast<double>(lba > head_lba_ ? lba - head_lba_ : head_lba_ - lba) /
                static_cast<double>(sector_count_);
  double seek = static_cast<double>(model_.track_to_track_seek) +
                static_cast<double>(model_.average_seek - model_.track_to_track_seek) *
                    std::sqrt(frac) * 1.6;
  return static_cast<SimDuration>(seek) + model_.average_rotation;
}

Status BlockDevice::Read(uint64_t lba, uint64_t count, Bytes* out, OpContext* ctx) {
  ScopedSpan span(ctx, "disk.read");
  MutexLock lock(&mu_);
  if (lba + count > sector_count_ || lba + count < lba) {
    return Status::InvalidArgument("read beyond device");
  }
  if (injector_ != nullptr && injector_->powered_off()) {
    return Status::Unavailable("device is powered off");
  }
  // The command starts when both the issuing lane is ready and the arm is
  // free; on the serial path free_until_ never exceeds Now() and start is
  // exactly the current time.
  SimTime start = std::max(clock_->Now(), free_until_);
  SimDuration cost =
      model_.command_overhead + PositioningCost(lba, start) + model_.TransferCost(count);
  SimTime end = start + cost;
  clock_->AdvanceTo(end);
  free_until_ = end;
  stats_.busy_time += cost;
  ++stats_.reads;
  stats_.sectors_read += count;
  if (ctx != nullptr) {
    ctx->disk_time += cost;
    ctx->disk_reads += count;
  }
  head_lba_ = lba + count;
  last_io_end_ = end;
  if (injector_ != nullptr) {
    if (injector_->OnRead(lba, count)) {
      return Status::Unavailable("transient read error");
    }
    // Bit-rot is damage to the platter: apply it to the media, then read.
    for (const auto& [rot_lba, mark] : injector_->TakeRot(lba, count)) {
      image_[rot_lba * kSectorSize + mark.byte_offset] ^= mark.mask;
    }
  }
  out->resize(count * kSectorSize);
  if (count > 0) {
    std::memcpy(out->data(), image_ + lba * kSectorSize, count * kSectorSize);
  }
  return Status::Ok();
}

Status BlockDevice::Write(uint64_t lba, ByteSpan data, OpContext* ctx) {
  ScopedSpan span(ctx, "disk.write");
  MutexLock lock(&mu_);
  if (data.size() % kSectorSize != 0) {
    return Status::InvalidArgument("write not sector aligned");
  }
  uint64_t count = data.size() / kSectorSize;
  if (lba + count > sector_count_ || lba + count < lba) {
    return Status::InvalidArgument("write beyond device");
  }
  if (injector_ != nullptr && injector_->powered_off()) {
    return Status::Unavailable("device is powered off");
  }
  if (injector_ != nullptr) {
    FaultInjector::WriteFault fault = injector_->OnWrite();
    if (fault.power_cut) {
      // Power failed mid-command. A prefix of the sectors landed intact, a
      // further run was in flight (torn: garbage on the media), the rest
      // never left the buffer. Charge timing for what reached the platter.
      uint64_t persist = std::min<uint64_t>(fault.persist_sectors, count);
      uint64_t corrupt = std::min<uint64_t>(fault.corrupt_sectors, count - persist);
      SimTime start = std::max(clock_->Now(), free_until_);
      SimDuration cost = model_.command_overhead + PositioningCost(lba, start) +
                         model_.TransferCost(persist + corrupt);
      SimTime end = start + cost;
      clock_->AdvanceTo(end);
      free_until_ = end;
      stats_.busy_time += cost;
      ++stats_.writes;
      stats_.sectors_written += persist;
      if (ctx != nullptr) {
        ctx->disk_time += cost;
        ctx->disk_writes += persist;
      }
      head_lba_ = lba + persist + corrupt;
      last_io_end_ = end;
      if (persist > 0) {
        std::memcpy(image_ + lba * kSectorSize, data.data(), persist * kSectorSize);
      }
      if (corrupt > 0) {
        CorruptSectorsLocked(lba + persist, corrupt);
      }
      return Status::Unavailable("power lost during write");
    }
  }
  SimTime start = std::max(clock_->Now(), free_until_);
  SimDuration cost =
      model_.command_overhead + PositioningCost(lba, start) + model_.TransferCost(count);
  SimTime end = start + cost;
  clock_->AdvanceTo(end);
  free_until_ = end;
  stats_.busy_time += cost;
  ++stats_.writes;
  stats_.sectors_written += count;
  if (ctx != nullptr) {
    ctx->disk_time += cost;
    ctx->disk_writes += count;
  }
  head_lba_ = lba + count;
  last_io_end_ = end;
  if (count > 0) {
    std::memcpy(image_ + lba * kSectorSize, data.data(), data.size());
  }
  return Status::Ok();
}

void BlockDevice::CorruptSectors(uint64_t lba, uint64_t count) {
  MutexLock lock(&mu_);
  CorruptSectorsLocked(lba, count);
}

void BlockDevice::CorruptSectorsLocked(uint64_t lba, uint64_t count) {
  if (lba >= sector_count_) {
    return;
  }
  count = std::min(count, sector_count_ - lba);
  // Fill with a recognisable garbage pattern; checksums must catch this.
  std::memset(image_ + lba * kSectorSize, 0xDE, count * kSectorSize);
}

}  // namespace s4
