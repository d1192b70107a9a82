#include "s4bench/decorators.h"

#include "src/util/codec.h"

namespace s4bench {
namespace {

// Registry names of the drive counters a DriveProbe reads.
struct RegistryName {
  Ctr ctr;
  const char* name;
};
constexpr RegistryName kRegistryNames[] = {
    {kDriveOps, "drive.ops_total"},
    {kDriveOpsDenied, "drive.ops_denied"},
    {kTimeBasedReads, "drive.time_based_reads"},
    {kJournalEntries, "drive.journal_entries"},
    {kJournalSectors, "drive.journal_sectors_written"},
    {kInodeCheckpoints, "drive.inode_checkpoints"},
    {kAuditRecords, "audit.records"},
    {kAuditBlocks, "audit.blocks_written"},
    {kAuditMarkerWrites, "audit.marker_writes"},
    {kBlockHits, "cache.block.hits"},
    {kBlockMisses, "cache.block.misses"},
    {kCacheSectorsRead, "cache.sectors_read"},
    {kReadaheadSectors, "cache.readahead_sectors"},
    {kJsectorHits, "cache.jsector.hits"},
    {kJsectorMisses, "cache.jsector.misses"},
    {kHistoryWalks, "history.reconstruction_walks"},
    {kHistoryWalkSectors, "history.walk_sectors_read"},
    {kWaypointSeeks, "history.waypoint_seeks"},
    {kForwardReconstructions, "history.forward_reconstructions"},
    {kThrottleDelays, "throttle.delays"},
    {kThrottleRejects, "throttle.rejects"},
    {kCleanerPasses, "cleaner.passes"},
    {kSegmentsReclaimed, "cleaner.segments_reclaimed"},
    {kSectorsCopied, "cleaner.sectors_copied"},
};

// Requests one frame asks the drive to apply: a kBatch envelope carries its
// sub-requests plus itself; a single-op frame is one. The sub-request count
// is the varint after the envelope's magic (RpcBatchRequest::Encode); reading
// it instead of decoding the whole frame keeps the tally out of the array's
// host time (a full decode cost 5% of its throughput). A misread shows up as
// a failed audit check.
uint64_t RequestsIn(ByteSpan frame) {
  if (!s4::IsBatchRequestFrame(frame)) {
    return 1;
  }
  s4::Decoder dec(frame.subspan(4));
  auto subs = dec.Varint();
  return subs.ok() ? *subs + 1 : 1;
}

}  // namespace

DriveProbe::DriveProbe(const s4::S4Drive* drive, const s4::BlockDevice* device)
    : drive_(drive), device_(device) {
  for (const RegistryName& r : kRegistryNames) {
    counters_[r.ctr] = drive_->metrics().FindCounter(r.name);
  }
}

void DriveProbe::Read(Snapshot* out) const {
  s4::DiskStats disk = device_->stats();
  Snapshot& s = *out;
  s[kDiskReads] = disk.reads;
  s[kDiskWrites] = disk.writes;
  s[kDiskSectorsRead] = disk.sectors_read;
  s[kDiskSectorsWritten] = disk.sectors_written;
  s[kDiskSeeks] = disk.seeks;
  s[kDiskBusyUs] = static_cast<uint64_t>(disk.busy_time);
  const s4::SegmentWriterStats& lfs = drive_->writer_stats();
  s[kLfsChunks] = lfs.chunks_flushed;
  s[kLfsSectors] = lfs.sectors_flushed;
  s[kLfsBytes] = lfs.bytes_flushed;
  for (const RegistryName& r : kRegistryNames) {
    s[r.ctr] = counters_[r.ctr] == nullptr ? 0 : counters_[r.ctr]->value();
  }
}

Result<Bytes> TracedTransport::Call(ByteSpan request) {
  requests_ += RequestsIn(request);
  if (!log_->on()) {
    return inner_->Call(request);
  }
  SpanLog::Token token = log_->Open(Layer::kTransport, member_, probe_);
  Result<Bytes> response = inner_->Call(request);
  uint64_t response_bytes = response.ok() ? response->size() : 0;
  int64_t net = model_.TransferCost(request.size()) +
                (response.ok() ? model_.TransferCost(response_bytes) : 0);
  log_->Close(token, probe_, net, request.size() + response_bytes);
  return response;
}

}  // namespace s4bench
