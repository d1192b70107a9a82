#include "s4bench/report.h"

#include <algorithm>
#include <cmath>

namespace s4bench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Sums over the spans of one layer.
struct LayerSum {
  uint64_t count = 0;
  int64_t sim = 0;
  int64_t self_sim = 0;
  int64_t host_ns = 0;
  int64_t self_host_ns = 0;
};

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p * static_cast<double>(samples.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::vector<Metric> LayerMetrics(const RoundResult& r, const WorkloadSpec& spec,
                                 bool* layer_gap_ok) {
  const uint32_t members = spec.members;
  const std::vector<Span>& spans = r.spans;
  const size_t n = spans.size();
  // Root layer of every span (parents precede children in the log), and
  // the time each span's children covered.
  std::vector<Layer> root(n);
  std::vector<int64_t> child_sim(n, 0);
  std::vector<int64_t> child_host(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    root[i] = s.parent == 0 ? s.layer : root[s.parent - 1];
    if (s.parent != 0) {
      child_sim[s.parent - 1] += s.sim();
      child_host[s.parent - 1] += s.host();
    }
  }

  LayerSum layer[static_cast<int>(Layer::kCount)];
  // Counter deltas summed over the drive-side boundaries: requests
  // (transport spans) and cleaner passes. Device-work ratios (journal, lfs,
  // audit, sim.disk) use both; cache and history ratios, which describe how
  // requests are served, use requests alone.
  Snapshot requests{};
  Snapshot counters{};
  uint64_t fs_syncs = 0;
  uint64_t parity_deltas = 0;
  uint64_t fs_client_calls = 0;
  uint64_t recovery_calls = 0;
  int64_t net_sim = 0;
  uint64_t net_bytes = 0;
  std::vector<int64_t> member_sim(members, 0);
  uint64_t timed_spans = 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (root[i] == Layer::kMount) {
      continue;
    }
    ++timed_spans;
    LayerSum& sum = layer[static_cast<int>(s.layer)];
    ++sum.count;
    sum.sim += s.sim();
    sum.self_sim += s.sim() - child_sim[i];
    sum.host_ns += s.host();
    sum.self_host_ns += s.host() - child_host[i] - s.tracer_ns;
    switch (s.layer) {
      case Layer::kFs:
        fs_syncs += DeltaOf(r.deltas, s, kFsSyncs);
        break;
      case Layer::kRpc:
      case Layer::kCluster:
        if (s.parent != 0 && spans[s.parent - 1].layer == Layer::kFs) {
          ++fs_client_calls;
        }
        parity_deltas += DeltaOf(r.deltas, s, kParityDeltas);
        break;
      case Layer::kTransport:
        net_sim += s.net_sim;
        net_bytes += s.net_bytes;
        if (s.member < members) {
          member_sim[s.member] += s.sim();
        }
        if (root[i] == Layer::kRecovery) {
          ++recovery_calls;
        }
        for (uint32_t d = s.delta_begin; d < s.delta_begin + s.delta_count; ++d) {
          requests[r.deltas[d].ctr] += r.deltas[d].value;
        }
        [[fallthrough]];
      case Layer::kCleaner:
        for (uint32_t d = s.delta_begin; d < s.delta_begin + s.delta_count; ++d) {
          counters[r.deltas[d].ctr] += r.deltas[d].value;
        }
        break;
      default:
        break;
    }
  }

  const double ops = static_cast<double>(std::max<uint64_t>(r.attempted, 1));
  auto L = [&](Layer l) -> const LayerSum& { return layer[static_cast<int>(l)]; };
  auto c = [&](Ctr ctr) { return static_cast<double>(counters[ctr]); };
  auto q = [&](Ctr ctr) { return static_cast<double>(requests[ctr]); };
  auto per_op = [&](double v) { return v / ops; };
  auto us_per_op = [&](int64_t ns) { return static_cast<double>(ns) / 1e3 / ops; };
  const LayerSum& transport = L(Layer::kTransport);
  const double calls = static_cast<double>(transport.count);
  const bool array = members > 1;
  double member_total = 0;
  double member_max = 0;
  for (int64_t v : member_sim) {
    member_total += static_cast<double>(v);
    member_max = std::max(member_max, static_cast<double>(v));
  }
  const double cpu_sim = q(kDriveOps) * static_cast<double>(spec.drive.cpu_per_op);

  // Sim-time self-time rows of the timed phase; whatever they do not cover
  // is reported as its own gap row.
  const double total = static_cast<double>(r.sim_elapsed_us);
  const double rows[] = {
      static_cast<double>(L(Layer::kFs).self_sim),
      static_cast<double>(L(Layer::kRpc).self_sim),
      static_cast<double>(L(Layer::kCluster).self_sim),
      static_cast<double>(L(Layer::kRecovery).self_sim),
      static_cast<double>(net_sim),
      cpu_sim,
      q(kDiskBusyUs),
      static_cast<double>(L(Layer::kCleaner).sim),
  };
  double covered = 0;
  for (double v : rows) {
    covered += v;
  }
  const double gap = total - covered;
  *layer_gap_ok = std::fabs(gap) <= 1e-3 * total;

  return {
      {"fs.host_self_us", us_per_op(L(Layer::kFs).self_host_ns), "us"},
      {"fs.client_calls_per_op", per_op(static_cast<double>(fs_client_calls)), "count"},
      {"fs.syncs_per_op", per_op(static_cast<double>(fs_syncs)), "count"},
      {"rpc.host_self_us", us_per_op(L(Layer::kRpc).self_host_ns), "us"},
      {"rpc.server_host_us", us_per_op(transport.host_ns), "us"},
      {"rpc.calls_per_op", per_op(calls), "count"},
      {"rpc.bytes_per_call", Ratio(static_cast<double>(net_bytes), calls), "B"},
      {"sim.net.sim_us_per_call", Ratio(static_cast<double>(net_sim), calls), "us"},
      {"cluster.host_self_us", us_per_op(L(Layer::kCluster).self_host_ns), "us"},
      {"cluster.member_calls_per_op", array ? per_op(calls) : 0, "count"},
      {"cluster.parity_deltas_per_op", per_op(static_cast<double>(parity_deltas)), "count"},
      {"cluster.busy_imbalance", array ? Ratio(member_max, member_total / members) : 0,
       "ratio"},
      {"cluster.member_overlap", array ? Ratio(member_total, total) : 0, "ratio"},
      {"drive.exec_sim_us", per_op(static_cast<double>(transport.sim - net_sim)), "us"},
      {"drive.cpu_sim_us", per_op(cpu_sim), "us"},
      {"drive.throttle_delays", q(kThrottleDelays), "count"},
      {"drive.throttle_rejects", q(kThrottleRejects), "count"},
      {"drive.ops_denied", q(kDriveOpsDenied), "count"},
      {"journal.entries_per_op", per_op(c(kJournalEntries)), "count"},
      {"journal.sectors_written_per_op", per_op(c(kJournalSectors)), "count"},
      {"journal.inode_checkpoints_per_op", per_op(c(kInodeCheckpoints)), "count"},
      {"lfs.chunks_flushed_per_op", per_op(c(kLfsChunks)), "count"},
      {"lfs.sectors_per_chunk", Ratio(c(kLfsSectors), c(kLfsChunks)), "count"},
      {"lfs.bytes_flushed_per_op", per_op(c(kLfsBytes)), "B"},
      {"audit.blocks_written_per_op", per_op(c(kAuditBlocks)), "count"},
      {"audit.marker_writes", c(kAuditMarkerWrites), "count"},
      {"audit.records_per_request",
       Ratio(static_cast<double>(r.audit_records), static_cast<double>(r.audit_requests)),
       "ratio"},
      {"cache.block.hit_ratio", Ratio(q(kBlockHits), q(kBlockHits) + q(kBlockMisses)), "ratio"},
      {"cache.jsector.hit_ratio", Ratio(q(kJsectorHits), q(kJsectorHits) + q(kJsectorMisses)),
       "ratio"},
      {"cache.sectors_read_per_op", per_op(q(kCacheSectorsRead)), "count"},
      {"cache.readahead_sectors_per_op", per_op(q(kReadaheadSectors)), "count"},
      {"history.walk_sectors_per_read", Ratio(q(kHistoryWalkSectors), q(kTimeBasedReads)),
       "count"},
      {"history.waypoint_seek_ratio", Ratio(q(kWaypointSeeks), q(kHistoryWalks)), "ratio"},
      {"history.forward_reconstructions", q(kForwardReconstructions), "count"},
      {"cleaner.host_share",
       Ratio(static_cast<double>(L(Layer::kCleaner).host_ns),
             static_cast<double>(r.host_elapsed_ns)),
       "ratio"},
      {"cleaner.sim_share", Ratio(static_cast<double>(L(Layer::kCleaner).sim), total), "ratio"},
      {"cleaner.sectors_copied_per_segment_reclaimed",
       Ratio(c(kSectorsCopied), c(kSegmentsReclaimed)), "count"},
      {"cleaner.segments_reclaimed", c(kSegmentsReclaimed), "count"},
      {"cleaner.passes", c(kCleanerPasses), "count"},
      {"sim.disk.busy_us_per_op", per_op(c(kDiskBusyUs)), "us"},
      {"sim.disk.reads_per_op", per_op(c(kDiskReads)), "count"},
      {"sim.disk.writes_per_op", per_op(c(kDiskWrites)), "count"},
      {"sim.disk.seeks_per_op", per_op(c(kDiskSeeks)), "count"},
      {"sim.disk.sectors_per_write", Ratio(c(kDiskSectorsWritten), c(kDiskWrites)), "count"},
      {"recovery.host_self_us", us_per_op(L(Layer::kRecovery).self_host_ns), "us"},
      {"recovery.client_calls_per_op", per_op(static_cast<double>(recovery_calls)), "count"},
      {"mount.host_s", static_cast<double>(r.mount_host_ns) / 1e9, "s"},
      {"mount.segments_scanned", static_cast<double>(r.mount_segments_scanned), "count"},
      {"mount.chunks_replayed", static_cast<double>(r.mount_chunks_replayed), "count"},
      {"sum.total_sim_us", per_op(total), "us"},
      {"sum.fs_sim_us", per_op(rows[0]), "us"},
      {"sum.rpc_sim_us", per_op(rows[1]), "us"},
      {"sum.cluster_sim_us", per_op(rows[2]), "us"},
      {"sum.recovery_sim_us", per_op(rows[3]), "us"},
      {"sum.net_sim_us", per_op(rows[4]), "us"},
      {"sum.drive_cpu_sim_us", per_op(rows[5]), "us"},
      {"sum.disk_sim_us", per_op(rows[6]), "us"},
      {"sum.cleaner_sim_us", per_op(rows[7]), "us"},
      {"sum.gap_sim_us", per_op(gap), "us"},
      {"trace.spans", static_cast<double>(timed_spans), "count"},
  };
}

}  // namespace s4bench
