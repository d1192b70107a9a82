#include "s4bench/trace.h"

#include <cstdio>
#include <iterator>

namespace s4bench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kFs:
      return "fs";
    case Layer::kRpc:
      return "rpc";
    case Layer::kCluster:
      return "cluster";
    case Layer::kTransport:
      return "rpc.transport";
    case Layer::kRecovery:
      return "recovery";
    case Layer::kCleaner:
      return "drive.cleaner";
    case Layer::kMount:
      return "mount";
    case Layer::kCount:
      break;
  }
  return "?";
}

const char* CtrName(Ctr c) {
  static const char* const kNames[] = {
      "disk.reads",          "disk.writes",
      "disk.sectors_read",   "disk.sectors_written",
      "disk.seeks",          "disk.busy_us",
      "drive.ops",           "drive.ops_denied",
      "drive.time_based_reads", "journal.entries",
      "journal.sectors_written", "journal.inode_checkpoints",
      "audit.records",       "audit.blocks_written",
      "audit.marker_writes", "lfs.chunks_flushed",
      "lfs.sectors_flushed", "lfs.bytes_flushed",
      "cache.block.hits",    "cache.block.misses",
      "cache.sectors_read",  "cache.readahead_sectors",
      "cache.jsector.hits",  "cache.jsector.misses",
      "history.walks",       "history.walk_sectors",
      "history.waypoint_seeks", "history.forward_reconstructions",
      "throttle.delays",     "throttle.rejects",
      "cleaner.passes",      "cleaner.segments_reclaimed",
      "cleaner.sectors_copied", "fs.syncs",
      "cluster.parity_deltas",
  };
  static_assert(std::size(kNames) == kCtrCount, "one name per Ctr");
  return c < kCtrCount ? kNames[c] : "?";
}

SpanLog::Token SpanLog::Open(Layer layer, uint8_t member, const Probe* probe) {
  Token token;
  token.enter = HostNowNs();
  if (probe != nullptr) {
    probe->Read(&token.before);
  }
  Span span;
  span.layer = layer;
  span.member = member;
  span.parent = stack_.empty() ? 0 : stack_.back() + 1;
  span.op = op_;
  token.index = static_cast<uint32_t>(spans_.size());
  stack_.push_back(token.index);
  span.sim_start = clock_->Now();
  span.host_start = HostNowNs();
  spans_.push_back(span);
  return token;
}

void SpanLog::Close(Token& token, const Probe* probe, int64_t net_sim, uint64_t net_bytes) {
  int64_t host_end = HostNowNs();
  SimTime sim_end = clock_->Now();
  Span& span = spans_[token.index];
  span.host_end = host_end;
  span.sim_end = sim_end;
  span.net_sim = net_sim;
  span.net_bytes = net_bytes;
  if (probe != nullptr) {
    Snapshot after{};
    probe->Read(&after);
    span.delta_begin = static_cast<uint32_t>(deltas_.size());
    for (int c = 0; c < kCtrCount; ++c) {
      if (after[c] != token.before[c]) {
        deltas_.push_back(Delta{static_cast<Ctr>(c), after[c] - token.before[c]});
      }
    }
    span.delta_count = static_cast<uint16_t>(deltas_.size() - span.delta_begin);
  }
  stack_.pop_back();
  if (span.parent != 0) {
    int64_t outside = (HostNowNs() - token.enter) - (span.host_end - span.host_start);
    spans_[span.parent - 1].tracer_ns += outside;
  }
}

uint64_t DeltaOf(const std::vector<Delta>& deltas, const Span& s, Ctr c) {
  for (uint32_t i = s.delta_begin; i < s.delta_begin + s.delta_count; ++i) {
    if (deltas[i].ctr == c) {
      return deltas[i].value;
    }
  }
  return 0;
}

bool WriteChromeJson(const std::vector<Span>& spans, const std::vector<Delta>& deltas,
                     const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = spans.empty() ? 0 : spans.front().host_start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %u, "
                 "\"op\": %u, \"sim_start_us\": %lld, \"sim_dur_us\": %lld",
                 i == 0 ? "" : ",\n", LayerName(s.layer), s.member + 1u, s.op,
                 static_cast<double>(s.host_start - origin) / 1e3,
                 static_cast<double>(s.host()) / 1e3, i + 1, s.parent, s.op,
                 static_cast<long long>(s.sim_start), static_cast<long long>(s.sim()));
    if (s.layer == Layer::kTransport) {
      std::fprintf(f, ", \"net_sim_us\": %lld, \"net_bytes\": %llu",
                   static_cast<long long>(s.net_sim),
                   static_cast<unsigned long long>(s.net_bytes));
    }
    for (uint32_t d = s.delta_begin; d < s.delta_begin + s.delta_count; ++d) {
      std::fprintf(f, ", \"%s\": %llu", CtrName(deltas[d].ctr),
                   static_cast<unsigned long long>(deltas[d].value));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace s4bench
