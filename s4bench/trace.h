// In-memory span log for the benchmark's traced runs.
//
// Every decorated boundary (see decorators.h) opens a span: layer, member
// drive, enclosing span, workload op, start/end on both the sim clock and the
// host clock, plus the deltas of the public counters a Probe reads at the
// same boundary. Spans stay in memory and are written out once the run ends.
// When the log is off, Run() is a single branch around the wrapped call, so
// untraced runs measure the program, not the tracer.
#ifndef S4BENCH_TRACE_H_
#define S4BENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/sim_clock.h"

namespace s4bench {

using s4::SimTime;

enum class Layer : uint8_t {
  kFs,         // FileSystemApi (S4FileSystem)
  kRpc,        // S4ClientApi served by S4Client
  kCluster,    // S4ClientApi served by ShardRouter
  kTransport,  // RpcTransport (LoopbackTransport: sim.net + the drive behind it)
  kRecovery,   // HistoryBrowser
  kCleaner,    // S4Drive::RunCleanerPass
  kMount,      // S4Drive::Mount / ShardRouter::Mount
  kCount,
};
const char* LayerName(Layer layer);

// Public counters read at span boundaries. Each Probe fills the ones its
// component publishes and leaves the rest zero.
enum Ctr : uint8_t {
  kDiskReads,
  kDiskWrites,
  kDiskSectorsRead,
  kDiskSectorsWritten,
  kDiskSeeks,
  kDiskBusyUs,
  kDriveOps,
  kDriveOpsDenied,
  kTimeBasedReads,
  kJournalEntries,
  kJournalSectors,
  kInodeCheckpoints,
  kAuditRecords,
  kAuditBlocks,
  kAuditMarkerWrites,
  kLfsChunks,
  kLfsSectors,
  kLfsBytes,
  kBlockHits,
  kBlockMisses,
  kCacheSectorsRead,
  kReadaheadSectors,
  kJsectorHits,
  kJsectorMisses,
  kHistoryWalks,
  kHistoryWalkSectors,
  kWaypointSeeks,
  kForwardReconstructions,
  kThrottleDelays,
  kThrottleRejects,
  kCleanerPasses,
  kSegmentsReclaimed,
  kSectorsCopied,
  kFsSyncs,
  kParityDeltas,
  kCtrCount,
};
const char* CtrName(Ctr c);

using Snapshot = std::array<uint64_t, kCtrCount>;

class Probe {
 public:
  virtual ~Probe() = default;
  virtual void Read(Snapshot* out) const = 0;
};

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kFs;
  uint8_t member = 0;   // drive index inside the rig
  uint32_t parent = 0;  // index + 1 of the enclosing span; 0 = top level
  uint32_t op = 0;      // workload op index + 1; 0 = between ops (cleaner, mount)
  SimTime sim_start = 0;
  SimTime sim_end = 0;
  int64_t host_start = 0;  // ns, steady clock
  int64_t host_end = 0;
  // Host time the tracer itself spent inside this span on behalf of its
  // children (probe reads around them); excluded from this span's self time.
  int64_t tracer_ns = 0;
  int64_t net_sim = 0;    // transport spans: modelled network time
  uint64_t net_bytes = 0; // transport spans: request + response bytes
  uint32_t delta_begin = 0;
  uint16_t delta_count = 0;

  int64_t sim() const { return sim_end - sim_start; }
  int64_t host() const { return host_end - host_start; }
};

struct Delta {
  Ctr ctr;
  uint64_t value;
};

// Delta of counter `c` recorded on span `s` (0 when it did not move).
uint64_t DeltaOf(const std::vector<Delta>& deltas, const Span& s, Ctr c);

// Chrome-trace JSON ("traceEvents", host-time axis), with the sim-time
// interval, parent, op and counter deltas of each span under "args".
bool WriteChromeJson(const std::vector<Span>& spans, const std::vector<Delta>& deltas,
                     const std::string& path);

class SpanLog {
 public:
  explicit SpanLog(s4::SimClock* clock) : clock_(clock) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_op(uint32_t op) { op_ = op; }

  struct Token {
    uint32_t index = 0;
    int64_t enter = 0;
    Snapshot before{};
  };
  Token Open(Layer layer, uint8_t member, const Probe* probe);
  // `net_sim`/`net_bytes` are filled by transport spans only.
  void Close(Token& token, const Probe* probe, int64_t net_sim = 0, uint64_t net_bytes = 0);

  template <typename F>
  auto Run(Layer layer, uint8_t member, const Probe* probe, F&& fn) -> decltype(fn()) {
    if (!on_) {
      return fn();
    }
    Token token = Open(layer, member, probe);
    auto result = fn();
    Close(token, probe);
    return result;
  }

  std::vector<Span>& spans() { return spans_; }
  std::vector<Delta>& deltas() { return deltas_; }

 private:
  s4::SimClock* clock_;
  bool on_ = false;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<Delta> deltas_;
  std::vector<uint32_t> stack_;
};

}  // namespace s4bench

#endif  // S4BENCH_TRACE_H_
