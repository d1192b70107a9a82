// One round of a workload: build and populate a fresh rig from the
// generated inputs, run the timed ops, then check the outputs (oracle reads,
// the audit count and chain, and every synced write after a crash + mount).
#ifndef S4BENCH_RUNNER_H_
#define S4BENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "s4bench/trace.h"
#include "s4bench/workload.h"

namespace s4bench {

struct RoundResult {
  // Correctness. `failed` counts timed ops that erred or returned a wrong
  // result; `check_failures` counts failed whole-round checks (setup, audit,
  // restart, durability after the crash).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;
  std::vector<std::string> errors;  // the first few, for the report

  double setup_s = 0;
  std::vector<int64_t> sim_lat_us;   // per timed op
  std::vector<int64_t> host_lat_ns;  // per timed op
  int64_t sim_elapsed_us = 0;        // timed phase, sim clock
  int64_t host_elapsed_ns = 0;       // timed phase, host clock
  uint64_t user_bytes_written = 0;   // payload of acknowledged writes
  uint64_t device_bytes_written = 0;
  // Device bytes held (live + history pool) over live user bytes, averaged
  // over evenly spaced points of the timed phase (the history pool saws up
  // and down with expiry, so one end-of-run sample depends on the phase).
  double space_amp = 0;
  // Drive (and router) mounts after the crash, which comes a fixed tail of
  // ops after a clean unmount and remount.
  int64_t recovery_sim_us = 0;
  int64_t mount_host_ns = 0;
  uint64_t mount_segments_scanned = 0;
  uint64_t mount_chunks_replayed = 0;
  uint64_t audit_requests = 0;       // counted by the benchmark's transports
  uint64_t audit_records = 0;        // returned by QueryAudit for the timed phase

  // Pass-through evidence: hashes of every op's response and of the drives'
  // metric registries at the end of the timed phase.
  uint64_t response_digest = 0;
  uint64_t counter_digest = 0;

  // Traced rounds only: the timed phase's spans (then the mount spans).
  bool traced = false;
  std::vector<Span> spans;
  std::vector<Delta> deltas;

  // What the sim clock and the drives' counters decide for the timed phase;
  // equal across rounds of one seed and across traced and untraced rounds.
  // Mount figures are left out: S4Drive::Mount scans segments on 4 real
  // worker threads, so its sim time and replay count vary run to run.
  std::string SimDigest() const;
};

struct RoundOptions {
  // false: the program's objects are wired to each other directly, with no
  // decorator in between (self-test reference for pass-through).
  bool decorated = true;
  bool traced = false;        // record spans (needs `decorated`)
  int64_t corrupt_read = -1;  // self-test: flip a byte of this timed op's read
};

RoundResult RunRound(const Inputs& in, const RoundOptions& options);

}  // namespace s4bench

#endif  // S4BENCH_RUNNER_H_
