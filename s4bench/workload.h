// The benchmark's three workloads: their fixed sizes and the seeded
// generator that turns a seed into every input a run uses (op sequence,
// names, payload bytes, target times). Generation happens once, before any
// timing; the program only ever sees the generated ops.
#ifndef S4BENCH_WORKLOAD_H_
#define S4BENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/drive/options.h"
#include "src/sim/net_model.h"
#include "src/util/bytes.h"
#include "src/util/time.h"

namespace s4bench {

using s4::Bytes;

enum class Workload { kSmallfile, kTimetravel, kArray };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

// Sizes and settings of one workload. BENCHMARK.json states the same facts
// in prose; keep the two in step.
struct WorkloadSpec {
  Workload workload = Workload::kSmallfile;
  uint32_t members = 1;            // drives behind the file system
  uint64_t disk_bytes = 0;         // per drive
  s4::S4DriveOptions drive;        // per drive
  s4::NetModel net;
  uint32_t dirs = 10;
  // PostMark mix (smallfile, array).
  uint32_t initial_files = 0;
  uint32_t warmup_transactions = 0;  // run during setup, untimed
  uint32_t timed_transactions = 0;   // two ops each
  uint32_t tail_transactions = 0;    // after the checkpoint, before the crash
  uint32_t min_size = 512;
  uint32_t max_size = 9216;
  uint32_t max_append = 4096;
  uint32_t cleaner_every_ops = 0;    // 0 = never run the cleaner
  // Investigator mix (timetravel).
  uint32_t files = 0;
  uint32_t epochs = 0;               // history layers laid down at setup
  s4::SimDuration gap = 0;           // quiet sim time after each epoch
  uint32_t timed_ops = 0;
  uint32_t tail_ops = 0;             // after the checkpoint, before the crash
};

WorkloadSpec SpecFor(Workload w);

enum class OpKind : uint8_t {
  kCreate,      // CreateFile + WriteFile(0, payload)
  kDelete,      // Remove
  kRead,        // ReadFile of the whole current file
  kAppend,      // WriteFile at end of file
  kOverwrite,   // WriteFile inside the file (size unchanged)
  kQuietGap,    // setup only: the clock idles for WorkloadSpec::gap
  kReadAt,      // HistoryBrowser::ReadAt
  kVersionsOf,  // HistoryBrowser::VersionsOf
  kListAt,      // HistoryBrowser::ListAt of a directory
  kRestore,     // HistoryBrowser::RestoreFile
};
const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kRead;
  uint32_t file = 0;     // file id (kListAt: directory index)
  uint32_t len = 0;      // bytes written or read
  uint64_t offset = 0;   // write offset
  uint32_t payload = 0;  // offset of the written bytes in Inputs::pool
  uint32_t gap = 0;      // target time: this quiet gap ...
  uint32_t frac = 0;     // ... at frac parts-per-million of its length
  // The next op belongs to the same timed unit (the two halves of a
  // PostMark transaction are timed, counted and checked as one op).
  bool joins_next = false;
};

struct FileSpec {
  uint32_t dir = 0;
  uint32_t size = 0;  // size at creation
  std::string name;   // unique; random length, as real names have
};

struct Inputs {
  WorkloadSpec spec;
  Bytes pool;                   // payload bytes; ops reference slices of it
  std::vector<FileSpec> files;  // every file the run creates, by id
  std::vector<Op> setup;        // populate the rig (untimed)
  std::vector<Op> timed;
  // Untimed ops between a device checkpoint and the crash: the log that
  // mount must roll forward.
  std::vector<Op> tail;

  s4::ByteSpan Payload(const Op& op) const {
    return s4::ByteSpan(pool).subspan(op.payload, op.len);
  }
};

Inputs Generate(const WorkloadSpec& spec, uint64_t seed);

std::string DirName(uint32_t dir);
std::string FilePath(const Inputs& in, uint32_t file);

}  // namespace s4bench

#endif  // S4BENCH_WORKLOAD_H_
