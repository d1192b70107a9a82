#include "s4bench/workload.h"

#include <algorithm>
#include <utility>

#include "src/util/rng.h"

namespace s4bench {
namespace {

constexpr size_t kPoolBytes = 1 << 20;

class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed) : rng_(seed) {
    in_.spec = spec;
    in_.pool = rng_.RandomBytes(kPoolBytes, /*compressibility=*/0.0);
  }

  Inputs Smallfile() {
    const WorkloadSpec& s = in_.spec;
    for (uint32_t i = 0; i < s.initial_files; ++i) {
      Create(&in_.setup, RandomDir());
    }
    for (uint32_t t = 0; t < s.warmup_transactions; ++t) {
      Transaction(&in_.setup);
    }
    for (uint32_t t = 0; t < s.timed_transactions; ++t) {
      Transaction(&in_.timed);
    }
    for (uint32_t t = 0; t < s.tail_transactions; ++t) {
      Transaction(&in_.tail);
    }
    return std::move(in_);
  }

  Inputs Timetravel() {
    const WorkloadSpec& s = in_.spec;
    // Files spread evenly over the directories, so a listing costs the same
    // on every seed.
    for (uint32_t i = 0; i < s.files; ++i) {
      Create(&in_.setup, i % s.dirs);
    }
    // Each epoch overwrites every file once, then the clock idles, so every
    // target time inside a gap names one well-defined version of each file.
    for (uint32_t e = 0; e < s.epochs; ++e) {
      for (uint32_t f = 0; f < s.files; ++f) {
        in_.setup.push_back(Overwrite(f));
      }
      Op gap;
      gap.kind = OpKind::kQuietGap;
      gap.gap = e;
      in_.setup.push_back(gap);
    }
    InvestigatorOps(s.timed_ops, &in_.timed);
    InvestigatorOps(s.tail_ops, &in_.tail);
    return std::move(in_);
  }

 private:
  uint32_t PayloadFor(uint32_t len) {
    return static_cast<uint32_t>(rng_.Below(in_.pool.size() - len + 1));
  }

  uint32_t RandomDir() { return static_cast<uint32_t>(rng_.Below(in_.spec.dirs)); }

  void Create(std::vector<Op>* out, uint32_t dir) {
    const WorkloadSpec& s = in_.spec;
    Op op;
    op.kind = OpKind::kCreate;
    op.file = static_cast<uint32_t>(in_.files.size());
    op.len = static_cast<uint32_t>(rng_.Range(s.min_size, s.max_size));
    op.payload = PayloadFor(op.len);
    std::string name = "f" + std::to_string(op.file) + "-";
    for (uint64_t n = rng_.Range(2, 24); n > 0; --n) {
      name += static_cast<char>('a' + rng_.Below(26));
    }
    in_.files.push_back(FileSpec{dir, op.len, std::move(name)});
    size_.push_back(op.len);
    live_.push_back(op.file);
    out->push_back(op);
  }

  // PostMark (Katcher, NetApp TR3022) transaction: create or delete, then
  // read or append, with equal biases. The create/delete choice leans back
  // toward the initial file count (P(create) = 1 - live / 2*initial, so 1/2
  // at the initial count): seeds then differ in which files they touch, not
  // in how large the working set has drifted.
  void Transaction(std::vector<Op>* out) {
    uint64_t target = std::max<uint32_t>(in_.spec.initial_files, 1);
    if (live_.empty() || rng_.Below(2 * target) >= live_.size()) {
      Create(out, RandomDir());
    } else {
      size_t victim = rng_.Below(live_.size());
      Op op;
      op.kind = OpKind::kDelete;
      op.file = live_[victim];
      live_[victim] = live_.back();
      live_.pop_back();
      out->push_back(op);
    }
    if (live_.empty()) {
      return;
    }
    out->back().joins_next = true;
    Op op;
    op.file = live_[rng_.Below(live_.size())];
    if (rng_.Below(10) < 5) {
      op.kind = OpKind::kRead;
      op.len = static_cast<uint32_t>(size_[op.file]);
    } else {
      op.kind = OpKind::kAppend;
      op.offset = size_[op.file];
      op.len = static_cast<uint32_t>(rng_.Range(1, in_.spec.max_append));
      op.payload = PayloadFor(op.len);
      size_[op.file] += op.len;
    }
    out->push_back(op);
  }

  // The investigator mix, with the user's overwrites and reads beside it:
  // exact shares of each kind, in seeded random order.
  void InvestigatorOps(uint32_t n, std::vector<Op>* out) {
    static constexpr std::pair<OpKind, uint32_t> kShares[] = {
        {OpKind::kOverwrite, 20}, {OpKind::kRead, 12},    {OpKind::kReadAt, 42},
        {OpKind::kVersionsOf, 13}, {OpKind::kListAt, 10}, {OpKind::kRestore, 3},
    };
    std::vector<OpKind> deck;
    for (const auto& [kind, percent] : kShares) {
      deck.insert(deck.end(), n * percent / 100, kind);
    }
    deck.resize(n, OpKind::kReadAt);
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng_.Below(i)]);
    }
    const WorkloadSpec& s = in_.spec;
    for (OpKind kind : deck) {
      uint32_t file = static_cast<uint32_t>(rng_.Below(kind == OpKind::kListAt ? s.dirs : s.files));
      if (kind == OpKind::kOverwrite) {
        out->push_back(Overwrite(file));
        continue;
      }
      Op op;
      op.kind = kind;
      op.file = file;
      if (kind == OpKind::kRead) {
        op.len = in_.files[file].size;
      } else {
        op.gap = static_cast<uint32_t>(rng_.Below(s.epochs));
        op.frac = static_cast<uint32_t>(rng_.Below(1000000));
      }
      out->push_back(op);
    }
  }

  Op Overwrite(uint32_t file) {
    Op op;
    op.kind = OpKind::kOverwrite;
    op.file = file;
    uint32_t size = in_.files[file].size;
    op.len = static_cast<uint32_t>(rng_.Range(512, std::min<uint32_t>(4096, size)));
    op.offset = rng_.Range(0, size - op.len);
    op.payload = PayloadFor(op.len);
    return op;
  }

  s4::Rng rng_;
  Inputs in_;
  std::vector<uint64_t> size_;   // current size by file id
  std::vector<uint32_t> live_;   // ids of files that exist
};

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kSmallfile, Workload::kTimetravel, Workload::kArray}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSmallfile:
      return "smallfile";
    case Workload::kTimetravel:
      return "timetravel";
    case Workload::kArray:
      return "array";
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
      return "create";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kRead:
      return "read";
    case OpKind::kAppend:
      return "append";
    case OpKind::kOverwrite:
      return "overwrite";
    case OpKind::kQuietGap:
      return "quiet_gap";
    case OpKind::kReadAt:
      return "read_at";
    case OpKind::kVersionsOf:
      return "versions_of";
    case OpKind::kListAt:
      return "list_at";
    case OpKind::kRestore:
      return "restore";
  }
  return "?";
}

WorkloadSpec SpecFor(Workload w) {
  WorkloadSpec s;
  s.workload = w;
  switch (w) {
    case Workload::kSmallfile:
      // One S4-NAS drive; PostMark's working set (~10MB) fits the 32MB
      // block cache. The 10s window is about 500 transactions of sim time,
      // so versions expire throughout and the warm-up already runs in
      // expiry steady state. The disk holds the whole run's log: past 3/4
      // full, compaction stalls on a victim segment it cannot move and
      // writes fail with OUT_OF_SPACE.
      s.disk_bytes = 256ull << 20;
      s.drive.detection_window = 10 * s4::kSecond;
      s.initial_files = 1000;
      s.warmup_transactions = 1500;
      s.timed_transactions = 4000;
      s.tail_transactions = 100;
      s.cleaner_every_ops = 100;
      break;
    case Workload::kTimetravel:
      // Deep version chains under the default 7-day window (nothing
      // expires, the cleaner never runs); a 2MB block cache against ~50MB
      // of history keeps back-in-time reads going to the disk. 64 files of
      // 16KB, 96 epochs each overwriting every file once.
      s.disk_bytes = 256ull << 20;
      s.drive.block_cache_bytes = 2ull << 20;
      s.dirs = 8;
      s.files = 64;
      s.min_size = 16384;  // one size: every file costs the same to rebuild
      s.max_size = 16384;
      s.epochs = 96;
      s.gap = s4::kSecond;
      s.timed_ops = 6000;
      s.tail_ops = 200;
      break;
    case Workload::kArray:
      // Four members with rotating XOR parity. Member caches are smaller
      // than the working set, disks are large and the window is 7 days, so
      // nothing is cleaned.
      s.members = 4;
      s.disk_bytes = 128ull << 20;
      s.drive.segment_sectors = 512;
      s.drive.block_cache_bytes = 1ull << 20;
      s.drive.object_cache_bytes = 64ull << 10;
      s.drive.checkpoint_interval_bytes = 4ull << 20;
      s.initial_files = 400;
      s.timed_transactions = 3000;
      s.tail_transactions = 100;
      break;
  }
  return s;
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed) {
  Generator gen(spec, seed);
  return spec.workload == Workload::kTimetravel ? gen.Timetravel() : gen.Smallfile();
}

std::string DirName(uint32_t dir) { return "d" + std::to_string(dir); }
std::string FilePath(const Inputs& in, uint32_t file) {
  return "/" + DirName(in.files[file].dir) + "/" + in.files[file].name;
}

}  // namespace s4bench
