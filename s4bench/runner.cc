#include "s4bench/runner.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "s4bench/decorators.h"
#include "src/cluster/shard_router.h"
#include "src/fs/s4_fs.h"
#include "src/recovery/history_browser.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"

namespace s4bench {
namespace {

using s4::Credentials;

constexpr size_t kMaxErrorTexts = 8;
constexpr size_t kSpaceSamples = 16;
constexpr uint8_t kRouterMember = 255;  // mount span of ShardRouter::Mount
constexpr char kPartition[] = "root";

struct Member {
  std::unique_ptr<s4::BlockDevice> device;
  std::unique_ptr<s4::S4Drive> drive;
  std::unique_ptr<s4::S4RpcServer> server;
  std::unique_ptr<s4::LoopbackTransport> transport;
  std::unique_ptr<DriveProbe> probe;
  std::unique_ptr<TracedTransport> traced;
  s4::RpcTransport* link = nullptr;  // what clients of this drive talk to
};

// FNV-1a, for the pass-through digests.
class Hasher {
 public:
  void Add(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  void AddBytes(s4::ByteSpan b) {
    AddValue(b.size());
    Add(b.data(), b.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// The oracle's view of one file.
struct FileState {
  bool exists = false;
  FileHandle handle = 0;
  Bytes data;
  // Sim intervals of every call that created a version of the file.
  std::vector<std::pair<SimTime, SimTime>> mutations;
};

// What an op returned, kept for checking after its host time is taken.
struct Outcome {
  Status status;
  FileHandle handle = 0;
  Bytes data;
  std::vector<s4::HistoricalEntry> entries;
  std::vector<std::pair<SimTime, uint8_t>> versions;
};

class Round {
 public:
  Round(const Inputs& in, const RoundOptions& options)
      : in_(in), spec_(in.spec), options_(options), traced_(options.decorated && options.traced),
        log_(&clock_), files_(in.files.size()), handles_(in.files.size(), 0) {
    user_.client = 1;
    user_.user = 100;
    admin_.client = 2;
    admin_.admin_key = spec_.drive.admin_key;
    r_.traced = traced_;
    // Setup history per file (timetravel): the overwrite applied in each
    // epoch, in order, so the oracle can rebuild any version.
    uint32_t epoch = 0;
    history_.resize(in.files.size());
    for (const Op& op : in.setup) {
      if (op.kind == OpKind::kQuietGap) {
        ++epoch;
      } else if (op.kind == OpKind::kCreate || op.kind == OpKind::kOverwrite) {
        history_[op.file].push_back({epoch, &op});
      }
    }
    gap_start_.resize(spec_.epochs);
  }

  RoundResult Run() {
    int64_t setup_start = HostNowNs();
    if (!Setup()) {
      return std::move(r_);
    }
    r_.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
    Timed();
    CheckAudit();
    RestartAndTail();
    if (r_.check_failures == 0) {
      CrashAndRemount();
    }
    return std::move(r_);
  }

 private:
  void Fail(const std::string& what) {
    if (r_.errors.size() < kMaxErrorTexts) {
      r_.errors.push_back(what);
    }
  }
  void CheckFailed(const std::string& what) {
    ++r_.check_failures;
    Fail(what);
  }

  // ---- rig -----------------------------------------------------------------

  void BuildEndpoints() {
    for (uint32_t i = 0; i < members_.size(); ++i) {
      Member& m = members_[i];
      bool array = members_.size() > 1;
      m.server = std::make_unique<s4::S4RpcServer>(m.drive.get(), array ? int32_t(i) : -1);
      m.transport = std::make_unique<s4::LoopbackTransport>(
          m.server.get(), &clock_, spec_.net, array ? "shard" + std::to_string(i) : "");
      m.link = m.transport.get();
      if (options_.decorated) {
        m.probe = std::make_unique<DriveProbe>(m.drive.get(), m.device.get());
        m.traced = std::make_unique<TracedTransport>(m.transport.get(), spec_.net, &log_,
                                                     static_cast<uint8_t>(i), m.probe.get());
        m.link = m.traced.get();
      }
    }
  }

  // Client (S4Client or ShardRouter) behind the traced S4ClientApi.
  Status BuildClient(bool format) {
    if (members_.size() == 1) {
      client_ = std::make_unique<s4::S4Client>(members_[0].link, user_);
      client_api_ = client_.get();
      if (options_.decorated) {
        tclient_ = std::make_unique<TracedClient>(client_.get(), Layer::kRpc, &log_, nullptr);
        client_api_ = tclient_.get();
      }
      return Status::Ok();
    }
    std::vector<s4::ShardEndpoint> eps;
    for (Member& m : members_) {
      eps.push_back(s4::ShardEndpoint{m.drive.get(), m.link});
    }
    s4::ShardRouter::Options ropts;
    ropts.admin_key = spec_.drive.admin_key;
    ropts.parity_enabled = true;
    auto router = log_.Run(Layer::kMount, kRouterMember, nullptr, [&] {
      return format ? s4::ShardRouter::Format(std::move(eps), &clock_, user_, ropts)
                    : s4::ShardRouter::Mount(std::move(eps), &clock_, user_, ropts);
    });
    if (!router.ok()) {
      return router.status();
    }
    router_ = std::move(*router);
    client_api_ = router_.get();
    if (options_.decorated) {
      router_probe_ = std::make_unique<RouterProbe>(router_.get());
      tclient_ = std::make_unique<TracedClient>(router_.get(), Layer::kCluster, &log_,
                                                router_probe_.get());
      client_api_ = tclient_.get();
    }
    return Status::Ok();
  }

  Status BuildFs(bool format) {
    auto fs = format ? s4::S4FileSystem::Format(client_api_, kPartition)
                     : s4::S4FileSystem::Mount(client_api_, kPartition);
    if (!fs.ok()) {
      return fs.status();
    }
    s4fs_ = std::move(*fs);
    fs_ = s4fs_.get();
    if (options_.decorated) {
      fs_probe_ = std::make_unique<FsProbe>(s4fs_.get());
      traced_fs_ = std::make_unique<TracedFs>(s4fs_.get(), &log_, fs_probe_.get());
      fs_ = traced_fs_.get();
    }
    if (spec_.workload == Workload::kTimetravel) {
      // The investigator: an admin principal on its own client, sharing the
      // drive's link with the user's file system.
      admin_client_ = std::make_unique<s4::S4Client>(members_[0].link, admin_);
      browser_ = std::make_unique<s4::HistoryBrowser>(admin_client_.get(), kPartition);
      if (options_.decorated) {
        tbrowser_ = std::make_unique<TracedBrowser>(browser_.get(), &log_);
      }
    }
    return Status::Ok();
  }

  bool Setup() {
    members_.resize(spec_.members);
    for (Member& m : members_) {
      m.device = std::make_unique<s4::BlockDevice>(spec_.disk_bytes / s4::kSectorSize, &clock_);
      auto drive = s4::S4Drive::Format(m.device.get(), &clock_, spec_.drive);
      if (!drive.ok()) {
        CheckFailed("format: " + drive.status().ToString());
        return false;
      }
      m.drive = std::move(*drive);
    }
    BuildEndpoints();
    if (Status st = BuildClient(/*format=*/true); !st.ok()) {
      CheckFailed("array format: " + st.ToString());
      return false;
    }
    if (Status st = BuildFs(/*format=*/true); !st.ok()) {
      CheckFailed("fs format: " + st.ToString());
      return false;
    }
    auto root = fs_->Root();
    if (!root.ok()) {
      CheckFailed("root: " + root.status().ToString());
      return false;
    }
    for (uint32_t d = 0; d < spec_.dirs; ++d) {
      auto dir = fs_->Mkdir(*root, DirName(d), 0755);
      if (!dir.ok()) {
        CheckFailed("mkdir: " + dir.status().ToString());
        return false;
      }
      dirs_.push_back(*dir);
    }
    size_t next_clean = spec_.cleaner_every_ops;
    for (size_t i = 0; i < in_.setup.size(); ++i) {
      const Op& op = in_.setup[i];
      if (op.kind == OpKind::kQuietGap) {
        gap_start_[op.gap] = clock_.Now();
        clock_.Advance(spec_.gap);
        continue;
      }
      CleanIfDue(i, &next_clean);
      SimTime s0 = clock_.Now();
      Outcome out = Exec(op);
      Digest(out);
      if (!Verify(op, out, s0, clock_.Now())) {
        CheckFailed(std::string("setup op ") + OpKindName(op.kind) + " failed");
        return false;
      }
    }
    return r_.check_failures == 0;
  }

  // The drive's background cleaner, driven between ops as the bench
  // harness does: a pass once `ops_done` reaches *next, then every
  // cleaner_every_ops ops.
  void CleanIfDue(size_t ops_done, size_t* next) {
    if (spec_.cleaner_every_ops == 0 || ops_done < *next) {
      return;
    }
    *next += spec_.cleaner_every_ops;
    for (Member& m : members_) {
      auto pass = log_.Run(Layer::kCleaner, 0, m.probe.get(),
                           [&] { return m.drive->RunCleanerPass(2); });
      if (!pass.ok()) {
        CheckFailed("cleaner pass: " + pass.status().ToString());
      }
    }
  }

  // ---- ops -----------------------------------------------------------------

  SimTime TargetTime(const Op& op) const {
    return gap_start_[op.gap] +
           static_cast<SimTime>(static_cast<double>(spec_.gap) * op.frac / 1e6);
  }

  // Content of `file` while the clock idled in quiet gap `gap`: its create
  // payload with the overwrites of epochs 0..gap applied.
  Bytes ContentAt(uint32_t file, uint32_t gap) const {
    Bytes data;
    for (const auto& [epoch, op] : history_[file]) {
      if (epoch > gap) {
        break;
      }
      s4::ByteSpan payload = in_.Payload(*op);
      if (op->kind == OpKind::kCreate) {
        data.assign(payload.begin(), payload.end());
      } else {
        std::copy(payload.begin(), payload.end(), data.begin() + op->offset);
      }
    }
    return data;
  }

  // Calls the investigator's HistoryBrowser, through its decorator when the
  // rig has one.
  template <typename F>
  auto Browse(F&& call) {
    return tbrowser_ ? call(*tbrowser_) : call(*browser_);
  }

  Outcome Exec(const Op& op) {
    Outcome out;
    switch (op.kind) {
      case OpKind::kCreate: {
        auto h = fs_->CreateFile(dirs_[in_.files[op.file].dir], in_.files[op.file].name, 0644);
        if (!h.ok()) {
          out.status = h.status();
          break;
        }
        out.handle = *h;
        handles_[op.file] = *h;
        out.status = fs_->WriteFile(*h, 0, in_.Payload(op));
        break;
      }
      case OpKind::kDelete:
        out.status = fs_->Remove(dirs_[in_.files[op.file].dir], in_.files[op.file].name);
        break;
      case OpKind::kRead: {
        auto data = fs_->ReadFile(handles_[op.file], 0, op.len);
        out.status = data.status();
        if (data.ok()) {
          out.data = std::move(*data);
        }
        break;
      }
      case OpKind::kAppend:
      case OpKind::kOverwrite:
        out.status = fs_->WriteFile(handles_[op.file], op.offset, in_.Payload(op));
        break;
      case OpKind::kReadAt: {
        auto data =
            Browse([&](auto& b) { return b.ReadAt(FilePath(in_, op.file), TargetTime(op)); });
        out.status = data.status();
        if (data.ok()) {
          out.data = std::move(*data);
        }
        break;
      }
      case OpKind::kVersionsOf: {
        auto versions =
            Browse([&](auto& b) { return b.VersionsOf(FilePath(in_, op.file), TargetTime(op)); });
        out.status = versions.status();
        if (versions.ok()) {
          out.versions = std::move(*versions);
        }
        break;
      }
      case OpKind::kListAt: {
        auto entries =
            Browse([&](auto& b) { return b.ListAt("/" + DirName(op.file), TargetTime(op)); });
        out.status = entries.status();
        if (entries.ok()) {
          out.entries = std::move(*entries);
        }
        break;
      }
      case OpKind::kRestore:
        out.status =
            Browse([&](auto& b) { return b.RestoreFile(FilePath(in_, op.file), TargetTime(op)); });
        break;
      case OpKind::kQuietGap:
        break;
    }
    return out;
  }

  // Checks an op's outcome against the oracle and applies acknowledged
  // mutations to it. [s0, s1] is the op's sim interval.
  bool Verify(const Op& op, const Outcome& out, SimTime s0, SimTime s1) {
    FileState& f = files_[op.file];
    if (!out.status.ok()) {
      if (op.kind == OpKind::kCreate && out.handle != 0) {
        f = FileState{true, out.handle, {}, {{s0, s1}}};  // created, not written
      }
      Fail(std::string(OpKindName(op.kind)) + " " + std::to_string(op.file) + ": " +
           out.status.ToString());
      return false;
    }
    switch (op.kind) {
      case OpKind::kCreate: {
        s4::ByteSpan payload = in_.Payload(op);
        f = FileState{true, out.handle, Bytes(payload.begin(), payload.end()), {{s0, s1}}};
        user_bytes_ += op.len;
        return true;
      }
      case OpKind::kDelete:
        f = FileState{};
        return true;
      case OpKind::kAppend:
      case OpKind::kOverwrite: {
        s4::ByteSpan payload = in_.Payload(op);
        if (f.data.size() < op.offset + op.len) {
          f.data.resize(op.offset + op.len);
        }
        std::copy(payload.begin(), payload.end(), f.data.begin() + op.offset);
        f.mutations.push_back({s0, s1});
        user_bytes_ += op.len;
        return true;
      }
      case OpKind::kRead:
        return Expect(out.data == f.data, op, "current contents differ");
      case OpKind::kReadAt:
        return Expect(out.data == ContentAt(op.file, op.gap), op, "contents at T differ");
      case OpKind::kVersionsOf:
        return Expect(VersionsMatch(out.versions, f.mutations), op,
                      "version list does not match the file's writes");
      case OpKind::kListAt:
        return Expect(ListingMatches(op.file, out.entries), op, "listing at T differs");
      case OpKind::kRestore:
        f.data = ContentAt(op.file, op.gap);
        f.mutations.push_back({s0, s1});
        user_bytes_ += f.data.size();
        return true;
      case OpKind::kQuietGap:
        return true;
    }
    return false;
  }

  void Digest(const Outcome& out) {
    responses_.AddValue(out.status.code());
    responses_.AddValue(out.handle);
    responses_.AddBytes(out.data);
    for (const s4::HistoricalEntry& e : out.entries) {
      responses_.AddBytes(s4::BytesOf(e.name));
      responses_.AddValue(e.object);
      responses_.AddValue(e.size);
      responses_.AddValue(e.mtime);
    }
    for (const auto& [time, cause] : out.versions) {
      responses_.AddValue(time);
      responses_.AddValue(cause);
    }
  }

  bool Expect(bool ok, const Op& op, const char* what) {
    if (!ok) {
      Fail(std::string(OpKindName(op.kind)) + " " + std::to_string(op.file) + ": " + what);
    }
    return ok;
  }

  // Every call that mutated the file left at least one version inside its
  // sim interval, and every version lies inside such an interval.
  static bool VersionsMatch(const std::vector<std::pair<SimTime, uint8_t>>& versions,
                            const std::vector<std::pair<SimTime, SimTime>>& mutations) {
    for (size_t i = 1; i < versions.size(); ++i) {
      if (versions[i].first < versions[i - 1].first) {
        return false;
      }
    }
    size_t v = 0;
    for (const auto& [start, end] : mutations) {
      size_t inside = 0;
      while (v < versions.size() && versions[v].first <= end) {
        if (versions[v].first < start) {
          return false;  // a version no mutation accounts for
        }
        ++v;
        ++inside;
      }
      if (inside == 0) {
        return false;  // an acknowledged mutation left no version
      }
    }
    return v == versions.size();
  }

  // Every file of the directory, by name, with its (fixed) size and handle.
  bool ListingMatches(uint32_t dir, const std::vector<s4::HistoricalEntry>& entries) const {
    std::map<std::string, uint32_t> want;
    for (uint32_t id = 0; id < in_.files.size(); ++id) {
      if (in_.files[id].dir == dir) {
        want[in_.files[id].name] = id;
      }
    }
    if (entries.size() != want.size()) {
      return false;
    }
    for (const s4::HistoricalEntry& e : entries) {
      auto it = want.find(e.name);
      if (it == want.end() || e.size != in_.files[it->second].size ||
          e.object != files_[it->second].handle) {
        return false;
      }
    }
    return true;
  }

  // ---- timed phase ---------------------------------------------------------

  void Timed() {
    const std::vector<Op>& ops = in_.timed;
    r_.sim_lat_us.reserve(ops.size());
    r_.host_lat_ns.reserve(ops.size());
    uint64_t written0 = 0;
    requests0_.clear();
    for (Member& m : members_) {
      written0 += m.device->stats().sectors_written;
      requests0_.push_back(m.traced ? m.traced->requests() : 0);
    }
    user_bytes_ = 0;
    const size_t space_every = std::max<size_t>(ops.size() / kSpaceSamples, 1);
    double space_sum = 0;
    int space_samples = 0;
    log_.set_on(traced_);
    t0_ = clock_.Now();
    int64_t h0 = HostNowNs();
    size_t next_clean = spec_.cleaner_every_ops;
    size_t next_space = space_every;
    Outcome outs[2];
    SimTime starts[2];
    SimTime ends[2];
    for (size_t i = 0; i < ops.size();) {
      CleanIfDue(i, &next_clean);
      // One timed unit: an op and the op joined to it, if any.
      size_t n = ops[i].joins_next && i + 1 < ops.size() ? 2 : 1;
      log_.set_op(static_cast<uint32_t>(r_.attempted + 1));
      SimTime s0 = clock_.Now();
      int64_t hs = HostNowNs();
      for (size_t k = 0; k < n; ++k) {
        starts[k] = clock_.Now();
        outs[k] = Exec(ops[i + k]);
        ends[k] = clock_.Now();
      }
      int64_t he = HostNowNs();
      SimTime s1 = clock_.Now();
      log_.set_op(0);
      r_.sim_lat_us.push_back(s1 - s0);
      r_.host_lat_ns.push_back(he - hs);
      ++r_.attempted;
      bool ok = true;
      for (size_t k = 0; k < n; ++k) {
        if (static_cast<int64_t>(i + k) == options_.corrupt_read && !outs[k].data.empty()) {
          outs[k].data[outs[k].data.size() / 2] ^= 0x5a;
        }
        Digest(outs[k]);
        ok = Verify(ops[i + k], outs[k], starts[k], ends[k]) && ok;
      }
      if (!ok) {
        ++r_.failed;
      }
      i += n;
      if (i >= next_space) {
        next_space += space_every;
        space_sum += SpaceAmp();
        ++space_samples;
      }
    }
    r_.host_elapsed_ns = HostNowNs() - h0;
    t1_ = clock_.Now();
    log_.set_on(false);
    r_.sim_elapsed_us = t1_ - t0_;
    uint64_t written1 = 0;
    for (Member& m : members_) {
      written1 += m.device->stats().sectors_written;
    }
    r_.device_bytes_written = (written1 - written0) * s4::kSectorSize;
    r_.space_amp = space_sum / std::max(space_samples, 1);
    r_.response_digest = responses_.value();
    Hasher counters;
    for (Member& m : members_) {
      counters.AddBytes(s4::BytesOf(m.drive->metrics().ToJson()));
    }
    r_.counter_digest = counters.value();
    r_.user_bytes_written = user_bytes_;
  }

  double SpaceAmp() const {
    uint64_t held = 0;
    for (const Member& m : members_) {
      held += m.drive->LiveBytes() + m.drive->HistoryPoolBytes();
    }
    uint64_t live = 0;
    for (const FileState& f : files_) {
      live += f.exists ? f.data.size() : 0;
    }
    return static_cast<double>(held) / static_cast<double>(std::max<uint64_t>(live, 1));
  }

  // Exactly one audit record per request the drives were sent while timed,
  // and each drive's chain verifies through the public challenge protocol.
  void CheckAudit() {
    for (size_t i = 0; i < members_.size(); ++i) {
      Member& m = members_[i];
      s4::AuditQuery query;
      query.from = t0_ + 1;
      query.to = t1_;
      auto records = m.drive->QueryAudit(admin_, query);
      if (!records.ok()) {
        CheckFailed("QueryAudit: " + records.status().ToString());
        continue;
      }
      r_.audit_records += records->size();
      // The undecorated reference rig has no transport counting requests.
      if (m.traced != nullptr) {
        uint64_t requests = m.traced->requests() - requests0_[i];
        r_.audit_requests += requests;
        if (records->size() != requests) {
          CheckFailed("drive " + std::to_string(i) + ": " + std::to_string(records->size()) +
                      " audit records for " + std::to_string(requests) + " requests");
        }
      }
      // The auditor talks to the drive directly, outside the workload's link.
      s4::S4Client auditor(m.transport.get(), admin_);
      s4::AuditChainState saved;
      if (Status st = auditor.AuditChallenge(&saved); !st.ok()) {
        CheckFailed("audit challenge: " + st.ToString());
      }
    }
  }

  // ---- restart, tail, crash + mount ----------------------------------------

  // Everything above the devices goes, as in a power cut; the devices keep
  // what reached the platters.
  void DropStack() {
    tbrowser_.reset();
    browser_.reset();
    admin_client_.reset();
    fs_ = nullptr;
    traced_fs_.reset();
    fs_probe_.reset();
    s4fs_.reset();
    client_api_ = nullptr;
    tclient_.reset();
    router_probe_.reset();
    router_.reset();
    client_.reset();
    for (Member& m : members_) {
      m.traced.reset();
      m.probe.reset();
      m.transport.reset();
      m.server.reset();
      m.drive.reset();
    }
  }

  // Mounts every drive, then the array and the file system on top. With
  // `measure`, the mounts are the round's recovery figures (and spans).
  Status MountStack(bool measure) {
    log_.set_on(measure && traced_);
    SimTime m0 = clock_.Now();
    int64_t h0 = HostNowNs();
    Status st;
    for (uint32_t i = 0; i < members_.size() && st.ok(); ++i) {
      Member& m = members_[i];
      auto drive = log_.Run(Layer::kMount, static_cast<uint8_t>(i), nullptr, [&] {
        return s4::S4Drive::Mount(m.device.get(), &clock_, spec_.drive);
      });
      if (drive.ok()) {
        m.drive = std::move(*drive);
      } else {
        st = drive.status();
      }
    }
    if (st.ok()) {
      BuildEndpoints();
      st = BuildClient(/*format=*/false);
    }
    log_.set_on(false);
    if (!measure) {
      return st.ok() ? BuildFs(/*format=*/false) : st;
    }
    r_.mount_host_ns = HostNowNs() - h0;
    r_.recovery_sim_us = clock_.Now() - m0;
    if (traced_) {
      r_.spans = std::move(log_.spans());
      r_.deltas = std::move(log_.deltas());
    }
    if (!st.ok()) {
      return st;
    }
    for (Member& m : members_) {
      const s4::MetricRegistry& reg = m.drive->metrics();
      r_.mount_segments_scanned += reg.CounterValue("recovery.segments_scanned");
      r_.mount_chunks_replayed += reg.CounterValue("recovery.chunks_replayed");
    }
    return BuildFs(/*format=*/false);
  }

  // A clean shutdown and restart (every object leaves with a fresh inode
  // checkpoint), then a fixed tail of acknowledged ops: the crash that
  // follows leaves mount the same kind and amount of log to roll forward on
  // every seed, rather than whatever the checkpoint cadence left behind.
  void RestartAndTail() {
    for (Member& m : members_) {
      if (Status st = m.drive->Unmount(); !st.ok()) {
        CheckFailed("unmount: " + st.ToString());
      }
    }
    DropStack();
    if (Status st = MountStack(/*measure=*/false); !st.ok()) {
      CheckFailed("clean mount: " + st.ToString());
      return;
    }
    for (const Op& op : in_.tail) {
      SimTime s0 = clock_.Now();
      Outcome out = Exec(op);
      if (!Verify(op, out, s0, clock_.Now())) {
        CheckFailed(std::string("tail op ") + OpKindName(op.kind) + " failed");
      }
    }
  }

  void CrashAndRemount() {
    DropStack();
    if (Status st = MountStack(/*measure=*/true); !st.ok()) {
      CheckFailed("mount after crash: " + st.ToString());
      return;
    }
    CheckDurable();
  }

  // Every acknowledged (and, under strict NFSv2 sync, synced) write reads
  // back after the crash, and each directory lists exactly the live files.
  void CheckDurable() {
    std::vector<std::map<std::string, FileHandle>> want(dirs_.size());
    for (uint32_t id = 0; id < files_.size(); ++id) {
      const FileState& f = files_[id];
      if (!f.exists) {
        continue;
      }
      want[in_.files[id].dir][in_.files[id].name] = f.handle;
      auto data = fs_->ReadFile(f.handle, 0, f.data.size() + 1);
      if (!data.ok() || *data != f.data) {
        CheckFailed("after crash: " + FilePath(in_, id) + " does not read back");
      }
    }
    for (size_t d = 0; d < dirs_.size(); ++d) {
      auto entries = fs_->ReadDir(dirs_[d]);
      std::map<std::string, FileHandle> got;
      if (entries.ok()) {
        for (const s4::DirEntry& e : *entries) {
          got[e.name] = e.handle;
        }
      }
      if (!entries.ok() || got != want[d]) {
        CheckFailed("after crash: directory " + DirName(static_cast<uint32_t>(d)) +
                    " does not list the live files");
      }
    }
  }

  const Inputs& in_;
  const WorkloadSpec& spec_;
  RoundOptions options_;
  bool traced_;
  s4::SimClock clock_;
  SpanLog log_;
  Credentials user_;
  Credentials admin_;

  std::vector<Member> members_;
  std::unique_ptr<s4::S4Client> client_;
  std::unique_ptr<s4::ShardRouter> router_;
  std::unique_ptr<RouterProbe> router_probe_;
  std::unique_ptr<TracedClient> tclient_;
  s4::S4ClientApi* client_api_ = nullptr;  // what the file system talks to
  std::unique_ptr<s4::S4FileSystem> s4fs_;
  std::unique_ptr<FsProbe> fs_probe_;
  std::unique_ptr<TracedFs> traced_fs_;
  s4::FileSystemApi* fs_ = nullptr;  // what the workload talks to
  std::unique_ptr<s4::S4Client> admin_client_;
  std::unique_ptr<s4::HistoryBrowser> browser_;
  std::unique_ptr<TracedBrowser> tbrowser_;

  std::vector<FileHandle> dirs_;
  std::vector<FileState> files_;
  // Handle of each created file, recorded as soon as CreateFile returns: the
  // second half of a transaction may use a file its first half created.
  std::vector<FileHandle> handles_;
  std::vector<std::vector<std::pair<uint32_t, const Op*>>> history_;
  std::vector<SimTime> gap_start_;
  std::vector<uint64_t> requests0_;
  uint64_t user_bytes_ = 0;
  Hasher responses_;
  SimTime t0_ = 0;
  SimTime t1_ = 0;
  RoundResult r_;
};

}  // namespace

std::string RoundResult::SimDigest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the sim latencies
  for (int64_t v : sim_lat_us) {
    h = (h ^ static_cast<uint64_t>(v)) * 1099511628211ull;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%lld/%llx/%llu/%.9g/%llu",
                static_cast<long long>(sim_elapsed_us), static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(device_bytes_written), space_amp,
                static_cast<unsigned long long>(audit_records));
  return buf;
}

RoundResult RunRound(const Inputs& in, const RoundOptions& options) {
  return Round(in, options).Run();
}

}  // namespace s4bench
