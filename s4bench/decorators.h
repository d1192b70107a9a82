// Pass-through decorators at the program's existing public interfaces.
//
// Each forwards every call unchanged to the object it wraps. With the span
// log on, the call also becomes a span carrying the counter deltas of the
// component behind it. The benchmark stacks them as
//
//   TracedFs -> S4FileSystem -> TracedClient -> S4Client | ShardRouter
//            -> TracedTransport -> LoopbackTransport -> S4RpcServer -> S4Drive
//
// and wraps HistoryBrowser calls in TracedBrowser.
#ifndef S4BENCH_DECORATORS_H_
#define S4BENCH_DECORATORS_H_

#include <string>
#include <vector>

#include "s4bench/trace.h"
#include "src/cluster/shard_router.h"
#include "src/fs/s4_fs.h"
#include "src/recovery/history_browser.h"
#include "src/rpc/transport.h"

namespace s4bench {

using s4::Bytes;
using s4::ByteSpan;
using s4::FileHandle;
using s4::Result;
using s4::Status;

// Device stats, the drive's metric registry and the segment writer stats.
class DriveProbe final : public Probe {
 public:
  DriveProbe(const s4::S4Drive* drive, const s4::BlockDevice* device);
  void Read(Snapshot* out) const override;

 private:
  const s4::S4Drive* drive_;
  const s4::BlockDevice* device_;
  const s4::Counter* counters_[kCtrCount] = {};
};

class FsProbe final : public Probe {
 public:
  explicit FsProbe(const s4::S4FileSystem* fs) : fs_(fs) {}
  void Read(Snapshot* out) const override { (*out)[kFsSyncs] = fs_->stats().rpc_syncs; }

 private:
  const s4::S4FileSystem* fs_;
};

class RouterProbe final : public Probe {
 public:
  explicit RouterProbe(const s4::ShardRouter* router) : router_(router) {}
  void Read(Snapshot* out) const override {
    (*out)[kParityDeltas] = router_->rstats().parity_deltas;
  }

 private:
  const s4::ShardRouter* router_;
};

class TracedFs final : public s4::FileSystemApi {
 public:
  TracedFs(s4::FileSystemApi* inner, SpanLog* log, const Probe* probe)
      : inner_(inner), log_(log), probe_(probe) {}

  Result<FileHandle> Root() override {
    return Run([&] { return inner_->Root(); });
  }
  Result<FileHandle> Lookup(FileHandle dir, const std::string& name) override {
    return Run([&] { return inner_->Lookup(dir, name); });
  }
  Result<FileHandle> CreateFile(FileHandle dir, const std::string& name,
                                uint32_t mode) override {
    return Run([&] { return inner_->CreateFile(dir, name, mode); });
  }
  Result<FileHandle> Mkdir(FileHandle dir, const std::string& name, uint32_t mode) override {
    return Run([&] { return inner_->Mkdir(dir, name, mode); });
  }
  Status Remove(FileHandle dir, const std::string& name) override {
    return Run([&] { return inner_->Remove(dir, name); });
  }
  Status Rmdir(FileHandle dir, const std::string& name) override {
    return Run([&] { return inner_->Rmdir(dir, name); });
  }
  Status Rename(FileHandle from_dir, const std::string& from_name, FileHandle to_dir,
                const std::string& to_name) override {
    return Run([&] { return inner_->Rename(from_dir, from_name, to_dir, to_name); });
  }
  Result<Bytes> ReadFile(FileHandle file, uint64_t offset, uint64_t length) override {
    return Run([&] { return inner_->ReadFile(file, offset, length); });
  }
  Status WriteFile(FileHandle file, uint64_t offset, ByteSpan data) override {
    return Run([&] { return inner_->WriteFile(file, offset, data); });
  }
  Result<s4::FileAttr> GetAttr(FileHandle file) override {
    return Run([&] { return inner_->GetAttr(file); });
  }
  Status SetSize(FileHandle file, uint64_t size) override {
    return Run([&] { return inner_->SetSize(file, size); });
  }
  Result<std::vector<s4::DirEntry>> ReadDir(FileHandle dir) override {
    return Run([&] { return inner_->ReadDir(dir); });
  }
  Result<FileHandle> Symlink(FileHandle dir, const std::string& name,
                             const std::string& target) override {
    return Run([&] { return inner_->Symlink(dir, name, target); });
  }
  Result<std::string> ReadLink(FileHandle link) override {
    return Run([&] { return inner_->ReadLink(link); });
  }

 private:
  template <typename F>
  auto Run(F&& fn) -> decltype(fn()) {
    return log_->Run(Layer::kFs, 0, probe_, fn);
  }

  s4::FileSystemApi* inner_;
  SpanLog* log_;
  const Probe* probe_;
};

// Sits between S4FileSystem and its S4ClientApi. The typed Table-1 wrappers
// of S4ClientApi all funnel into Call/CallBatch, so those two are the
// boundary.
class TracedClient final : public s4::S4ClientApi {
 public:
  TracedClient(s4::S4ClientApi* inner, Layer layer, SpanLog* log, const Probe* probe)
      : inner_(inner), layer_(layer), log_(log), probe_(probe) {}

  const s4::Credentials& creds() const override { return inner_->creds(); }
  void set_creds(s4::Credentials creds) override { inner_->set_creds(creds); }
  Result<s4::RpcResponse> Call(s4::RpcRequest req) override {
    return log_->Run(layer_, 0, probe_, [&] { return inner_->Call(std::move(req)); });
  }
  Result<std::vector<s4::RpcResponse>> CallBatch(std::vector<s4::RpcRequest> reqs) override {
    return log_->Run(layer_, 0, probe_, [&] { return inner_->CallBatch(std::move(reqs)); });
  }

 private:
  s4::S4ClientApi* inner_;
  Layer layer_;
  SpanLog* log_;
  const Probe* probe_;
};

// Wraps one drive's LoopbackTransport. Besides the span it always counts the
// requests carried, which is the benchmark's own tally for the audit check
// (one record per request; a kBatch frame is its sub-requests plus the
// envelope).
class TracedTransport final : public s4::RpcTransport {
 public:
  TracedTransport(s4::RpcTransport* inner, s4::NetModel model, SpanLog* log, uint8_t member,
                  const Probe* probe)
      : inner_(inner), model_(model), log_(log), member_(member), probe_(probe) {}

  Result<Bytes> Call(ByteSpan request) override;

  uint64_t requests() const { return requests_; }

 private:
  s4::RpcTransport* inner_;
  s4::NetModel model_;
  SpanLog* log_;
  uint8_t member_;
  const Probe* probe_;
  uint64_t requests_ = 0;
};

// HistoryBrowser is a concrete class, so its decorator mirrors the calls the
// investigator workload makes.
class TracedBrowser {
 public:
  TracedBrowser(s4::HistoryBrowser* inner, SpanLog* log) : inner_(inner), log_(log) {}

  Result<Bytes> ReadAt(const std::string& path, SimTime at) {
    return log_->Run(Layer::kRecovery, 0, nullptr, [&] { return inner_->ReadAt(path, at); });
  }
  Result<std::vector<s4::HistoricalEntry>> ListAt(const std::string& path, SimTime at) {
    return log_->Run(Layer::kRecovery, 0, nullptr, [&] { return inner_->ListAt(path, at); });
  }
  Result<std::vector<std::pair<SimTime, uint8_t>>> VersionsOf(const std::string& path,
                                                              SimTime at) {
    return log_->Run(Layer::kRecovery, 0, nullptr,
                     [&] { return inner_->VersionsOf(path, at); });
  }
  Status RestoreFile(const std::string& path, SimTime at) {
    return log_->Run(Layer::kRecovery, 0, nullptr,
                     [&] { return inner_->RestoreFile(path, at); });
  }

 private:
  s4::HistoryBrowser* inner_;
  SpanLog* log_;
};

}  // namespace s4bench

#endif  // S4BENCH_DECORATORS_H_
