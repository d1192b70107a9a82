// Self-tests of the benchmark's own code (s4bench --self-test):
//   - the decorators are pass-through: on a short seed, a rig without them,
//     one with them idle and one tracing give identical responses, drive
//     counters and audit record counts;
//   - the oracle flags a deliberately corrupted read;
//   - percentile selection returns a raw sample (never a bucket edge) and
//     the report states the sample count.
#include <cstdio>
#include <string>
#include <vector>

#include "s4bench/report.h"
#include "s4bench/runner.h"
#include "s4bench/workload.h"

namespace s4bench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

// A few hundred ops of each workload: enough to cross every boundary.
WorkloadSpec SmallSpec(Workload w) {
  WorkloadSpec s = SpecFor(w);
  s.initial_files = std::min<uint32_t>(s.initial_files, 40);
  s.warmup_transactions = std::min<uint32_t>(s.warmup_transactions, 60);
  s.timed_transactions = std::min<uint32_t>(s.timed_transactions, 120);
  s.files = std::min<uint32_t>(s.files, 8);
  s.epochs = std::min<uint32_t>(s.epochs, 6);
  s.timed_ops = std::min<uint32_t>(s.timed_ops, 150);
  s.tail_transactions = std::min<uint32_t>(s.tail_transactions, 10);
  s.tail_ops = std::min<uint32_t>(s.tail_ops, 20);
  return s;
}

bool Clean(const RoundResult& r) { return r.failed == 0 && r.check_failures == 0; }

void TestPassThrough(Workload w) {
  Inputs in = Generate(SmallSpec(w), 7);
  RoundOptions bare;
  bare.decorated = false;
  RoundOptions idle;
  RoundOptions traced;
  traced.traced = true;
  RoundResult a = RunRound(in, bare);
  RoundResult b = RunRound(in, idle);
  RoundResult c = RunRound(in, traced);
  std::string name = WorkloadName(w);
  Expect(Clean(a) && Clean(b) && Clean(c), name + ": all three rigs run clean");
  Expect(a.response_digest == b.response_digest && b.response_digest == c.response_digest,
         name + ": identical responses with and without decorators");
  Expect(a.counter_digest == b.counter_digest && b.counter_digest == c.counter_digest,
         name + ": identical drive counters with and without decorators");
  Expect(a.audit_records == b.audit_records && b.audit_records == c.audit_records &&
             b.audit_records == b.audit_requests,
         name + ": identical audit record counts, one per request");
  Expect(a.SimDigest() == b.SimDigest() && b.SimDigest() == c.SimDigest(),
         name + ": identical sim-time results");
  Expect(!c.spans.empty() && b.spans.empty(), name + ": only the traced rig records spans");
  bool gap_ok = false;
  LayerMetrics(c, in.spec, &gap_ok);
  Expect(gap_ok, name + ": layer rows add up to the sim total");
}

void TestOracleFlagsCorruption(Workload w, OpKind read_kind) {
  Inputs in = Generate(SmallSpec(w), 11);
  int64_t target = -1;
  for (size_t i = 0; i < in.timed.size(); ++i) {
    if (in.timed[i].kind == read_kind) {
      target = static_cast<int64_t>(i);
      break;
    }
  }
  RoundOptions options;
  options.corrupt_read = target;
  RoundResult r = RunRound(in, options);
  Expect(target >= 0 && r.failed == 1 && r.check_failures == 0,
         std::string(WorkloadName(w)) + ": oracle flags one corrupted " +
             OpKindName(read_kind) + " result");
}

void TestPercentiles() {
  std::vector<double> ramp;
  for (int i = 1000; i >= 1; --i) {
    ramp.push_back(i);
  }
  Expect(Percentile(ramp, 0.50) == 500 && Percentile(ramp, 0.99) == 990 &&
             Percentile(ramp, 1.0) == 1000,
         "nearest-rank percentiles of 1..1000");
  // A log2 histogram would report 16383 here.
  std::vector<double> flat(500, 12345.0);
  flat.push_back(9000.0);
  Expect(Percentile(flat, 0.99) == 12345.0 && Percentile(flat, 0.001) == 9000.0,
         "percentiles are raw samples, never bucket edges");
  Expect(Percentile({}, 0.99) == 0 && Median({1, 2, 3, 4}) == 2.5, "empty and even-count");
}

}  // namespace

int SelfTest() {
  TestPercentiles();
  for (Workload w : {Workload::kSmallfile, Workload::kTimetravel, Workload::kArray}) {
    TestPassThrough(w);
  }
  TestOracleFlagsCorruption(Workload::kSmallfile, OpKind::kRead);
  TestOracleFlagsCorruption(Workload::kTimetravel, OpKind::kReadAt);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace s4bench
