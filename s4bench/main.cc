// s4bench: the repository benchmark.
//
//   s4bench --workload smallfile|timetravel|array --seed N --seconds S --trace 0|1
//           [--trace-out FILE]
//   s4bench --self-test
//
// Inputs come from the seed alone and are generated before any timing. The
// run repeats rounds (fresh rig, populate, timed ops, checks) until S host
// seconds have passed: sim-time figures are those of any one round (every
// round of a seed must agree exactly), per-op host figures come from the
// best untraced round, setup and mount figures are medians over rounds, and
// with --trace 1 every second round is traced for the per-layer breakdown.
// The last line of stdout is one JSON object; the exit code is non-zero on
// any correctness failure.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "s4bench/report.h"
#include "s4bench/runner.h"
#include "s4bench/workload.h"

namespace s4bench {

int SelfTest();  // selftest.cc

namespace {

constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;
constexpr int kMaxRounds = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->self_test || !args->workload.empty();
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}
double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// Timed ops per host second of one round.
double HostRate(const RoundResult& r) {
  return static_cast<double>(r.attempted) / (static_cast<double>(r.host_elapsed_ns) / 1e9);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void PrintMetric(const Metric& m) {
  std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A run that failed early can leave a ratio without a base; JSON has no
    // NaN, and `correct` is already false then.
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Run(const Args& args) {
  auto workload = ParseWorkload(args.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Inputs in = Generate(SpecFor(*workload), args.seed);

  std::vector<RoundResult> rounds;
  int64_t start = HostNowNs();
  for (int i = 0; i < kMaxRounds; ++i) {
    RoundOptions options;
    options.traced = args.trace && i % 2 == 1;
    rounds.push_back(RunRound(in, options));
    if (rounds.back().failed != 0 || rounds.back().check_failures != 0) {
      break;  // the run is already incorrect; report it now
    }
    int traced = (i + 1) / 2;
    bool enough = i + 1 >= kMinRounds && (!args.trace || traced >= kMinTracedRounds);
    if (enough && static_cast<double>(HostNowNs() - start) / 1e9 >= args.seconds) {
      break;
    }
  }

  // Correctness over every round.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;
  std::vector<std::string> errors;
  const std::string digest = rounds.front().SimDigest();
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    check_failures += r.check_failures;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (r.SimDigest() != digest || r.response_digest != rounds.front().response_digest ||
        r.counter_digest != rounds.front().counter_digest) {
      ++check_failures;
      errors.push_back("rounds of one seed disagree on sim-time results (" + digest + " vs " +
                       r.SimDigest() + ")");
    }
  }

  // End-to-end figures. Sim time: round 0 (all rounds agree). Host time:
  // the best untraced round, per figure. On a shared host other tenants
  // only ever slow a round down (on a 4-vCPU Xeon VM a fixed CPU loop
  // swung by 1.5x between half-second samples, and the median round of a
  // seed moved by ~10% from one run to the next), so the fastest round is
  // the steadiest estimate of what the code costs.
  const RoundResult& r0 = rounds.front();
  std::vector<double> sim_lat(r0.sim_lat_us.begin(), r0.sim_lat_us.end());
  std::vector<double> host_rate;
  std::vector<double> host_p50;
  std::vector<double> host_p99;
  std::vector<double> setup;
  std::vector<double> recovery;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    recovery.push_back(static_cast<double>(r.recovery_sim_us) / 1e6);
    if (r.traced) {
      continue;
    }
    std::vector<double> lat;
    for (int64_t ns : r.host_lat_ns) {
      lat.push_back(static_cast<double>(ns) / 1e3);
    }
    host_p50.push_back(Percentile(lat, 0.50));
    host_p99.push_back(Percentile(lat, 0.99));
    host_rate.push_back(HostRate(r));
  }
  const double ops = static_cast<double>(r0.attempted);
  std::vector<Metric> e2e = {
      {"sim_ops_per_s", ops / (static_cast<double>(r0.sim_elapsed_us) / 1e6), "1/s"},
      {"sim_p50_us", Percentile(sim_lat, 0.50), "us"},
      {"sim_p99_us", Percentile(sim_lat, 0.99), "us"},
      {"host_ops_per_s", Max(host_rate), "1/s"},
      {"host_p50_us", Min(host_p50), "us"},
      {"host_p99_us", Min(host_p99), "us"},
      {"write_amp",
       static_cast<double>(r0.device_bytes_written) / static_cast<double>(r0.user_bytes_written),
       "ratio"},
      {"space_amp", r0.space_amp, "ratio"},
      {"recovery_sim_s", Median(recovery), "s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));

  // Per-layer figures: median over the traced rounds.
  std::vector<Metric> layers;
  if (args.trace) {
    std::vector<std::vector<Metric>> per_round;
    std::vector<double> traced_rate;
    for (const RoundResult& r : rounds) {
      if (!r.traced) {
        continue;
      }
      bool gap_ok = true;
      per_round.push_back(LayerMetrics(r, in.spec, &gap_ok));
      if (!gap_ok) {
        ++check_failures;
        errors.push_back("layer-sum check: sim self-time rows miss the end-to-end total");
      }
      traced_rate.push_back(HostRate(r));
    }
    for (size_t m = 0; !per_round.empty() && m < per_round.front().size(); ++m) {
      std::vector<double> values;
      for (const std::vector<Metric>& round : per_round) {
        values.push_back(round[m].value);
      }
      layers.push_back({per_round.front()[m].name, Median(values), per_round.front()[m].unit});
    }
    layers.push_back({"trace.overhead", Max(host_rate) / Max(traced_rate) - 1, "ratio"});
    for (const RoundResult& r : rounds) {
      if (r.traced && !args.trace_out.empty()) {
        if (!WriteChromeJson(r.spans, r.deltas, args.trace_out)) {
          std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        }
        break;
      }
    }
  }

  const bool correct = failed == 0 && check_failures == 0;
  std::printf("s4bench workload=%s seed=%llu rounds=%zu ops_per_round=%llu\n",
              WorkloadName(*workload), static_cast<unsigned long long>(args.seed),
              rounds.size(), static_cast<unsigned long long>(r0.attempted));
  std::printf("end to end (%zu samples per round; host figures from the best of %zu rounds):\n",
              sim_lat.size(), host_rate.size());
  for (const Metric& m : e2e) {
    PrintMetric(m);
  }
  std::printf("  host ops/s of each untraced round:");
  for (double rate : host_rate) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n");
  PrintMetric({"error_rate", error_rate, "ratio"});
  if (args.trace) {
    std::printf("per layer (median of %zu traced rounds):\n", rounds.size() - host_rate.size());
    for (const Metric& m : layers) {
      PrintMetric(m);
    }
  }
  for (const std::string& e : errors) {
    std::printf("FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", JsonLine(correct, attempted, failed, args.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace s4bench

int main(int argc, char** argv) {
  s4bench::Args args;
  if (!s4bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: s4bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] | --self-test\n");
    return 2;
  }
  if (args.self_test) {
    return s4bench::SelfTest();
  }
  return s4bench::Run(args);
}
