// Turns rounds into named metrics: the end-to-end figures (from untraced
// rounds) and the per-layer breakdown (from traced rounds' spans).
#ifndef S4BENCH_REPORT_H_
#define S4BENCH_REPORT_H_

#include <string>
#include <vector>

#include "s4bench/runner.h"

namespace s4bench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Nearest-rank percentile (p in (0, 1]) of raw samples: always one of the
// samples themselves, never an interpolated value or a bucket edge.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// Per-layer metrics of one traced round. `layer_gap_ok` reports whether the
// sim-time self-time rows add up to the timed phase's sim total.
std::vector<Metric> LayerMetrics(const RoundResult& r, const WorkloadSpec& spec,
                                 bool* layer_gap_ok);

}  // namespace s4bench

#endif  // S4BENCH_REPORT_H_
