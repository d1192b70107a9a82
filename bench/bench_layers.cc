// Host-time cost of the hot primitives every request runs through, one
// Google Benchmark per primitive, timed in real time on this machine (unlike
// the figure benches, which report modelled sim time).
//
// CRC32C: every RPC frame, journal sector, inode checkpoint, chunk, superblock,
// commit marker and audit-chain link is checksummed, so its bytes/s bounds the
// host throughput of the whole drive. Each kernel is timed at request-sized
// and segment-sized spans:
//
//   ./bench/bench_layers                      # all kernels, all sizes
//   ./bench/bench_layers --benchmark_filter=Crc32c/hardware
//
// The hardware kernel is registered only on CPUs with SSE4.2.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace s4 {
namespace bench {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, ByteSpan);

void RunCrc32c(::benchmark::State& state, ExtendFn extend) {
  Rng rng(1);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    uint32_t crc = Crc32cFinish(extend(Crc32cInit(), data));
    ::benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void RegisterCrc32c(const char* name, ExtendFn extend) {
  ::benchmark::RegisterBenchmark(name,
                                 [extend](::benchmark::State& state) {
                                   RunCrc32c(state, extend);
                                 })
      ->Arg(64)
      ->Arg(512)
      ->Arg(4 << 10)
      ->Arg(64 << 10)
      ->UseRealTime();
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::RegisterCrc32c("Crc32c/portable", s4::Crc32cExtendPortable);
  if (s4::Crc32cHardwareSupported()) {
    s4::bench::RegisterCrc32c("Crc32c/hardware", s4::Crc32cExtendHardware);
  } else {
    std::printf("CPU lacks SSE4.2: Crc32c/hardware not run\n");
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
