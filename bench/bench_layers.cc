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
//
// Caches: every block, journal-sector and object lookup goes through
// LruCache, and every history-walk miss through BlockCache's clustered
// sector read. LruCache is timed on a hit and on a miss that evicts from a
// full 2MB cache; ReadSectorClustered on a miss against an in-memory
// BlockDevice (the device's timing model runs, but sim time is not reported).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/cache/lru.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
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

constexpr uint64_t kCacheBytes = 2ull << 20;
constexpr uint64_t kCachedSectors = kCacheBytes / kSectorSize;

void BM_LruHit(::benchmark::State& state) {
  LruCache<DiskAddr, Bytes> cache(kCacheBytes);
  for (DiskAddr a = 0; a < kCachedSectors; ++a) {
    cache.Put(a, Bytes(kSectorSize, 1), kSectorSize);
  }
  Rng rng(2);
  std::vector<DiskAddr> keys(4096);
  for (DiskAddr& k : keys) {
    k = rng.Below(kCachedSectors);
  }
  size_t i = 0;
  for (auto _ : state) {
    Bytes* hit = cache.Get(keys[i++ % keys.size()]);
    ::benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_LruHit)->Name("LruCache/hit")->UseRealTime();

void BM_LruMissEvict(::benchmark::State& state) {
  LruCache<DiskAddr, Bytes> cache(kCacheBytes);
  // Reuse each evicted buffer for the next insert, so the figure is the
  // cache's own cost rather than malloc's.
  Bytes spare(kSectorSize, 1);
  cache.set_evict_fn([&spare](const DiskAddr&, Bytes&& v) { spare = std::move(v); });
  DiskAddr next = 0;
  for (; next < kCachedSectors; ++next) {
    cache.Put(next, Bytes(kSectorSize, 1), kSectorSize);
  }
  for (auto _ : state) {
    cache.Put(next++, std::move(spare), kSectorSize);
    ::benchmark::DoNotOptimize(spare.data());
  }
}
BENCHMARK(BM_LruMissEvict)->Name("LruCache/miss_evict")->UseRealTime();

void BM_ReadSectorClusteredMiss(::benchmark::State& state) {
  SimClock clock;
  BlockDevice device((64ull << 20) / kSectorSize, &clock);
  Rng rng(3);
  for (uint64_t lba = 0; lba < device.sector_count(); lba += 128) {
    if (!device.Write(lba, rng.RandomBytes(128 * kSectorSize)).ok()) {
      state.SkipWithError("device write failed");
      return;
    }
  }
  BlockCache cache(&device, kCacheBytes);
  // Each read clusters the 8 sectors ending at its address; cycling over
  // the whole device (32x the cache) keeps every read a miss.
  const uint64_t runs = device.sector_count() / 8;
  uint64_t i = 0;
  Bytes out;
  for (auto _ : state) {
    DiskAddr addr = (i++ % runs) * 8 + 7;
    if (!cache.ReadSectorClustered(addr, &out).ok()) {
      state.SkipWithError("read failed");
      break;
    }
    ::benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ReadSectorClusteredMiss)->Name("BlockCache/ReadSectorClustered_miss")->UseRealTime();

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
