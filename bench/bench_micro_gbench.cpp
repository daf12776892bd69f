// Micro-benchmarks (google-benchmark): real wall-clock cost of the
// simulation substrate's hot paths — these bound how fast the bench suite
// and any larger experiments can run.
#include <benchmark/benchmark.h>

#include "common/bitmap.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "nvmalloc/runtime.hpp"
#include "sim/resource.hpp"
#include "store/erasure.hpp"

namespace {

using namespace nvm;

void BM_ResourceSchedule(benchmark::State& state) {
  sim::Resource r("dev");
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Schedule(t, 1000));
    t += 500;
  }
}
BENCHMARK(BM_ResourceSchedule);

void BM_XoshiroNext(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_XoshiroNext);

void BM_BitmapForEachSet(benchmark::State& state) {
  Bitmap bm(4096);
  for (size_t i = 0; i < 4096; i += 7) bm.Set(i);
  for (auto _ : state) {
    size_t sum = 0;
    bm.ForEachSet([&](size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapForEachSet);

std::vector<uint8_t> RandomBytes(size_t n) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

// Host cost of one chunk checksum: the portable slice-by-8 kernel against
// whatever Crc32c dispatches to on this CPU.
void BM_Crc32c(benchmark::State& state,
               uint32_t (*crc)(const void*, size_t, uint32_t)) {
  const auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(buf.data(), buf.size(), 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, portable, &Crc32cPortable)
    ->Arg(4_KiB)
    ->Arg(64_KiB);
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &Crc32c)->Arg(4_KiB)->Arg(64_KiB);

// Host cost of the RS(4,2) encode of one 64 KiB chunk, scalar GF(2^8)
// kernel against the dispatched one.
void BM_RsEncode(benchmark::State& state, store::gf256::MulAccFn mul_acc) {
  const store::ErasureCodec codec(4, 2, mul_acc);
  const auto chunk = RandomBytes(64_KiB);
  for (auto _ : state) {
    auto frags = codec.Encode(chunk);
    benchmark::DoNotOptimize(frags.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk.size()));
}
BENCHMARK_CAPTURE(BM_RsEncode, scalar, &store::gf256::MulAccScalar);
BENCHMARK_CAPTURE(BM_RsEncode, dispatched, &store::gf256::MulAcc);

struct CacheFixtureState {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;
  std::unique_ptr<NvmallocRuntime> runtime;
  NvmRegion* region = nullptr;

  CacheFixtureState() {
    net::ClusterConfig cc;
    cc.num_nodes = 2;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.benefactor_nodes = {1};
    sc.contribution_bytes = 256_MiB;
    sc.manager_node = 1;
    sc.store.chunk_bytes = 64_KiB;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    runtime = std::make_unique<NvmallocRuntime>(*store, 0);
    auto r = runtime->SsdMalloc(8_MiB);
    NVM_CHECK(r.ok());
    region = *r;
  }
};

void BM_CacheHitRead(benchmark::State& state) {
  CacheFixtureState fx;
  std::vector<uint8_t> buf(4_KiB);
  NVM_CHECK(fx.runtime->mount().cache().Read(sim::CurrentClock(),
                                             fx.region->file_id(), 0, buf)
                .ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.runtime->mount().cache().Read(
        sim::CurrentClock(), fx.region->file_id(), 0, buf));
  }
}
BENCHMARK(BM_CacheHitRead);

void BM_RegionResidentPin(benchmark::State& state) {
  CacheFixtureState fx;
  (void)fx.region->Pin(0, 4_KiB, false);
  for (auto _ : state) {
    auto p = fx.region->Pin(0, 4_KiB, false);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_RegionResidentPin);

void BM_RegionColdFaultCycle(benchmark::State& state) {
  CacheFixtureState fx;
  uint64_t off = 0;
  std::vector<uint8_t> buf(4_KiB, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.region->Write(off, buf));
    off = (off + 4_KiB) % 8_MiB;
  }
}
BENCHMARK(BM_RegionColdFaultCycle);

}  // namespace

BENCHMARK_MAIN();
