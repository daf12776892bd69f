// Micro-benchmarks (google-benchmark): real wall-clock cost of the
// simulation substrate's hot paths — these bound how fast the bench suite
// and any larger experiments can run.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "nvmalloc/runtime.hpp"
#include "sim/resource.hpp"
#include "store/erasure.hpp"
#include "store/store.hpp"

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

// Backfill behind a far-future reservation: every request lands before the
// last interval, so each one extends its predecessor in place rather than
// the tail.
void BM_ResourceScheduleBackfill(benchmark::State& state) {
  sim::Resource r("dev");
  r.Schedule(int64_t{1} << 50, 1000);
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Schedule(t, 1000));
    t += 500;
  }
}
BENCHMARK(BM_ResourceScheduleBackfill);

// Deep backfill: range(0) standing intervals with wide gaps between them,
// and every request lands at a random point far behind the tail — mostly
// opening a new interval mid-timeline.  The timeline is rebuilt (untimed)
// each time it has doubled.
void BM_ResourceScheduleDeepBackfill(benchmark::State& state) {
  const int64_t n = state.range(0);
  constexpr int64_t kPitch = int64_t{1} << 20;
  sim::Resource r("dev");
  const auto fill = [&] {
    r.Reset();
    for (int64_t i = 0; i < n; ++i) r.Schedule(i * kPitch, 1000);
  };
  fill();
  Xoshiro256 rng(1);
  int64_t since_fill = 0;
  for (auto _ : state) {
    if (++since_fill == n) {
      state.PauseTiming();
      fill();
      since_fill = 0;
      state.ResumeTiming();
    }
    const auto at = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>((n - 1) * kPitch)));
    benchmark::DoNotOptimize(r.Schedule(at, 100));
  }
}
BENCHMARK(BM_ResourceScheduleDeepBackfill)->Arg(64)->Arg(4096);

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

// Host cost of one checksum through each CRC32C kernel this CPU supports
// (kernels it lacks are not registered), plus the dispatched entry point,
// which labels itself with the kernel it selected so a CI log shows which
// one the runner used.
void BM_Crc32c(benchmark::State& state, Crc32cKernel kernel,
               bool dispatched) {
  const auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatched ? Crc32c(buf.data(), buf.size())
                   : Crc32cWith(kernel, buf.data(), buf.size()));
  }
  state.SetLabel(Crc32cKernelName(kernel));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

// Copy-and-verify of one 64 KiB chunk out of a cold 64 MiB pool into
// another, as a benefactor read does: the fused Crc32cCopy against memcpy
// followed by Crc32c of the copy, and (for reference) hashing the cold
// source alone.  Each iteration moves to the next chunk of both pools, so
// the bytes come from DRAM, not cache.
enum class CopyMode { kFused, kMemcpyThenCrc32c, kHashOnly };

void BM_Crc32cCopy(benchmark::State& state, CopyMode mode) {
  constexpr size_t kPool = 64_MiB;
  constexpr size_t kChunk = 64_KiB;
  const auto src = RandomBytes(kPool);
  std::vector<uint8_t> dst(kPool, 1);
  size_t off = 0;
  for (auto _ : state) {
    switch (mode) {
      case CopyMode::kFused:
        benchmark::DoNotOptimize(
            Crc32cCopy(dst.data() + off, src.data() + off, kChunk));
        break;
      case CopyMode::kMemcpyThenCrc32c:
        std::memcpy(dst.data() + off, src.data() + off, kChunk);
        benchmark::DoNotOptimize(Crc32c(dst.data() + off, kChunk));
        break;
      case CopyMode::kHashOnly:
        benchmark::DoNotOptimize(Crc32c(src.data() + off, kChunk));
        break;
    }
    benchmark::ClobberMemory();
    off = (off + kChunk) % kPool;
  }
  state.SetLabel(Crc32cKernelName(Crc32cSelectedKernel()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kChunk));
}
BENCHMARK_CAPTURE(BM_Crc32cCopy, fused, CopyMode::kFused);
BENCHMARK_CAPTURE(BM_Crc32cCopy, memcpy_then_crc32c,
                  CopyMode::kMemcpyThenCrc32c);
BENCHMARK_CAPTURE(BM_Crc32cCopy, hash_only, CopyMode::kHashOnly);

const bool kCrc32cRegistered = [] {
  for (Crc32cKernel k :
       {Crc32cKernel::kPortable, Crc32cKernel::kSse42,
        Crc32cKernel::kVpclmul256, Crc32cKernel::kVpclmul512}) {
    if (!Crc32cKernelSupported(k)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_Crc32c/") + Crc32cKernelName(k)).c_str(),
        BM_Crc32c, k, /*dispatched=*/false)
        ->Arg(4_KiB)
        ->Arg(64_KiB);
  }
  benchmark::RegisterBenchmark("BM_Crc32c/dispatched", BM_Crc32c,
                               Crc32cSelectedKernel(), /*dispatched=*/true)
      ->Arg(4_KiB)
      ->Arg(64_KiB);
  return true;
}();

// Host cost of the RS(4,2) encode of one 64 KiB chunk as the stripe write
// path runs it (data fragments are views of the chunk; only parity is
// computed), scalar GF(2^8) kernel against the dispatched one.
void BM_RsEncode(benchmark::State& state, store::gf256::MulAccFn mul_acc) {
  const store::ErasureCodec codec(4, 2, mul_acc);
  const auto chunk = RandomBytes(64_KiB);
  for (auto _ : state) {
    auto parity = codec.EncodeParity(codec.DataFragments(chunk));
    benchmark::DoNotOptimize(parity.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk.size()));
}
BENCHMARK_CAPTURE(BM_RsEncode, scalar, &store::gf256::MulAccScalar);
BENCHMARK_CAPTURE(BM_RsEncode, dispatched, &store::gf256::MulAcc);

// Host cost of one batched read of range(0) stored 64 KiB chunks from one
// benefactor: the manager lookup (location-cached after the first pass),
// one ReadChunkRun streaming every chunk, and the copies into the caller's
// buffers.
void BM_ReadChunkRun(benchmark::State& state) {
  const auto chunks = static_cast<uint32_t>(state.range(0));
  net::ClusterConfig cc;
  cc.num_nodes = 2;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes = {1};
  sc.contribution_bytes = 256_MiB;
  sc.manager_node = 1;
  sc.store.chunk_bytes = 64_KiB;
  store::AggregateStore store(cluster, sc);
  store::StoreClient& client = store.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = client.Create(clock, "/run");
  NVM_CHECK(id.ok());
  NVM_CHECK(client.Fallocate(clock, *id, chunks * 64_KiB).ok());
  const auto image = RandomBytes(64_KiB);
  Bitmap all(64_KiB / client.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    NVM_CHECK(client.WriteChunkPages(clock, *id, i, all, image).ok());
  }
  std::vector<uint8_t> bufs(chunks * 64_KiB);
  std::vector<store::StoreClient::ChunkFetch> fetches(chunks);
  for (auto _ : state) {
    for (uint32_t i = 0; i < chunks; ++i) {
      fetches[i].index = i;
      fetches[i].out = {bufs.data() + i * 64_KiB, 64_KiB};
    }
    benchmark::DoNotOptimize(client.ReadChunks(clock, *id, fetches));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bufs.size()));
}
BENCHMARK(BM_ReadChunkRun)->Arg(1)->Arg(8);

// Host cost of one erasure-coded flush window of range(0) RS(4,2) stripes
// over six benefactors, one dirty page each over an image the caller holds
// whole: the stripe encode and fragment checksums, one prepare, and one
// fragment run per benefactor.
void BM_EcFlushWindow(benchmark::State& state) {
  const auto stripes = static_cast<uint32_t>(state.range(0));
  net::ClusterConfig cc;
  cc.num_nodes = 7;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.benefactor_nodes = {1, 2, 3, 4, 5, 6};
  sc.contribution_bytes = 256_MiB;
  sc.manager_node = 1;
  sc.store.chunk_bytes = 64_KiB;
  sc.store.redundancy = store::RedundancyMode::kErasure;
  sc.store.ec_k = 4;
  sc.store.ec_m = 2;
  store::AggregateStore store(cluster, sc);
  store::StoreClient& client = store.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = client.Create(clock, "/ecw");
  NVM_CHECK(id.ok());
  NVM_CHECK(client.Fallocate(clock, *id, stripes * 64_KiB).ok());
  const auto images = RandomBytes(stripes * 64_KiB);
  const size_t pages = 64_KiB / client.config().page_bytes;
  Bitmap all(pages);
  all.SetAll();
  std::vector<Bitmap> dirty(stripes, Bitmap(pages));
  std::vector<store::StoreClient::ChunkWrite> writes(stripes);
  for (uint32_t i = 0; i < stripes; ++i) {
    dirty[i].Set(i % pages);
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].valid = &all;
    writes[i].image = {images.data() + i * 64_KiB, 64_KiB};
    NVM_CHECK(client.WriteChunkPages(clock, *id, i, all, writes[i].image)
                  .ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.WriteChunks(clock, *id, writes));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(images.size()));
}
BENCHMARK(BM_EcFlushWindow)->Arg(1)->Arg(16);

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
