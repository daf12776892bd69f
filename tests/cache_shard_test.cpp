// Tests for the sharded chunk cache, batched miss fetches, and the
// adaptive read-ahead ramp: shard distribution sanity, metadata
// round-trip coalescing on cold sequential scans, window ramp/reset,
// a multi-threaded stress run whose final file contents must match the
// single-threaded expectation byte for byte, a read-ahead held in flight
// across a write of its chunk, and a scripted run through every kind of
// fill pinned to its counters and virtual time.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "fuselite/mount.hpp"
#include "sim/clock.hpp"

namespace nvm::fuselite {
namespace {

constexpr uint64_t kChunk = 64_KiB;

class CacheShardTest : public ::testing::Test {
 protected:
  CacheShardTest() { Rebuild({}); }

  void Rebuild(FuseliteConfig config) {
    net::ClusterConfig cc;
    cc.num_nodes = 4;
    cluster_ = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.benefactor_nodes = {1, 2};
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store_ = std::make_unique<store::AggregateStore>(*cluster_, sc);
    mount_ = std::make_unique<MountPoint>(*store_, /*node=*/0, config);
    sim::CurrentClock().Reset();
  }

  std::vector<uint8_t> Pattern(uint64_t bytes, uint64_t seed) {
    std::vector<uint8_t> v(bytes);
    Xoshiro256 rng(seed);
    for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
    return v;
  }

  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<store::AggregateStore> store_;
  std::unique_ptr<MountPoint> mount_;
};

TEST_F(CacheShardTest, ContiguousChunksSpreadAcrossShards) {
  FuseliteConfig config;
  config.readahead = false;  // keep residency exactly what we touch
  Rebuild(config);
  ASSERT_EQ(mount_->cache().num_shards(), 16u);

  constexpr uint64_t kChunks = 64;
  auto f = mount_->Create("/spread", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kChunks * kChunk, 11);
  ASSERT_TRUE(f->Write(0, data).ok());

  const auto occ = mount_->cache().ShardOccupancy();
  ASSERT_EQ(occ.size(), mount_->cache().num_shards());
  size_t total = 0;
  size_t non_empty = 0;
  size_t max_shard = 0;
  for (size_t n : occ) {
    total += n;
    if (n > 0) ++non_empty;
    max_shard = std::max(max_shard, n);
  }
  EXPECT_EQ(total, mount_->cache().resident_chunks());
  EXPECT_EQ(total, kChunks);
  // A contiguous chunk run must not pile up in a few shards: the hash
  // should leave no shard with more than half the slots and use a good
  // fraction of the shards.
  EXPECT_LE(max_shard, total / 2);
  EXPECT_GE(non_empty, 8u);
}

TEST_F(CacheShardTest, ColdSequentialScanCoalescesMetadataLookups) {
  constexpr uint64_t kChunks = 32;
  auto f = mount_->Create("/cold", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kChunks * kChunk, 23);
  ASSERT_TRUE(f->Write(0, data).ok());
  ASSERT_TRUE(f->Sync().ok());

  // Read through a different node's mount: cold cache AND a cold
  // client-side location cache, so every chunk needs manager metadata.
  MountPoint other(*store_, /*node=*/3);
  auto g = other.Open("/cold");
  ASSERT_TRUE(g.ok());
  const uint64_t rtts_before = other.client().meta_round_trips();
  std::vector<uint8_t> got(data.size());
  ASSERT_TRUE(g->Read(0, got).ok());
  EXPECT_EQ(got, data);
  const uint64_t rtts = other.client().meta_round_trips() - rtts_before;

  // One lookup per chunk would cost kChunks round trips; batching must
  // coalesce the scan at least 4x (the single foreground run needs just
  // one GetReadLocations call).
  EXPECT_GE(rtts, 1u);
  EXPECT_LE(rtts * 4, kChunks);

  const auto& t = other.cache().traffic();
  EXPECT_GT(t.batch_fetches.load(), 0u);
  EXPECT_GE(t.batched_chunks.load(), kChunks / 2);
  EXPECT_EQ(t.fetched_chunks.load() + t.prefetched_chunks.load(), kChunks);
}

TEST_F(CacheShardTest, ReadaheadWindowRampsThenResetsOnNewStream) {
  constexpr uint64_t kChunks = 24;
  auto f = mount_->Create("/ramp", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const auto data = Pattern(kChunks * kChunk, 31);
  ASSERT_TRUE(f->Write(0, data).ok());

  ASSERT_TRUE(f->Sync().ok());
  // Drop discards both the cached chunks and the write-time stream
  // state, so the scan below starts cold.
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());

  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(f->Read(0, buf).ok());
  EXPECT_LE(mount_->cache().readahead_window(f->id()), 2u);
  for (uint64_t i = 1; i < kChunks; ++i) {
    ASSERT_TRUE(f->Read(i * kChunk, buf).ok());
  }
  // A long sequential scan ramps the window up to the configured cap.
  EXPECT_EQ(mount_->cache().readahead_window(f->id()),
            FuseliteConfig{}.readahead_max_chunks);
  EXPECT_GT(mount_->cache().traffic().prefetched_chunks.load(), 0u);

  // Rewinding starts a fresh stream: the ramp begins again at 1.
  ASSERT_TRUE(f->Read(0, buf).ok());
  EXPECT_EQ(mount_->cache().readahead_window(f->id()), 1u);
}

TEST_F(CacheShardTest, ConcurrentDisjointWritersMatchSingleThreadedResult) {
  // A cache far smaller than the working set, hammered by ranks that own
  // disjoint chunk ranges of one file.  The sharded cache must preserve
  // exactly the bytes a single-threaded run would produce.
  FuseliteConfig config;
  config.cache_bytes = 8 * kChunk;
  Rebuild(config);

  constexpr int kRanks = 4;
  constexpr uint64_t kChunksPerRank = 4;
  constexpr uint64_t kTotal = kRanks * kChunksPerRank * kChunk;
  auto f = mount_->Create("/mt", kTotal);
  ASSERT_TRUE(f.ok());

  std::atomic<int> failures{0};
  auto placement = cluster_->BlockPlacement(kRanks, 1);
  cluster_->RunProcesses(placement, [&](net::ProcessEnv& env) {
    auto mine = mount_->Open("/mt");
    if (!mine.ok()) {
      failures.fetch_add(1);
      return;
    }
    const uint64_t base =
        static_cast<uint64_t>(env.rank) * kChunksPerRank * kChunk;
    const auto slice = Pattern(kChunksPerRank * kChunk,
                               1000 + static_cast<uint64_t>(env.rank));
    // Several passes of page-grained writes followed by read-back keep
    // all ranks contending for cache slots at once.
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t off = 0; off < slice.size(); off += 4_KiB) {
        if (!mine->Write(base + off, {slice.data() + off, 4_KiB}).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      std::vector<uint8_t> got(slice.size());
      if (!mine->Read(base, got).ok() || got != slice) {
        failures.fetch_add(1);
        return;
      }
    }
    if (!mine->Sync().ok()) failures.fetch_add(1);
  });
  ASSERT_EQ(failures.load(), 0);

  // The single-threaded expectation: each rank's slice, in rank order.
  std::vector<uint8_t> expected(kTotal);
  for (int r = 0; r < kRanks; ++r) {
    const auto slice =
        Pattern(kChunksPerRank * kChunk, 1000 + static_cast<uint64_t>(r));
    std::copy(slice.begin(), slice.end(),
              expected.begin() +
                  static_cast<int64_t>(r * kChunksPerRank * kChunk));
  }
  std::vector<uint8_t> got(kTotal);
  ASSERT_TRUE(f->Read(0, got).ok());
  EXPECT_EQ(got, expected);

  // And the store itself (not just the cache) must agree.
  ASSERT_TRUE(mount_->cache().Drop(sim::CurrentClock(), f->id()).ok());
  MountPoint other(*store_, /*node=*/3);
  auto g = other.Open("/mt");
  ASSERT_TRUE(g.ok());
  std::vector<uint8_t> remote(kTotal);
  ASSERT_TRUE(g->Read(0, remote).ok());
  EXPECT_EQ(remote, expected);
}


TEST_F(CacheShardTest, ReadaheadHeldInFlightNeverLandsOverANewerWrite) {
  // Thread A's read-ahead of chunk 2 is held between its store read and
  // its landing.  Meanwhile thread B writes every page of chunk 2,
  // flushes it and drops the file.  The held fill carries the bytes from
  // before B's write, so it must never be what B reads back: B's write
  // has to wait for the in-flight fill to land and then overwrite it.
  constexpr uint64_t kChunks = 3;
  constexpr uint32_t kHeld = 2;
  auto f = mount_->Create("/held", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const store::FileId id = f->id();
  ChunkCache& cache = mount_->cache();
  const auto old_bytes = Pattern(kChunks * kChunk, 41);
  const auto new_bytes = Pattern(kChunk, 42);
  {
    sim::VirtualClock clock;
    ASSERT_TRUE(cache.Write(clock, id, 0, old_bytes).ok());
    ASSERT_TRUE(cache.Drop(clock, id).ok());  // flushes, then a cold cache
  }

  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool b_done = false;
  bool a_done = false;
  auto hold = [&](store::FileId file, uint32_t first, bool prefetch) {
    if (file != id || first != kHeld || !prefetch) return;
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    // Hold until B is done.  When B correctly waits for this fill it never
    // gets there, so the hold is bounded.
    cv.wait_for(lock, std::chrono::milliseconds(10), [&] { return b_done; });
  };
  cache.SetFillHookForTest(hold);

  Status a_status = OkStatus();
  std::thread a([&] {
    sim::VirtualClock clock;
    std::vector<uint8_t> buf(kChunk);
    // Two sequential chunk reads start a stream; the second one issues
    // the read-ahead of chunk 2.
    a_status = cache.Read(clock, id, 0, buf);
    if (a_status.ok()) a_status = cache.Read(clock, id, kChunk, buf);
    std::lock_guard<std::mutex> lock(mu);
    held = true;  // no hold if the read-ahead never came
    a_done = true;
    cv.notify_all();
  });
  Status b_status = OkStatus();
  std::vector<uint8_t> got(kChunk);
  std::thread b([&] {
    sim::VirtualClock clock;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return held; });
    }
    b_status = cache.Write(clock, id, kHeld * kChunk, new_bytes);
    if (b_status.ok()) b_status = cache.Flush(clock, id);
    if (b_status.ok()) b_status = cache.Drop(clock, id);
    {
      std::unique_lock<std::mutex> lock(mu);
      b_done = true;
      cv.notify_all();
      cv.wait(lock, [&] { return a_done; });
    }
    if (b_status.ok()) b_status = cache.Read(clock, id, kHeld * kChunk, got);
  });
  a.join();
  b.join();
  cache.SetFillHookForTest(nullptr);
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_EQ(cache.traffic().prefetched_chunks.load(), 1u);
  EXPECT_TRUE(got == new_bytes) << "read back the bytes from before the write";
}

TEST_F(CacheShardTest, ScriptedFillSequencePinsCountersAndVirtualTime) {
  // One single-threaded script through every kind of cache fill, with a
  // cache small enough to evict.  The counters and the final virtual
  // time are the values the cache gave when single-chunk misses had a
  // fetch path of their own, so any change to a fill's modelled charge
  // shows here.
  FuseliteConfig config;
  config.cache_bytes = 8 * kChunk;
  Rebuild(config);
  constexpr uint64_t kChunks = 72;
  auto f = mount_->Create("/pin", kChunks * kChunk);
  ASSERT_TRUE(f.ok());
  const store::FileId id = f->id();
  ChunkCache& cache = mount_->cache();
  const auto data = Pattern(kChunks * kChunk, 51);
  sim::VirtualClock clock;
  ASSERT_TRUE(cache.Write(clock, id, 0, data).ok());
  ASSERT_TRUE(cache.Drop(clock, id).ok());
  cache.ResetTraffic();
  const int64_t t0 = clock.now();

  std::vector<uint8_t> buf(4 * kChunk);
  auto read = [&](uint64_t offset, uint64_t n) {
    ASSERT_TRUE(cache.Read(clock, id, offset, {buf.data(), n}).ok());
    ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + static_cast<int64_t>(n),
                           data.begin() + static_cast<int64_t>(offset)));
  };
  read(10 * kChunk + 4_KiB, 4_KiB);  // cold one-chunk read
  read(20 * kChunk, 4 * kChunk);     // cold multi-chunk read
  for (uint64_t c = 40; c < 48; ++c) read(c * kChunk, kChunk);  // scan
  const std::vector<uint8_t> small(64, 0xA5);
  ASSERT_TRUE(cache.Write(clock, id, 60 * kChunk + 100, small).ok());
  const std::vector<uint8_t> page(4_KiB, 0x5A);
  ASSERT_TRUE(cache.Write(clock, id, 62 * kChunk, page).ok());
  read(62 * kChunk + 3 * 4_KiB, 4_KiB);  // the merge fill

  FuseliteConfig whole = config;
  whole.dirty_page_writeback = false;
  ChunkCache ablation(mount_->client(), whole);
  ASSERT_TRUE(ablation.Write(clock, id, 64 * kChunk + 200, small).ok());

  const auto& t = cache.traffic();
  EXPECT_EQ(t.fetched_chunks.load(), 9u);
  EXPECT_EQ(t.prefetched_chunks.load(), 13u);
  EXPECT_EQ(t.hit_chunks.load(), 7u);
  EXPECT_EQ(t.batch_fetches.load(), 9u);
  EXPECT_EQ(t.batched_chunks.load(), 17u);
  EXPECT_EQ(t.evictions.load(), 14u);
  EXPECT_EQ(ablation.traffic().fetched_chunks.load(), 1u);
  EXPECT_EQ(ablation.traffic().hit_chunks.load(), 0u);
  EXPECT_EQ(clock.now() - t0, 12'131'269);
}

TEST_F(CacheShardTest, EvictionWindowIgnoresInsertOrder) {
  // A dirty eviction victim drains with other dirty chunks of its file in
  // one write-back window of at most 32 chunks.  Which chunks join it, and
  // so the modelled time of the fill that forced it, must depend only on
  // what is dirty, not on the order the shard's slots were inserted in.
  constexpr uint32_t kResident = 40;
  FuseliteConfig config;
  config.cache_bytes = kResident * kChunk;
  config.cache_shards = 1;
  config.readahead = false;
  const auto data = Pattern((kResident + 1) * kChunk, 61);
  struct Outcome {
    std::vector<uint32_t> flushed;  // chunk indices the eviction wrote back
    int64_t elapsed_ns = 0;
  };
  auto run = [&](bool ascending) {
    Rebuild(config);
    auto f = mount_->Create("/order", (kResident + 1) * kChunk);
    EXPECT_TRUE(f.ok());
    ChunkCache& cache = mount_->cache();
    sim::VirtualClock clock;
    auto write = [&](uint32_t i) {
      EXPECT_TRUE(cache
                      .Write(clock, f->id(), i * kChunk,
                             {data.data() + i * kChunk, kChunk})
                      .ok());
    };
    write(0);  // the LRU victim in both orders
    for (uint32_t n = 1; n < kResident; ++n) {
      write(ascending ? n : kResident - n);
    }
    const int64_t t0 = clock.now();
    write(kResident);  // one over capacity: evicts chunk 0
    Outcome out;
    out.elapsed_ns = clock.now() - t0;
    std::vector<uint8_t> got(kChunk);
    for (uint32_t i = 0; i < kResident; ++i) {
      EXPECT_TRUE(mount_->client().ReadChunk(clock, f->id(), i, got).ok());
      if (std::equal(got.begin(), got.end(), data.begin() + i * kChunk)) {
        out.flushed.push_back(i);
      }
    }
    return out;
  };
  const Outcome up = run(/*ascending=*/true);
  const Outcome down = run(/*ascending=*/false);
  std::vector<uint32_t> lowest(32);
  std::iota(lowest.begin(), lowest.end(), 0u);
  EXPECT_EQ(up.flushed, lowest);
  EXPECT_EQ(down.flushed, lowest);
  EXPECT_EQ(up.elapsed_ns, down.elapsed_ns);
}

}  // namespace
}  // namespace nvm::fuselite
