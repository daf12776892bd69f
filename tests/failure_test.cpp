// Failure-injection and reconfiguration tests: benefactor crashes during
// live workloads (with and without replication), heartbeat-driven
// liveness, allocation rerouting around dead benefactors, and the
// decommission/drain path for hardware upgrades.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "fuselite/cache.hpp"
#include "nvmalloc/runtime.hpp"
#include "sim/clock.hpp"
#include "workloads/matmul.hpp"
#include "workloads/testbed.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond

struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(int replication, int benefactors = 4, bool maintenance = false,
               std::function<void(store::StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = static_cast<size_t>(benefactors + 1);
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = replication;
    if (maintenance) {
      sc.store.maintenance = true;
      sc.store.heartbeat_period_ms = 1;
      sc.store.heartbeat_misses = 3;
      sc.store.scrub_period_ms = 50;
    }
    if (tweak) tweak(sc.store);
    for (int b = 0; b < benefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }
};

std::vector<uint8_t> Pattern(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

TEST(FailureTest, RegionSurvivesBenefactorDeathWithReplication) {
  Rig rig(/*replication=*/2);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 1);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  // Drop all cached state (both the mapped-in pages and the chunk
  // cache), kill one benefactor, read everything back from the store.
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  rig.store->benefactor(1).Kill();
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

TEST(FailureTest, UnreplicatedReadsFailCleanlyAfterDeath) {
  Rig rig(/*replication=*/1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Write(0, Pattern(8 * kChunk, 2)).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  rig.store->benefactor(0).Kill();

  // Some chunks are on the dead benefactor: reads return UNAVAILABLE, not
  // garbage and not a crash.
  int failures = 0;
  std::vector<uint8_t> buf(kChunk);
  for (uint32_t c = 0; c < 8; ++c) {
    Status s = (*r)->Read(static_cast<uint64_t>(c) * kChunk, buf);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_EQ(failures, 2);  // 8 chunks striped over 4 benefactors
}

TEST(FailureTest, AllocationRoutesAroundDeadBenefactors) {
  Rig rig(1);
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(2).Kill();
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 3);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  EXPECT_EQ(rig.store->benefactor(0).num_chunks(), 0u);
  EXPECT_EQ(rig.store->benefactor(2).num_chunks(), 0u);
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(FailureTest, HeartbeatTracksChurn) {
  Rig rig(1);
  auto& m = rig.store->manager();
  auto& clock = sim::CurrentClock();
  EXPECT_EQ(m.CheckLiveness(clock), 4u);
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(3).Kill();
  EXPECT_EQ(m.CheckLiveness(clock), 2u);
  EXPECT_EQ(m.AliveBenefactors(), (std::vector<int>{1, 2}));
  rig.store->benefactor(0).Revive();
  EXPECT_EQ(m.CheckLiveness(clock), 3u);
  // Heartbeats cost modelled time (manager service + pings).
  const int64_t before = clock.now();
  m.CheckLiveness(clock);
  EXPECT_GT(clock.now(), before);
}

TEST(FailureTest, MidRunDeathFailsWorkloadCleanly) {
  // Kill a benefactor while a region is half-written; continued use must
  // produce clean UNAVAILABLE errors (no corruption, no crash).
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(16 * kChunk, 4);
  ASSERT_TRUE((*r)->Write(0, {data.data(), 8 * kChunk}).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  rig.store->benefactor(2).Kill();

  int errors = 0;
  for (uint32_t c = 8; c < 16; ++c) {
    Status s = (*r)->Write(static_cast<uint64_t>(c) * kChunk,
                           {data.data() + c * kChunk, kChunk});
    if (!s.ok()) ++errors;
    s = (*r)->Sync();
    if (!s.ok()) ++errors;
  }
  EXPECT_GT(errors, 0);
  // Chunks on surviving benefactors still read back intact.
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> buf(kChunk);
  int readable = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    if ((*r)->Read(static_cast<uint64_t>(c) * kChunk, buf).ok()) {
      EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                             data.begin() + c * kChunk));
      ++readable;
    }
  }
  EXPECT_GE(readable, 6);  // all chunks not striped onto the dead node
}

// ---- mid-run death on the batched read path ----

store::FileId WriteStoreFile(store::StoreClient& c, const std::string& name,
                             uint32_t chunks,
                             const std::vector<uint8_t>& data) {
  sim::VirtualClock clock(0);
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(c.WriteChunkPages(clock, *id, i, all,
                                  {data.data() + i * kChunk, kChunk})
                    .ok());
  }
  return *id;
}

// The primary benefactor of at least two of the file's chunks — its run
// dies with one chunk already streamed and more still owed.
int PrimaryOfAtLeastTwo(store::Manager& m, store::FileId id,
                        uint32_t chunks) {
  auto locs = m.GetReadLocations(sim::CurrentClock(), id, 0, chunks);
  EXPECT_TRUE(locs.ok());
  std::vector<int> primaries(8, 0);
  for (const store::ReadLocation& loc : *locs) {
    EXPECT_FALSE(loc.benefactors.empty());
    ++primaries[static_cast<size_t>(loc.benefactors.front())];
  }
  for (size_t b = 0; b < primaries.size(); ++b) {
    if (primaries[b] >= 2) return static_cast<int>(b);
  }
  return -1;
}

TEST(FailureTest, BatchedRunFailsOverToReplicasWhenBenefactorDiesMidRun) {
  // A benefactor dies after streaming the first chunk of its run.  The
  // whole run must fail cleanly and the client must re-read every chunk of
  // the run from the surviving replicas — including the chunk it already
  // streamed — so the caller sees a fully successful batched read.
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 21);
  const store::FileId id = WriteStoreFile(c, "/midrun2", kChunks, data);

  const int victim = PrimaryOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterReads(1);

  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs(kChunks,
                                         std::vector<uint8_t>(kChunk));
  std::vector<store::StoreClient::ChunkFetch> fetches(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(fetches[i].status.ok()) << "chunk " << i;
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + i * kChunk,
                             kChunk))
        << "chunk " << i;
  }
  // The failure was detected and reported to the manager.
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
}

TEST(FailureTest, MidRunDeathSurfacesNoPartialChunksWithoutReplicas) {
  // Same mid-run death, but with no replicas to fall back to: every chunk
  // of the failed run must report a clean UNAVAILABLE — including the one
  // the benefactor streamed before dying.  A partial run must never be
  // silently surfaced as data.
  Rig rig(/*replication=*/1);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 22);
  const store::FileId id = WriteStoreFile(c, "/midrun1", kChunks, data);

  auto locs = rig.store->manager().GetReadLocations(sim::CurrentClock(), id,
                                                    0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = PrimaryOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterReads(1);

  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs(kChunks,
                                         std::vector<uint8_t>(kChunk));
  std::vector<store::StoreClient::ChunkFetch> fetches(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());

  int failed = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    if ((*locs)[i].benefactors.front() == victim) {
      EXPECT_FALSE(fetches[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(fetches[i].status.code(), ErrorCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_TRUE(fetches[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + i * kChunk,
                               kChunk))
          << "chunk " << i;
    }
  }
  EXPECT_GE(failed, 2);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
}

// ---- mid-run death on the batched write path ----

// A benefactor that holds replicas of at least two of the file's chunks —
// its write run dies with one chunk already applied and more still owed.
int ReplicaHolderOfAtLeastTwo(store::Manager& m, store::FileId id,
                              uint32_t chunks) {
  auto locs = m.GetReadLocations(sim::CurrentClock(), id, 0, chunks);
  EXPECT_TRUE(locs.ok());
  std::vector<int> held(8, 0);
  for (const store::ReadLocation& loc : *locs) {
    for (int b : loc.benefactors) ++held[static_cast<size_t>(b)];
  }
  for (size_t b = 0; b < held.size(); ++b) {
    if (held[b] >= 2) return static_cast<int>(b);
  }
  return -1;
}

TEST(FailureTest, ReplicaDeathMidWriteRunDegradesWithoutDataLoss) {
  // A replica holder dies after applying the first chunk of its write run.
  // The whole run fails, the per-chunk fallback against the dead
  // benefactor fails too, and every chunk must still land on its
  // surviving replica: a degraded success, with the death reported and no
  // stale replica ever surfaced to readers.
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto before = Pattern(kChunks * kChunk, 23);
  const store::FileId id = WriteStoreFile(c, "/wmidrun2", kChunks, before);

  const int victim =
      ReplicaHolderOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterWrites(1);

  const auto after = Pattern(kChunks * kChunk, 24);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty(kChunks,
                            Bitmap(kChunk / c.config().page_bytes));
  std::vector<store::StoreClient::ChunkWrite> writes(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    dirty[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].image = {after.data() + i * kChunk, kChunk};
  }
  ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(writes[i].status.ok()) << "chunk " << i;
  }
  EXPECT_GT(c.degraded_writes(), 0u);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());

  // Readers see only the new bytes: the partially-written dead replica is
  // never consulted, the surviving replicas carry the whole update.
  std::vector<uint8_t> buf(kChunk);
  sim::VirtualClock rclock(0);
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(c.ReadChunk(rclock, id, i, buf).ok()) << "chunk " << i;
    EXPECT_EQ(0, std::memcmp(buf.data(), after.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

TEST(FailureTest, UnreplicatedWriteRunDeathFailsOnlyTheDeadChunks) {
  // No replicas: the chunks owed to the dead benefactor must fail with a
  // clean UNAVAILABLE (no partial run silently counted as flushed), while
  // chunks on surviving benefactors still succeed.
  Rig rig(/*replication=*/1);
  store::StoreClient& c = rig.store->ClientForNode(0);
  constexpr uint32_t kChunks = 8;
  const auto before = Pattern(kChunks * kChunk, 25);
  const store::FileId id = WriteStoreFile(c, "/wmidrun1", kChunks, before);

  auto locs = rig.store->manager().GetReadLocations(sim::CurrentClock(), id,
                                                    0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim =
      ReplicaHolderOfAtLeastTwo(rig.store->manager(), id, kChunks);
  ASSERT_GE(victim, 0);
  rig.store->benefactor(static_cast<size_t>(victim)).KillAfterWrites(1);

  const uint64_t flushed_before = c.bytes_flushed();
  const auto after = Pattern(kChunks * kChunk, 26);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty(kChunks,
                            Bitmap(kChunk / c.config().page_bytes));
  std::vector<store::StoreClient::ChunkWrite> writes(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    dirty[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].image = {after.data() + i * kChunk, kChunk};
  }
  ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());

  uint32_t failed = 0;
  uint64_t flushed_chunks = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    if ((*locs)[i].benefactors.front() == victim) {
      EXPECT_FALSE(writes[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(writes[i].status.code(), ErrorCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_TRUE(writes[i].status.ok()) << "chunk " << i;
      ++flushed_chunks;
    }
  }
  EXPECT_GE(failed, 2u);
  // Flushed-byte accounting covers exactly the successful chunks — a
  // discarded run contributes nothing.
  EXPECT_EQ(c.bytes_flushed() - flushed_before, flushed_chunks * kChunk);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
}

// ---- decommission / drain ----

TEST(DecommissionTest, DrainMigratesDataAndRetiresBenefactor) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(16 * kChunk, 5);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());

  const size_t victim_chunks = rig.store->benefactor(1).num_chunks();
  EXPECT_GT(victim_chunks, 0u);
  auto migrated =
      rig.store->manager().Decommission(sim::CurrentClock(), 1);
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(*migrated, victim_chunks);
  EXPECT_EQ(rig.store->benefactor(1).num_chunks(), 0u);
  EXPECT_FALSE(rig.store->benefactor(1).alive());

  // Every byte still readable after dropping caches.
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(16 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

TEST(DecommissionTest, SharedCheckpointChunksMigrateOnce) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 6);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  CheckpointSpec spec;
  spec.nvm.push_back(*r);
  ASSERT_TRUE(runtime.SsdCheckpoint(spec, "/ckpt/drain").ok());

  // The variable's chunks are shared with the checkpoint; draining the
  // benefactor must keep both views intact.
  auto migrated =
      rig.store->manager().Decommission(sim::CurrentClock(), 0);
  ASSERT_TRUE(migrated.ok());

  auto fresh = runtime.SsdMalloc(8 * kChunk);
  RestoreSpec restore;
  restore.nvm.push_back(*fresh);
  ASSERT_TRUE(runtime.SsdRestart("/ckpt/drain", restore).ok());
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*fresh)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(DecommissionTest, SequentialDrainsConsolidateOntoSurvivors) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(12 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(12 * kChunk, 7);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());

  auto& m = rig.store->manager();
  ASSERT_TRUE(m.Decommission(sim::CurrentClock(), 0).ok());
  ASSERT_TRUE(m.Decommission(sim::CurrentClock(), 1).ok());
  // Two survivors hold everything.
  EXPECT_EQ(rig.store->benefactor(0).num_chunks() +
                rig.store->benefactor(1).num_chunks(),
            0u);
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(12 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);

  // Draining a dead benefactor is refused.
  EXPECT_EQ(m.Decommission(sim::CurrentClock(), 0).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(DecommissionTest, ChargesDataMovementTime) {
  Rig rig(1);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Write(0, Pattern(16 * kChunk, 8)).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  auto& clock = sim::CurrentClock();
  const int64_t before = clock.now();
  ASSERT_TRUE(rig.store->manager().Decommission(clock, 0).ok());
  // 4 chunks moved: at least read+transfer+write per chunk.
  EXPECT_GT(clock.now() - before, 4 * 500'000);
}

TEST(DecommissionTest, WritePreparedBeforeDrainIsNeverLost) {
  // A write prepared before the drain names the draining holder.  Moving
  // the chunk while that write is in flight would copy the old bytes and
  // publish them; the drain must wait for the completion instead.
  Rig rig(/*replication=*/2);
  auto& m = rig.store->manager();
  store::StoreClient& c = rig.store->ClientForNode(0);
  auto& clock = sim::CurrentClock();
  auto id = c.Create(clock, "/inflight");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(c.Fallocate(clock, *id, kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  const auto old_bytes = Pattern(kChunk, 31);
  ASSERT_TRUE(c.WriteChunkPages(clock, *id, 0, all, old_bytes).ok());

  const uint32_t index = 0;
  auto prepared = m.PrepareWriteBatch(clock, *id, {&index, 1});
  ASSERT_TRUE(prepared.ok());
  const store::WriteLocation loc = prepared->front();
  ASSERT_EQ(loc.benefactors.size(), 2u);
  const int primary = loc.benefactors.front();
  (void)m.Decommission(clock, primary);  // may refuse while the write flies

  const auto new_bytes = Pattern(kChunk, 32);
  const uint32_t crc = Crc32c(new_bytes.data(), new_bytes.size());
  std::vector<char> landed(1, 0);
  for (int bid : loc.benefactors) {
    if (rig.store->benefactor(static_cast<size_t>(bid))
            .WritePages(clock, loc.key, all, new_bytes, &crc)
            .ok()) {
      landed[0] = 1;
    }
  }
  m.CompleteWrites(clock, *prepared, {&crc, 1}, landed);

  const auto read_fresh = [&](std::vector<uint8_t>& got) {
    store::StoreClient fresh(*rig.cluster, m, /*local_node=*/0);
    return fresh.ReadChunk(clock, *id, 0, got);
  };
  std::vector<uint8_t> got(kChunk);
  const Status read = read_fresh(got);
  if (read.ok()) {
    EXPECT_NE(got, old_bytes) << "the drain lost a completed write";
    EXPECT_EQ(got, new_bytes);
  }

  // Once the write has completed, a retried drain finishes and the chunk
  // keeps its new bytes.
  ASSERT_TRUE(m.Decommission(clock, primary).ok());
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(primary)).alive());
  EXPECT_EQ(rig.store->benefactor(static_cast<size_t>(primary)).num_chunks(),
            0u);
  ASSERT_TRUE(read_fresh(got).ok());
  EXPECT_EQ(got, new_bytes);
}

TEST(DecommissionTest, ErasureCodedDrainCopiesFragmentsAndKeepsSpread) {
  // RS(4,2) over 7 benefactors, one per node: draining one holder moves
  // each of its fragments verbatim (no k-fragment rebuild), and the new
  // holder never shares a node with another fragment of the stripe.
  constexpr int kBens = 7;
  constexpr uint32_t kChunks = 12;
  Rig rig(/*replication=*/1, kBens, /*maintenance=*/false,
          [](store::StoreConfig& cfg) {
            cfg.redundancy = store::RedundancyMode::kErasure;
            cfg.ec_k = 4;
            cfg.ec_m = 2;
          });
  auto& m = rig.store->manager();
  store::StoreClient& c = rig.store->ClientForNode(0);
  auto& clock = sim::CurrentClock();
  auto id = c.Create(clock, "/ec-drain");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(c.Fallocate(clock, *id, kChunks * kChunk).ok());
  const auto data = Pattern(kChunks * kChunk, 33);
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(c.WriteChunkPages(clock, *id, i, all,
                                  {data.data() + i * kChunk, kChunk})
                    .ok());
  }

  const int victim = 2;
  const size_t held =
      rig.store->benefactor(static_cast<size_t>(victim)).num_chunks();
  ASSERT_GT(held, 0u);
  uint64_t others_out = 0;
  for (int b = 0; b < kBens; ++b) {
    if (b != victim) others_out += rig.store->benefactor(b).data_bytes_out();
  }
  const uint64_t rebuilt_before = m.ec_fragments_repaired();
  auto moved = m.Decommission(clock, victim);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, held);
  EXPECT_EQ(m.ec_fragments_repaired() - rebuilt_before, held);
  EXPECT_EQ(rig.store->benefactor(victim).num_chunks(), 0u);
  EXPECT_FALSE(rig.store->benefactor(victim).alive());
  // Only the drained holder's own fragments were read.
  uint64_t others_after = 0;
  for (int b = 0; b < kBens; ++b) {
    if (b != victim) others_after += rig.store->benefactor(b).data_bytes_out();
  }
  EXPECT_EQ(others_after, others_out);

  auto locs = m.GetReadLocations(clock, *id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  for (const store::ReadLocation& loc : *locs) {
    ASSERT_EQ(loc.benefactors.size(), 6u);
    std::vector<int> nodes;
    for (int bid : loc.benefactors) {
      ASSERT_GE(bid, 0) << loc.key.ToString();
      ASSERT_NE(bid, victim) << loc.key.ToString();
      nodes.push_back(
          rig.store->benefactor(static_cast<size_t>(bid)).node_id());
    }
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end())
        << "two fragments of " << loc.key.ToString() << " share a node";
  }

  store::StoreClient fresh(*rig.cluster, m, /*local_node=*/0);
  std::vector<uint8_t> got(kChunk);
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(fresh.ReadChunk(clock, *id, i, got).ok()) << "chunk " << i;
    EXPECT_EQ(0, std::memcmp(got.data(), data.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
  EXPECT_EQ(fresh.ec_degraded_reads(), 0u);
}

// ---- replication repair ----

TEST(RepairTest, RestoresReplicationAfterLoss) {
  Rig rig(/*replication=*/2);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(8 * kChunk, 11);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  ASSERT_TRUE((*r)->Sync().ok());

  rig.store->benefactor(2).Kill();
  uint64_t lost = 0;
  auto recreated =
      rig.store->manager().RepairReplication(sim::CurrentClock(), &lost);
  ASSERT_TRUE(recreated.ok());
  EXPECT_GT(*recreated, 0u);
  EXPECT_EQ(lost, 0u);

  // After repair, even a SECOND failure cannot lose data.
  rig.store->benefactor(0).Kill();
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(8 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(RepairTest, CountsUnrecoverableChunks) {
  Rig rig(/*replication=*/1);  // no replicas: death means loss
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(8 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Write(0, Pattern(8 * kChunk, 12)).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  rig.store->benefactor(1).Kill();
  uint64_t lost = 0;
  auto recreated =
      rig.store->manager().RepairReplication(sim::CurrentClock(), &lost);
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(*recreated, 0u);
  EXPECT_EQ(lost, 2u);  // 8 chunks over 4 benefactors
}

TEST(RepairTest, SharedCheckpointChunksRepairedOnce) {
  Rig rig(/*replication=*/2);
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(4 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(4 * kChunk, 13);
  ASSERT_TRUE((*r)->Write(0, data).ok());
  CheckpointSpec spec;
  spec.nvm.push_back(*r);
  ASSERT_TRUE(runtime.SsdCheckpoint(spec, "/ckpt/repair").ok());

  rig.store->benefactor(0).Kill();
  auto recreated =
      rig.store->manager().RepairReplication(sim::CurrentClock(), nullptr);
  ASSERT_TRUE(recreated.ok());
  // Chunks shared between the live file and the checkpoint were repaired
  // once each, not once per referencing file.
  EXPECT_LE(*recreated, 4u + 1u);  // variable chunks + ckpt header chunk

  auto fresh = runtime.SsdMalloc(4 * kChunk);
  RestoreSpec restore;
  restore.nvm.push_back(*fresh);
  ASSERT_TRUE(runtime.SsdRestart("/ckpt/repair", restore).ok());
  std::vector<uint8_t> got(4 * kChunk);
  ASSERT_TRUE((*fresh)->Read(0, got).ok());
  EXPECT_EQ(got, data);
}

TEST(RepairTest, MaintenanceSelfHealsMidWorkloadKillEndToEnd) {
  // The full story, with NO manual RepairReplication call anywhere: a
  // benefactor dies in the middle of a replicated workload, the degraded
  // writes report the affected chunks (and the heartbeat detector catches
  // the untouched ones), and the background service restores full
  // replication within a bounded virtual-time window — proven by killing a
  // SECOND benefactor afterwards and reading every byte back.
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::MaintenanceService& ms = *rig.store->maintenance();
  NvmallocRuntime runtime(*rig.store, 0);
  auto r = runtime.SsdMalloc(16 * kChunk);
  ASSERT_TRUE(r.ok());
  const auto data = Pattern(16 * kChunk, 31);

  // First half lands healthy; the victim dies; the second half completes
  // as degraded successes that feed the repair queue.
  ASSERT_TRUE((*r)->Write(0, {data.data(), 8 * kChunk}).ok());
  ASSERT_TRUE((*r)->Sync().ok());
  rig.store->benefactor(1).Kill();
  ASSERT_TRUE((*r)->Write(8 * kChunk, {data.data() + 8 * kChunk,
                                       8 * kChunk})
                  .ok());
  ASSERT_TRUE((*r)->Sync().ok());

  // Bounded convergence in virtual time.  The window is generous: the
  // cache's write-back runs fork clocks that can report degraded chunks
  // tens of virtual ms ahead of the worker, and repair begins no earlier
  // than the latest report it batches.
  const int64_t deadline = ms.now_ns() + 100 * kMs;
  ms.RunUntil(deadline);
  const store::MaintenanceStats s = ms.stats();
  EXPECT_TRUE(ms.QueueEmpty());
  EXPECT_GT(s.replicas_recreated, 0u);
  EXPECT_EQ(s.lost_chunks, 0u);
  EXPECT_GE(s.converged_at_ns, 0);
  EXPECT_LE(s.converged_at_ns, deadline);

  // Every chunk is back at full replication on alive benefactors only.
  sim::VirtualClock vclock(0);
  auto locs = rig.store->manager().GetReadLocations(vclock, (*r)->file_id(),
                                                    0, 16);
  ASSERT_TRUE(locs.ok());
  for (const store::ReadLocation& loc : *locs) {
    EXPECT_EQ(loc.benefactors.size(), 2u);
    for (int b : loc.benefactors) {
      EXPECT_NE(b, 1);
      EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(b)).alive());
    }
  }

  // Replication held: a second death cannot lose data.
  rig.store->benefactor(0).Kill();
  (*r)->Invalidate();
  ASSERT_TRUE(
      runtime.mount().cache().Drop(sim::CurrentClock(), (*r)->file_id()).ok());
  std::vector<uint8_t> got(16 * kChunk);
  ASSERT_TRUE((*r)->Read(0, got).ok());
  EXPECT_EQ(got, data);
  ASSERT_TRUE(runtime.SsdFree(*r).ok());
}

// ---- workload-level resilience ----

TEST(FailureTest, MatmulCompletesWithReplicationAfterMidBcastDeath) {
  workloads::TestbedOptions to =
      workloads::MatmulTestbedOptions(4, false);
  to.compute_nodes = 4;
  to.store.replication = 2;
  workloads::Testbed tb(to);

  // Kill one benefactor *before* the run: placement avoids it, and reads
  // during compute fall over to replicas where needed.
  tb.store().benefactor(2).Kill();

  workloads::MatmulOptions o;
  o.matrix_bytes = 512_KiB;
  o.procs_per_node = 2;
  o.nodes = 4;
  o.tile = 16;
  auto r = workloads::RunMatmul(tb, o);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.verified);
}

// ---- integrity: bit rot, verifying reads, checksum scrub ----

// Store-level helpers (the integrity tests drive the store client
// directly, bypassing the mount cache, so every read hits a benefactor).
store::FileId WriteStoreFile(store::StoreClient& c, const std::string& name,
                             uint32_t chunks, const std::vector<uint8_t>& data,
                             sim::VirtualClock& clock) {
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(c.WriteChunkPages(clock, *id, i, all,
                                  {data.data() + i * kChunk, kChunk})
                    .ok());
  }
  return *id;
}

TEST(CorruptionTest, ReadFailsOverOnCorruptReplica) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 61);
  const store::FileId id = WriteStoreFile(c, "/rot", 1, data, clock);

  // Flip one bit on the primary replica — the one the client reads first.
  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int rotten = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(rotten))
                  .CorruptChunk(loc->key, /*byte_offset=*/17, /*xor_mask=*/0x04)
                  .ok());

  // The read must serve the exact original bytes via the other replica.
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(c.corrupt_failovers(), 1u);

  // The mismatch was reported: the rotten replica is quarantined (dropped
  // from the location map, its data deleted) and counted.
  EXPECT_EQ(m.corrupt_detected(), 1u);
  auto after = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->benefactors.size(), 1u);
  EXPECT_NE(after->benefactors[0], rotten);
  EXPECT_FALSE(
      rig.store->benefactor(static_cast<size_t>(rotten)).HasChunk(loc->key));
}

TEST(CorruptionTest, QuarantinedCopyNeverReadsAsZerosThroughAStaleLocation) {
  // Client A caches chunk 0's replicas {P, S}.  P's copy rots; client B
  // reads it, and the manager quarantines P — stripping it from the list
  // and deleting the copy.  A's cached location still names P: the read
  // must not take P's missing copy for a never-written hole and serve
  // zeros.  It fails over to S with the right bytes, and A's next read
  // resolves afresh.
  Rig rig(/*replication=*/2);
  store::StoreClient& a = rig.store->ClientForNode(0);
  store::StoreClient& b = rig.store->ClientForNode(3);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 67);
  const store::FileId id = WriteStoreFile(a, "/stale", 1, data, clock);
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(a.ReadChunk(clock, id, 0, got).ok());  // caches {P, S}
  ASSERT_EQ(got, data);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int primary = loc->benefactors[0];
  store::Benefactor& p = rig.store->benefactor(static_cast<size_t>(primary));
  ASSERT_TRUE(p.CorruptChunk(loc->key, 17, 0x04).ok());
  ASSERT_TRUE(b.ReadChunk(clock, id, 0, got).ok());
  ASSERT_EQ(got, data);
  ASSERT_EQ(m.corrupt_detected(), 1u);
  ASSERT_FALSE(p.HasChunk(loc->key));

  std::vector<uint8_t> sparse(kChunk);
  EXPECT_EQ(p.ReadChunk(clock, loc->key, sparse).code(),
            ErrorCode::kNotFound);
  std::fill(got.begin(), got.end(), 0xA5);
  ASSERT_TRUE(a.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, data);
  const uint64_t rtts = a.meta_round_trips();
  ASSERT_TRUE(a.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(a.meta_round_trips() - rtts, 1u);  // the stale entry was dropped

  // A write landing the key on P again ends the quarantine there.
  Bitmap all(kChunk / a.config().page_bytes);
  all.SetAll();
  const uint32_t crc = Crc32c(data.data(), data.size());
  ASSERT_TRUE(p.WritePages(clock, loc->key, all, data, &crc).ok());
  ASSERT_TRUE(p.ReadChunk(clock, loc->key, sparse).ok());
  EXPECT_EQ(sparse, data);
}

TEST(CorruptionTest, RepairRebuildsFromVerifiedSurvivor) {
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  store::MaintenanceService& ms = *rig.store->maintenance();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 62);
  const store::FileId id = WriteStoreFile(c, "/heal", 1, data, clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(loc->benefactors[0]))
                  .CorruptChunk(loc->key, 4096, 0x80)
                  .ok());

  // The failover read reports the corruption; background repair rebuilds
  // the quarantined replica from the surviving, re-verified copy.
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_EQ(got, data);
  ms.RunUntil(std::max(clock.now(), ms.now_ns()) + 100 * kMs);
  ASSERT_TRUE(ms.QueueEmpty());
  EXPECT_EQ(m.corrupt_detected(), 1u);
  EXPECT_EQ(m.corrupt_repaired(), 1u);

  // Back at full replication, and EVERY replica now serves the original
  // bytes when read directly off the benefactor.
  auto healed = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->benefactors.size(), 2u);
  for (int b : healed->benefactors) {
    sim::VirtualClock rc(clock.now());
    ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(b))
                    .ReadChunk(rc, healed->key, got)
                    .ok());
    EXPECT_EQ(got, data) << "replica on benefactor " << b;
  }
}

TEST(CorruptionTest, CorruptAllReplicasSurfacesAsLostNotWrongBytes) {
  Rig rig(/*replication=*/2);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const store::FileId id =
      WriteStoreFile(c, "/gone", 1, Pattern(kChunk, 63), clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  for (int b : loc->benefactors) {
    ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(b))
                    .CorruptChunk(loc->key, 99, 0x01)
                    .ok());
  }

  // Both replicas fail verification: the read errors (never serves rot),
  // and stripping the last replica records the chunk as lost.
  std::vector<uint8_t> got(kChunk);
  Status s = c.ReadChunk(clock, id, 0, got);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(c.corrupt_failovers(), 2u);
  EXPECT_EQ(m.corrupt_detected(), 2u);
  EXPECT_EQ(m.lost_chunks(), 1u);
}

TEST(CorruptionTest, ScrubFindsSilentRotEndToEnd) {
  // Nothing ever reads the rotted chunk: only the scrub's incremental
  // checksum verification can find it, quarantine it, and have repair
  // rebuild it — the full background detect-and-heal loop.
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  store::MaintenanceService& ms = *rig.store->maintenance();
  sim::VirtualClock clock(0);
  const auto data = Pattern(8 * kChunk, 64);
  const store::FileId id = WriteStoreFile(c, "/silent", 8, data, clock);

  auto loc = m.GetReadLocation(clock, id, 5);
  ASSERT_TRUE(loc.ok());
  const int rotten = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(rotten))
                  .CorruptChunk(loc->key, 300, 0x20)
                  .ok());

  // Let the scrub cycle over the whole store (50 ms period in this rig).
  ms.RunUntil(std::max(clock.now(), ms.now_ns()) + 2'000 * kMs);
  ASSERT_TRUE(ms.QueueEmpty());
  const store::MaintenanceStats s = ms.stats();
  EXPECT_GE(s.scrub_chunks_verified, 8u);
  EXPECT_EQ(s.corrupt_chunks_detected, 1u);
  EXPECT_EQ(s.corrupt_chunks_repaired, 1u);
  EXPECT_EQ(m.lost_chunks(), 0u);

  // Healed: full replication, and a full read-back matches exactly.
  sim::VirtualClock rc(ms.now_ns());
  std::vector<uint8_t> got(kChunk);
  for (uint32_t i = 0; i < 8; ++i) {
    auto li = m.GetReadLocation(rc, id, i);
    ASSERT_TRUE(li.ok());
    EXPECT_EQ(li->benefactors.size(), 2u) << "chunk " << i;
    ASSERT_TRUE(c.ReadChunk(rc, id, i, got).ok());
    EXPECT_EQ(0, std::memcmp(got.data(), data.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
  EXPECT_EQ(c.corrupt_failovers(), 0u);  // nothing ever reached a reader
}

TEST(CorruptionTest, BlindPartialWriteSurvivesChecksumScrub) {
  // A page-granular writeback ships the full client image plus a dirty
  // bitmap, but the cache writes fully-covered pages blind — the clean
  // pages of the image may never have been faulted in.  The replicas
  // merge the dirty pages over their stored base, so the authoritative
  // checksum must cover the merged image, not the client's.  (Recording
  // the client-image CRC made the checksum scrub quarantine every such
  // chunk as corrupt — destroying the sole replica at replication=1.)
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/true);
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  store::MaintenanceService& ms = *rig.store->maintenance();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 66);
  const store::FileId id = WriteStoreFile(c, "/blind", 1, data, clock);

  // Rewrite one page "blind": zeros everywhere else in the image, exactly
  // as a fresh cache slot that never faulted the rest of the chunk.
  const uint64_t page = c.config().page_bytes;
  Bitmap dirty(kChunk / page);
  dirty.Set(1);
  const auto patch = Pattern(page, 67);
  std::vector<uint8_t> image(kChunk, 0);
  std::memcpy(image.data() + page, patch.data(), page);
  ASSERT_TRUE(c.WriteChunkPages(clock, id, 0, dirty, image).ok());

  // A full scrub cycle over the store must find nothing to quarantine.
  ms.RunUntil(std::max(clock.now(), ms.now_ns()) + 2'000 * kMs);
  ASSERT_TRUE(ms.QueueEmpty());
  EXPECT_EQ(ms.stats().corrupt_chunks_detected, 0u);
  EXPECT_EQ(m.lost_chunks(), 0u);

  // Both replicas still stand, and a verifying read returns the merge:
  // old bytes outside the dirty page, the patch inside.
  sim::VirtualClock rc(ms.now_ns());
  auto loc = m.GetReadLocation(rc, id, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->benefactors.size(), 2u);
  std::vector<uint8_t> expect = data;
  std::memcpy(expect.data() + page, patch.data(), page);
  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(rc, id, 0, got).ok());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(c.corrupt_failovers(), 0u);
}

TEST(CorruptionTest, VerifyOffServesRotSilently) {
  // Negative control for the knob: with the integrity layer off the same
  // flipped bit sails through to the reader — checksums, not luck, are
  // what the other tests are measuring.
  Rig rig(/*replication=*/2, /*benefactors=*/4, /*maintenance=*/false,
          [](store::StoreConfig& s) {
            s.verify_reads = false;
            s.scrub_verify = false;
          });
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 65);
  const store::FileId id = WriteStoreFile(c, "/unseen", 1, data, clock);

  auto loc = m.GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(loc->benefactors[0]))
                  .CorruptChunk(loc->key, 17, 0x04)
                  .ok());

  std::vector<uint8_t> got(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
  EXPECT_NE(got, data);                  // rot reached the reader
  EXPECT_EQ(got[17], data[17] ^ 0x04);   // exactly the injected flip
  EXPECT_EQ(c.corrupt_failovers(), 0u);
  EXPECT_EQ(m.corrupt_detected(), 0u);
}

// ---- benefactor merge path: partial-dirty writes and their checksum ----

// The two write RPCs that merge dirty pages into a stored image.
enum class MergeRpc { kWritePages, kWriteChunkRun };

// Land `dirty` pages of `image` on `key` through one of the two RPCs, with
// the client's full-image crc attached as the flush path sends it.
Status MergeVia(MergeRpc rpc, store::Benefactor& b, sim::VirtualClock& clock,
                const store::ChunkKey& key, const Bitmap& dirty,
                const std::vector<uint8_t>& image,
                uint32_t* stored_crc = nullptr) {
  const uint32_t client_crc = Crc32c(image.data(), image.size());
  if (rpc == MergeRpc::kWritePages) {
    return b.WritePages(clock, key, dirty, image, &client_crc, stored_crc);
  }
  store::ChunkWriteItem item;
  item.key = key;
  item.dirty = &dirty;
  item.data = image;
  item.has_crc = true;
  item.crc = client_crc;
  item.stored_crc = stored_crc;
  return b.WriteChunkRun(
      clock, {&item, 1},
      [](store::RunMsg, int64_t at, uint64_t) { return at; });
}

store::ChunkKey MergeKey(uint64_t n) {
  store::ChunkKey key;
  key.origin_file = 7000 + n;
  key.index = 0;
  key.version = 0;
  return key;
}

// The dirty sets every merge test walks: first, middle and last page, two
// non-adjacent pages, and all but one page.
std::vector<Bitmap> MergeDirtySets(size_t pages) {
  std::vector<Bitmap> sets;
  for (const auto& set : std::initializer_list<std::vector<size_t>>{
           {0}, {pages / 2}, {pages - 1}, {1, pages - 3}}) {
    Bitmap dirty(pages);
    for (size_t page : set) dirty.Set(page);
    sets.push_back(dirty);
  }
  Bitmap all_but_one(pages);
  all_but_one.SetAll();
  all_but_one.Clear(pages / 3);
  sets.push_back(all_but_one);
  return sets;
}

TEST(MergeCrcTest, PartialMergeStoresChecksumOfStoredImage) {
  // Whether the merged checksum is derived from the verified base crc
  // (few dirty pages) or rehashed (many), it must be exactly the CRC of
  // the bytes the benefactor now holds — and those bytes the merge.
  Rig rig(/*replication=*/1, /*benefactors=*/1);
  store::Benefactor& b = rig.store->benefactor(0);
  const uint64_t page = store::StoreConfig{}.page_bytes;
  const size_t pages = kChunk / page;
  Bitmap all(pages);
  all.SetAll();
  uint64_t n = 0;
  for (MergeRpc rpc : {MergeRpc::kWritePages, MergeRpc::kWriteChunkRun}) {
    for (const Bitmap& dirty : MergeDirtySets(pages)) {
      SCOPED_TRACE(::testing::Message()
                   << "rpc " << static_cast<int>(rpc) << " dirty "
                   << dirty.PopCount() << " pages, case " << n);
      const store::ChunkKey key = MergeKey(n);
      const auto base = Pattern(kChunk, 100 + n);
      const auto update = Pattern(kChunk, 200 + n);
      ++n;
      sim::VirtualClock clock(0);
      ASSERT_TRUE(MergeVia(rpc, b, clock, key, all, base).ok());
      uint32_t acked = 0;
      ASSERT_TRUE(MergeVia(rpc, b, clock, key, dirty, update, &acked).ok());

      std::vector<uint8_t> expect = base;
      dirty.ForEachSet([&](size_t p) {
        std::memcpy(expect.data() + p * page, update.data() + p * page, page);
      });
      bool has_crc = false;
      uint32_t recorded = 0;
      uint32_t content = 0;
      ASSERT_TRUE(b.StoredChunkCrc(key, &has_crc, &recorded));
      ASSERT_TRUE(b.StoredContentCrc(key, &content));
      EXPECT_TRUE(has_crc);
      EXPECT_EQ(recorded, content);
      EXPECT_EQ(recorded, Crc32c(expect.data(), expect.size()));
      EXPECT_EQ(acked, recorded);
      std::vector<uint8_t> got(kChunk);
      ASSERT_TRUE(b.ReadChunk(clock, key, got).ok());  // verifying read
      EXPECT_EQ(got, expect);
    }
  }
}

TEST(MergeCrcTest, RottedBaseRejectsMergeAndLeavesChunkUntouched) {
  Rig rig(/*replication=*/1, /*benefactors=*/1);
  store::Benefactor& b = rig.store->benefactor(0);
  const size_t pages = kChunk / store::StoreConfig{}.page_bytes;
  Bitmap all(pages);
  all.SetAll();
  uint64_t n = 0;
  for (MergeRpc rpc : {MergeRpc::kWritePages, MergeRpc::kWriteChunkRun}) {
    for (const Bitmap& dirty : MergeDirtySets(pages)) {
      SCOPED_TRACE(::testing::Message() << "rpc " << static_cast<int>(rpc)
                                        << " case " << n);
      const store::ChunkKey key = MergeKey(n);
      const auto base = Pattern(kChunk, 300 + n);
      ++n;
      sim::VirtualClock clock(0);
      ASSERT_TRUE(MergeVia(rpc, b, clock, key, all, base).ok());
      ASSERT_TRUE(b.CorruptChunk(key, 4097, 0x10).ok());
      bool has_crc = false;
      uint32_t recorded = 0;
      uint32_t content = 0;
      ASSERT_TRUE(b.StoredChunkCrc(key, &has_crc, &recorded));
      ASSERT_TRUE(b.StoredContentCrc(key, &content));

      const Status s =
          MergeVia(rpc, b, clock, key, dirty, Pattern(kChunk, 400 + n));
      EXPECT_EQ(s.code(), ErrorCode::kCorrupt) << s.ToString();
      bool has_after = false;
      uint32_t recorded_after = 0;
      uint32_t content_after = 0;
      ASSERT_TRUE(b.StoredChunkCrc(key, &has_after, &recorded_after));
      ASSERT_TRUE(b.StoredContentCrc(key, &content_after));
      EXPECT_TRUE(has_after);
      EXPECT_EQ(recorded_after, recorded);  // the rot stays detectable
      EXPECT_EQ(content_after, content);    // no page landed
    }
  }
}

TEST(MergeCrcTest, PartialMergeChargesTwoChunkChecksums) {
  // Virtual-time pin: a partial merge charges one checksum_ns(chunk_bytes)
  // for the base verification and one for the merged image, however the
  // host computed the merged crc; a full-image write charges none.  Two
  // rigs that differ only in the modelled checksum bandwidth isolate the
  // checksum share of each write's elapsed time.
  const auto elapsed = [](double gbps, MergeRpc rpc, const Bitmap& dirty) {
    Rig rig(/*replication=*/1, /*benefactors=*/1, /*maintenance=*/false,
            [gbps](store::StoreConfig& s) { s.checksum_bw_gbps = gbps; });
    store::Benefactor& b = rig.store->benefactor(0);
    Bitmap all(dirty.size());
    all.SetAll();
    sim::VirtualClock base_clock(0);
    EXPECT_TRUE(
        MergeVia(rpc, b, base_clock, MergeKey(0), all, Pattern(kChunk, 1))
            .ok());
    sim::VirtualClock clock(1'000 * kMs);
    EXPECT_TRUE(
        MergeVia(rpc, b, clock, MergeKey(0), dirty, Pattern(kChunk, 2)).ok());
    return clock.now() - 1'000 * kMs;
  };
  const auto chunk_ns = [](double gbps) {
    store::StoreConfig cfg;
    cfg.checksum_bw_gbps = gbps;
    return cfg.checksum_ns(kChunk);
  };
  const int64_t extra_ns = chunk_ns(1.0) - chunk_ns(4.0);
  ASSERT_GT(extra_ns, 0);
  const size_t pages = kChunk / store::StoreConfig{}.page_bytes;
  Bitmap all(pages);
  all.SetAll();
  for (MergeRpc rpc : {MergeRpc::kWritePages, MergeRpc::kWriteChunkRun}) {
    for (const Bitmap& dirty : MergeDirtySets(pages)) {
      EXPECT_EQ(elapsed(1.0, rpc, dirty) - elapsed(4.0, rpc, dirty),
                2 * extra_ns)
          << "rpc " << static_cast<int>(rpc) << " dirty "
          << dirty.PopCount();
    }
    EXPECT_EQ(elapsed(1.0, rpc, all), elapsed(4.0, rpc, all));
  }
}

// ---- write-back from a cache slot whose clean pages were never fetched ----

// One flush of chunk 0 of a two-chunk file through a one-slot chunk cache.
// Chunk 1 is read first, so the slot chunk 0 then gets may reuse its freed
// storage: the pages chunk 0 never fetched hold stale bytes, not zeros.
// `pages` lists the page indices written blind (full pages, no fetch);
// every page listed is dirty at the flush.
struct SlotFlush {
  std::vector<uint8_t> stored;  // expected store image of chunk 0
  std::vector<uint8_t> image;   // the bytes the cache wrote
  int64_t flush_ns = 0;         // virtual time of the Flush() call
  store::ChunkKey key;
  std::vector<int> benefactors;
};

SlotFlush FlushFromUnfetchedSlot(Rig& rig, const std::vector<size_t>& pages) {
  store::StoreClient& c = rig.store->ClientForNode(0);
  const uint64_t page = c.config().page_bytes;
  sim::VirtualClock clock(0);
  const auto base = Pattern(2 * kChunk, 80);
  const store::FileId id = WriteStoreFile(c, "/slot", 2, base, clock);

  fuselite::FuseliteConfig fc;
  fc.cache_bytes = kChunk;  // one slot
  fc.readahead = false;
  fuselite::ChunkCache cache(c, fc);
  std::vector<uint8_t> chunk1(kChunk);
  EXPECT_TRUE(cache.Read(clock, id, kChunk, chunk1).ok());

  SlotFlush out;
  out.stored.assign(base.begin(), base.begin() + kChunk);
  out.image = Pattern(kChunk, 81);
  for (size_t p : pages) {
    EXPECT_TRUE(
        cache.Write(clock, id, p * page, {out.image.data() + p * page, page})
            .ok());
    std::memcpy(out.stored.data() + p * page, out.image.data() + p * page,
                page);
  }
  EXPECT_EQ(cache.traffic().fetched_chunks.load(), 1u);  // chunk 1 only
  const int64_t t0 = clock.now();
  EXPECT_TRUE(cache.Flush(clock, id).ok());
  out.flush_ns = clock.now() - t0;

  auto loc = rig.store->manager().GetReadLocation(clock, id, 0);
  EXPECT_TRUE(loc.ok());
  out.key = loc->key;
  out.benefactors = loc->benefactors;
  return out;
}

// Every page index of a chunk: a flush with all of them dirty is full-image.
std::vector<size_t> AllPages() {
  std::vector<size_t> all(kChunk / store::StoreConfig{}.page_bytes);
  for (size_t p = 0; p < all.size(); ++p) all[p] = p;
  return all;
}

TEST(SlotFlushTest, PartialFlushFromUnfetchedSlotStoresBasePlusNewPages) {
  // The slot's never-fetched pages are unspecified; only the dirty pages
  // may reach the store, and the checksum the manager records must be the
  // one of the merged blob each replica holds.  Unbounded runs and runs
  // of one chunk (max_run_chunks=1), at replication 1 and 2.
  for (bool batched : {false, true}) {
    for (int replication : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << "batched " << batched
                                        << " replication " << replication);
      Rig rig(replication, /*benefactors=*/4, /*maintenance=*/false,
              [batched](store::StoreConfig& s) {
                if (!batched) s.max_run_chunks = 1;
              });
      const SlotFlush f = FlushFromUnfetchedSlot(rig, {1, 5});
      ASSERT_EQ(f.benefactors.size(), static_cast<size_t>(replication));
      uint32_t recorded = 0;
      ASSERT_TRUE(rig.store->manager().LookupChecksum(f.key, &recorded));
      EXPECT_EQ(recorded, Crc32c(f.stored.data(), f.stored.size()));
      for (int bid : f.benefactors) {
        store::Benefactor& b = rig.store->benefactor(static_cast<size_t>(bid));
        uint32_t content = 0;
        ASSERT_TRUE(b.StoredContentCrc(f.key, &content));
        EXPECT_EQ(content, recorded) << "benefactor " << bid;
        sim::VirtualClock scrub(0);
        EXPECT_TRUE(b.VerifyChunk(scrub, f.key, recorded).ok())
            << "benefactor " << bid;
        std::vector<uint8_t> got(kChunk);
        ASSERT_TRUE(b.ReadChunk(scrub, f.key, got).ok());
        EXPECT_EQ(got, f.stored) << "benefactor " << bid;
      }
    }
  }
}

TEST(SlotFlushTest, FullDirtyFlushStoresClientChecksumVerbatim) {
  // Every page written: the client hashes its image and each replica
  // stores that value as is, with no merged-image rehash.
  const std::vector<size_t> all = AllPages();
  for (bool batched : {false, true}) {
    for (int replication : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << "batched " << batched
                                        << " replication " << replication);
      Rig rig(replication, /*benefactors=*/4, /*maintenance=*/false,
              [batched](store::StoreConfig& s) {
                if (!batched) s.max_run_chunks = 1;
              });
      const SlotFlush f = FlushFromUnfetchedSlot(rig, all);
      ASSERT_EQ(f.stored, f.image);
      const uint32_t client_crc = Crc32c(f.image.data(), f.image.size());
      uint32_t recorded = 0;
      ASSERT_TRUE(rig.store->manager().LookupChecksum(f.key, &recorded));
      EXPECT_EQ(recorded, client_crc);
      for (int bid : f.benefactors) {
        bool has_crc = false;
        uint32_t stored = 0;
        ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(bid))
                        .StoredChunkCrc(f.key, &has_crc, &stored));
        EXPECT_TRUE(has_crc);
        EXPECT_EQ(stored, client_crc) << "benefactor " << bid;
      }
    }
  }
}

TEST(SlotFlushTest, FlushChecksumChargesAreUnchanged) {
  // Virtual-time pin: the client charges one chunk checksum per flushed
  // chunk whether or not it hashes the image on the host, so a partial
  // flush costs three chunk checksums (client, base verification, merged
  // image) and a full one costs exactly the client's.  Rigs that differ
  // only in the checksum bandwidth isolate that share of the flush.  The
  // absolute flush times, measured before the client stopped hashing
  // partial images on the host, pin the whole write path.
  const auto chunk_ns = [](double gbps) {
    store::StoreConfig cfg;
    cfg.checksum_bw_gbps = gbps;
    return cfg.checksum_ns(kChunk);
  };
  const int64_t extra_ns = chunk_ns(1.0) - chunk_ns(4.0);
  ASSERT_GT(extra_ns, 0);
  const std::vector<size_t> all = AllPages();
  struct Pin {
    int replication;
    int64_t partial_ns;
    int64_t full_ns;
  };
  for (bool batched : {false, true}) {
    for (const Pin pin : {Pin{1, 462'628, 1'016'499},
                          Pin{2, 498'524, 1'301'716}}) {
      const int replication = pin.replication;
      const auto flush_ns = [&](double gbps, const std::vector<size_t>& pages) {
        Rig rig(replication, /*benefactors=*/4, /*maintenance=*/false,
                [&](store::StoreConfig& s) {
                  if (!batched) s.max_run_chunks = 1;
                  s.checksum_bw_gbps = gbps;
                });
        return FlushFromUnfetchedSlot(rig, pages).flush_ns;
      };
      SCOPED_TRACE(::testing::Message() << "batched " << batched
                                        << " replication " << replication);
      const int64_t partial = flush_ns(4.0, {1, 5});
      const int64_t full = flush_ns(4.0, all);
      EXPECT_EQ(partial, pin.partial_ns);
      EXPECT_EQ(full, pin.full_ns);
      EXPECT_EQ(flush_ns(1.0, {1, 5}) - partial, 3 * extra_ns);
      EXPECT_EQ(flush_ns(1.0, all) - full, extra_ns);
    }
  }
}

// ---- one-pass copy-and-verify reads ----
//
// A benefactor read copies the stored bytes into the caller's destination
// and checksums them in the same pass.  A single flipped bit anywhere in a
// stored blob must still fail the read with CORRUPT, and the virtual time
// of every read — intact or failing — is pinned to the values the
// copy-then-hash reads produced.

store::ChunkKey OnePassKey(uint32_t index) {
  store::ChunkKey key;
  key.origin_file = 8000;
  key.index = index;
  key.version = 0;
  return key;
}

// Byte offsets the bit-flip tests corrupt: the first and last byte, and
// bytes inside and at the edges of the folding kernel's vector blocks.
std::vector<uint64_t> FlipOffsets(uint64_t blob_bytes) {
  return {0, 1, 63, 64, 255, 256, blob_bytes / 2, blob_bytes - 1};
}

TEST(OnePassReadTest, BitFlipSurfacesAsCorruptFromChunkAndFragmentRuns) {
  // A stored chunk and a stored erasure fragment are both items of the
  // read run; each is read in a run of one sized to its blob.
  Rig rig(/*replication=*/1, /*benefactors=*/1);
  store::Benefactor& b = rig.store->benefactor(0);
  const uint64_t frag_bytes = kChunk / 4;
  const auto chunk = Pattern(kChunk, 500);
  const auto frag = Pattern(frag_bytes, 501);
  const uint32_t frag_crc = Crc32c(frag.data(), frag.size());
  Bitmap all(kChunk / store::StoreConfig{}.page_bytes);
  all.SetAll();
  Bitmap frag_pages(frag_bytes / store::StoreConfig{}.page_bytes);
  frag_pages.SetAll();
  {
    sim::VirtualClock clock(0);
    ASSERT_TRUE(MergeVia(MergeRpc::kWritePages, b, clock, OnePassKey(0), all,
                         chunk)
                    .ok());
    ASSERT_TRUE(
        b.WritePages(clock, OnePassKey(1), frag_pages, frag, &frag_crc).ok());
  }
  // Each read starts on an idle device, far past the one before.
  int64_t start = 0;
  const auto read = [&](bool fragment, std::vector<uint8_t>& out,
                        int64_t* elapsed) {
    start += 1'000 * kMs;
    sim::VirtualClock clock(start);
    const Status s = b.ReadChunk(clock, OnePassKey(fragment ? 1 : 0), out);
    *elapsed = clock.now() - start;
    return s;
  };
  for (bool fragment : {false, true}) {
    SCOPED_TRACE(fragment ? "fragment" : "chunk");
    const std::vector<uint8_t>& want = fragment ? frag : chunk;
    const int64_t pinned_ns = fragment ? 144'632 : 353'528;
    std::vector<uint8_t> out(want.size());
    int64_t elapsed = 0;
    ASSERT_TRUE(read(fragment, out, &elapsed).ok());
    EXPECT_EQ(out, want);
    EXPECT_EQ(elapsed, pinned_ns);
    const store::ChunkKey key = OnePassKey(fragment ? 1 : 0);
    for (uint64_t off : FlipOffsets(want.size())) {
      const auto mask = static_cast<uint8_t>(1u << (off % 8));
      ASSERT_TRUE(b.CorruptChunk(key, off, mask).ok());
      const Status s = read(fragment, out, &elapsed);
      EXPECT_EQ(s.code(), ErrorCode::kCorrupt) << "flip at " << off;
      EXPECT_EQ(elapsed, pinned_ns) << "flip at " << off;
      ASSERT_TRUE(b.CorruptChunk(key, off, mask).ok());  // flip back
    }
    ASSERT_TRUE(read(fragment, out, &elapsed).ok());
    EXPECT_EQ(out, want);
  }
}

TEST(OnePassReadTest, BitFlipSurfacesAsCorruptFromReadChunkRunAtAnyPosition) {
  // An 8-chunk run whose first, middle or last chunk carries a flipped
  // bit fails with CORRUPT after delivering exactly the chunks before it;
  // an intact run delivers every chunk into its own destination.
  Rig rig(/*replication=*/1, /*benefactors=*/1);
  store::Benefactor& b = rig.store->benefactor(0);
  constexpr uint32_t kRun = 8;
  const auto data = Pattern(kRun * kChunk, 510);
  std::vector<store::ChunkKey> keys;
  Bitmap all(kChunk / store::StoreConfig{}.page_bytes);
  all.SetAll();
  {
    sim::VirtualClock clock(0);
    for (uint32_t i = 0; i < kRun; ++i) {
      keys.push_back(OnePassKey(i));
      const std::vector<uint8_t> image(data.begin() + i * kChunk,
                                       data.begin() + (i + 1) * kChunk);
      ASSERT_TRUE(
          MergeVia(MergeRpc::kWritePages, b, clock, keys[i], all, image).ok());
    }
  }
  std::vector<uint8_t> bufs(kRun * kChunk);
  std::vector<std::span<uint8_t>> outs;
  for (uint32_t i = 0; i < kRun; ++i) {
    outs.push_back({bufs.data() + i * kChunk, kChunk});
  }
  int64_t start = 0;
  const auto run = [&](std::vector<int64_t>* ready, int64_t* elapsed) {
    start += 1'000 * kMs;
    sim::VirtualClock clock(start);
    ready->clear();
    const Status s = b.ReadChunkRun(
        clock, keys, outs, [&](const store::ChunkRunItem& item) -> Status {
          EXPECT_FALSE(item.sparse);
          ready->push_back(item.ready_at - start);
          return OkStatus();
        });
    *elapsed = clock.now() - start;
    return s;
  };
  std::vector<int64_t> ready;
  int64_t elapsed = 0;
  ASSERT_TRUE(run(&ready, &elapsed).ok());
  EXPECT_EQ(bufs, data);
  // Device reads serialise; each chunk's verification overlaps the next
  // chunk's read, so chunk i is ready one chunk-read after chunk i - 1.
  constexpr int64_t kFirstReady = 353'528;
  constexpr int64_t kChunkRead = 262'144;
  std::vector<int64_t> want_ready;
  for (int64_t i = 0; i < kRun; ++i) {
    want_ready.push_back(kFirstReady + i * kChunkRead);
  }
  EXPECT_EQ(ready, want_ready);
  EXPECT_EQ(elapsed, want_ready.back());
  for (uint32_t bad : {0u, kRun / 2, kRun - 1}) {
    SCOPED_TRACE(::testing::Message() << "bad chunk " << bad);
    for (uint64_t off : {uint64_t{0}, kChunk / 2 + 5, kChunk - 1}) {
      ASSERT_TRUE(b.CorruptChunk(keys[bad], off, 0x80).ok());
      const Status s = run(&ready, &elapsed);
      EXPECT_EQ(s.code(), ErrorCode::kCorrupt) << "flip at " << off;
      EXPECT_EQ(ready.size(), bad) << "flip at " << off;
      // The run stops at the bad chunk's check, once its verification —
      // the hash that found the mismatch — has been charged.
      EXPECT_EQ(elapsed, kFirstReady + kChunkRead * static_cast<int64_t>(bad))
          << "flip at " << off;
      ASSERT_TRUE(b.CorruptChunk(keys[bad], off, 0x80).ok());  // flip back
    }
  }
}

TEST(OnePassReadTest, ClientReadsHealthyBytesPastAFlippedBit) {
  // Through the client, a flipped bit on one stored copy costs a failover
  // (replication 2) or a reconstruction (RS(4,2)), never wrong bytes —
  // single-chunk and batched reads alike.
  for (bool ec : {false, true}) {
    SCOPED_TRACE(ec ? "RS(4,2)" : "replication 2");
    Rig rig(ec ? 1 : 2, ec ? 6 : 4, /*maintenance=*/false,
            [ec](store::StoreConfig& cfg) {
              if (!ec) return;
              cfg.redundancy = store::RedundancyMode::kErasure;
              cfg.ec_k = 4;
              cfg.ec_m = 2;
            });
    store::StoreClient& c = rig.store->ClientForNode(0);
    store::Manager& m = rig.store->manager();
    constexpr uint32_t kChunks = 8;
    const auto data = Pattern(kChunks * kChunk, ec ? 521 : 520);
    const store::FileId id = WriteStoreFile(c, "/onepass", kChunks, data);
    // Rot the first-read copy of chunks 0 (single read) and 3 (inside
    // the batch): the primary replica, or the first data fragment.
    for (uint32_t chunk : {0u, 3u}) {
      auto loc = m.GetReadLocation(sim::CurrentClock(), id, chunk);
      ASSERT_TRUE(loc.ok());
      ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(
                                            loc->benefactors.front()))
                      .CorruptChunk(loc->key, 1000 + chunk, 0x02)
                      .ok());
    }
    sim::VirtualClock clock(1'000 * kMs);
    std::vector<uint8_t> one(kChunk);
    ASSERT_TRUE(c.ReadChunk(clock, id, 0, one).ok());
    EXPECT_EQ(0, std::memcmp(one.data(), data.data(), kChunk));
    EXPECT_EQ(clock.now() - 1'000 * kMs, ec ? 847'806 : 1'172'551);

    std::vector<std::vector<uint8_t>> bufs(kChunks,
                                           std::vector<uint8_t>(kChunk));
    std::vector<store::StoreClient::ChunkFetch> fetches(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      fetches[i].index = i;
      fetches[i].out = bufs[i];
    }
    sim::VirtualClock batch(2'000 * kMs);
    ASSERT_TRUE(c.ReadChunks(batch, id, fetches).ok());
    std::vector<int64_t> ready;
    for (uint32_t i = 0; i < kChunks; ++i) {
      ASSERT_TRUE(fetches[i].status.ok()) << "chunk " << i;
      EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + i * kChunk,
                               kChunk))
          << "chunk " << i;
      ready.push_back(fetches[i].ready_at - 2'000 * kMs);
    }
    const std::vector<int64_t> want_ready =
        // RS(4,2): each data-fragment holder streams its fragments of the
        // batch in one run; the two runs that hit a rotten fragment are
        // discarded, and their stripes re-read those fragments in runs of
        // one once the failed run is over.
        ec ? std::vector<int64_t>{706'453, 2'730'705, 2'871'241, 3'249'455,
                                  2'312'090, 2'383'325, 3'287'922, 3'359'157}
           : std::vector<int64_t>{882'580, 1'167'519, 1'737'397, 2'721'081,
                                  3'006'020, 1'452'458, 2'022'336, 2'307'553};
    EXPECT_EQ(ready, want_ready);
    if (ec) {
      // A rotten fragment stays in place (nothing quarantines it on a
      // stripe read), so the batch reconstructs chunk 0 again.
      EXPECT_EQ(c.ec_degraded_reads(), 3u);
    } else {
      // The single read quarantined chunk 0's rotten replica; the batch
      // fails over only for chunk 3.
      EXPECT_EQ(c.corrupt_failovers(), 2u);
    }
  }
}

TEST(CorruptionTest, ScrubVerdictsAndTimeForChunksAndFragments) {
  // VerifyChunk hashes the stored blob in place.  Verdicts and virtual
  // time are pinned for a replicated chunk and an erasure fragment —
  // intact, with one flipped bit, and restored — and for a sparse chunk,
  // which verifies trivially without touching the device.
  Rig rig(/*replication=*/1, /*benefactors=*/1);
  store::Benefactor& b = rig.store->benefactor(0);
  const auto chunk = Pattern(kChunk, 530);
  const auto frag = Pattern(kChunk / 4, 531);
  const uint32_t chunk_crc = Crc32c(chunk.data(), chunk.size());
  const uint32_t frag_crc = Crc32c(frag.data(), frag.size());
  Bitmap all(kChunk / store::StoreConfig{}.page_bytes);
  all.SetAll();
  Bitmap frag_pages(kChunk / 4 / store::StoreConfig{}.page_bytes);
  frag_pages.SetAll();
  {
    sim::VirtualClock clock(0);
    ASSERT_TRUE(MergeVia(MergeRpc::kWritePages, b, clock, OnePassKey(0), all,
                         chunk)
                    .ok());
    ASSERT_TRUE(
        b.WritePages(clock, OnePassKey(1), frag_pages, frag, &frag_crc).ok());
  }
  int64_t start = 0;
  const auto verify = [&](uint32_t index, uint32_t crc, bool* sparse,
                          int64_t* elapsed) {
    start += 1'000 * kMs;
    sim::VirtualClock clock(start);
    const Status s = b.VerifyChunk(clock, OnePassKey(index), crc, sparse);
    *elapsed = clock.now() - start;
    return s;
  };
  for (bool fragment : {false, true}) {
    SCOPED_TRACE(fragment ? "fragment" : "chunk");
    const uint32_t index = fragment ? 1 : 0;
    const uint32_t crc = fragment ? frag_crc : chunk_crc;
    const int64_t pinned_ns = fragment ? 144'632 : 353'528;
    bool sparse = true;
    int64_t elapsed = 0;
    EXPECT_TRUE(verify(index, crc, &sparse, &elapsed).ok());
    EXPECT_FALSE(sparse);
    EXPECT_EQ(elapsed, pinned_ns);
    ASSERT_TRUE(b.CorruptChunk(OnePassKey(index), 4095, 0x08).ok());
    EXPECT_EQ(verify(index, crc, &sparse, &elapsed).code(),
              ErrorCode::kCorrupt);
    EXPECT_EQ(elapsed, pinned_ns);
    ASSERT_TRUE(b.CorruptChunk(OnePassKey(index), 4095, 0x08).ok());
    EXPECT_TRUE(verify(index, crc, &sparse, &elapsed).ok());
    EXPECT_EQ(elapsed, pinned_ns);
  }
  bool sparse = false;
  int64_t elapsed = -1;
  EXPECT_TRUE(verify(2, chunk_crc, &sparse, &elapsed).ok());
  EXPECT_TRUE(sparse);
  EXPECT_EQ(elapsed, 0);
}

}  // namespace
}  // namespace nvm
