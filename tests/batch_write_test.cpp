// Conformance tests for the benefactor-side multi-chunk write RPC
// (Benefactor::WriteChunkRun + StoreClient::WriteChunks): request-count
// amortisation (a K-chunk flush window to one benefactor is exactly ONE
// write request), byte-for-byte equality of unbounded runs vs runs of one
// chunk (max_run_chunks=1), virtual-time identity of a batch of one with
// the per-chunk write path it replaced (dense and partial-dirty cases,
// and with the WAL or QoS on; values pinned from that path), the COW
// clone's one-program landing (derived from that path's pin),
// QoS admission of every streamed payload, device-latency amortisation,
// parallel replica charging (a replicated flush costs max(replica times),
// not their sum), degraded writes when a replica dies, and a multi-process
// write storm over the streamed path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/qos.hpp"
#include "store/store.hpp"

namespace nvm::store {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

std::vector<uint8_t> Pattern(uint64_t bytes, uint64_t seed) {
  std::vector<uint8_t> v(bytes);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<AggregateStore> store;

  explicit Rig(int benefactors, size_t max_run_chunks, int replication = 1,
               int client_nodes = 1, double nic_bw_mbps = 0.0,
               const std::function<void(StoreConfig&)>& tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = static_cast<size_t>(benefactors + client_nodes);
    if (nic_bw_mbps > 0.0) cc.network.nic_bw_mbps = nic_bw_mbps;
    cluster = std::make_unique<net::Cluster>(cc);
    AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.max_run_chunks = max_run_chunks;
    sc.store.replication = replication;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < benefactors; ++b) {
      sc.benefactor_nodes.push_back(client_nodes + b);
    }
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = client_nodes;
    store = std::make_unique<AggregateStore>(*cluster, sc);
  }

  StoreClient& client(int node = 0) { return store->ClientForNode(node); }

  // Create a file of `chunks` chunks (sparse: no data written yet).
  FileId CreateFile(const std::string& name, uint32_t chunks) {
    sim::VirtualClock clock(0);
    StoreClient& c = client();
    auto id = c.Create(clock, name);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
    return *id;
  }
};

// Issue one batched write of chunks [0, n) carrying `data`, all pages
// dirty, and return the per-chunk outcomes.
std::vector<StoreClient::ChunkWrite> BatchWrite(
    StoreClient& c, sim::VirtualClock& clock, FileId id, uint32_t n,
    const std::vector<uint8_t>& data, std::vector<Bitmap>& dirty) {
  dirty.assign(n, Bitmap(kChunk / c.config().page_bytes));
  std::vector<StoreClient::ChunkWrite> writes(n);
  for (uint32_t i = 0; i < n; ++i) {
    dirty[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].image = {data.data() + i * kChunk, kChunk};
  }
  EXPECT_TRUE(c.WriteChunks(clock, id, writes).ok());
  return writes;
}

// Read chunks [0, n) back through the batched read path and compare.
void ExpectReadsBack(StoreClient& c, FileId id, uint32_t n,
                     const std::vector<uint8_t>& data) {
  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> bufs(n, std::vector<uint8_t>(kChunk));
  std::vector<StoreClient::ChunkFetch> fetches(n);
  for (uint32_t i = 0; i < n; ++i) {
    fetches[i].index = i;
    fetches[i].out = bufs[i];
  }
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fetches[i].status.ok()) << "chunk " << i;
    EXPECT_EQ(0,
              std::memcmp(bufs[i].data(), data.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

TEST(BatchWriteTest, KChunkWindowIsOneBenefactorWriteRequest) {
  constexpr uint32_t kChunks = 8;
  Rig rig(/*benefactors=*/1, kUnbounded);
  const FileId id = rig.CreateFile("/one", kChunks);
  const auto data = Pattern(kChunks * kChunk, 7);

  Benefactor& b = rig.store->benefactor(0);
  const uint64_t requests_before = b.write_requests();
  const uint64_t runs_before = rig.client().write_run_rpcs();

  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(rig.client(), clock, id, kChunks, data, dirty);
  for (const auto& w : writes) ASSERT_TRUE(w.status.ok());

  // The whole K-chunk window lives on one benefactor: exactly ONE write
  // request (one header + one queueing slot), not one per chunk.
  EXPECT_EQ(b.write_requests() - requests_before, 1u);
  EXPECT_EQ(rig.client().write_run_rpcs() - runs_before, 1u);
  ExpectReadsBack(rig.client(), id, kChunks, data);
}

TEST(BatchWriteTest, OneRunPerBenefactorAcrossStripes) {
  constexpr int kBenefactors = 4;
  constexpr uint32_t kChunks = 12;  // 3 chunks per benefactor, round-robin
  Rig rig(kBenefactors, kUnbounded);
  const FileId id = rig.CreateFile("/spread", kChunks);
  const auto data = Pattern(kChunks * kChunk, 13);

  std::vector<uint64_t> before(kBenefactors);
  for (int b = 0; b < kBenefactors; ++b) {
    before[static_cast<size_t>(b)] =
        rig.store->benefactor(static_cast<size_t>(b)).write_requests();
  }

  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(rig.client(), clock, id, kChunks, data, dirty);
  for (const auto& w : writes) ASSERT_TRUE(w.status.ok());

  for (int b = 0; b < kBenefactors; ++b) {
    EXPECT_EQ(rig.store->benefactor(static_cast<size_t>(b)).write_requests() -
                  before[static_cast<size_t>(b)],
              1u)
        << "benefactor " << b;
  }
  EXPECT_EQ(rig.client().write_run_rpcs(),
            static_cast<uint64_t>(kBenefactors));
  ExpectReadsBack(rig.client(), id, kChunks, data);
}

TEST(BatchWriteTest, BatchedEqualsChunkAtATimeByteForByte) {
  constexpr uint32_t kChunks = 10;
  Rig batched(/*benefactors=*/3, kUnbounded);
  Rig per_chunk(/*benefactors=*/3, /*max_run_chunks=*/1);
  const auto data = Pattern(kChunks * kChunk, 29);
  const FileId idb = batched.CreateFile("/bytes", kChunks);
  const FileId idl = per_chunk.CreateFile("/bytes", kChunks);

  sim::VirtualClock cb(0);
  sim::VirtualClock cl(0);
  std::vector<Bitmap> db;
  std::vector<Bitmap> dl;
  auto wb = BatchWrite(batched.client(), cb, idb, kChunks, data, db);
  auto wl = BatchWrite(per_chunk.client(), cl, idl, kChunks, data, dl);
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(wb[i].status.ok());
    ASSERT_TRUE(wl[i].status.ok());
  }
  ExpectReadsBack(batched.client(), idb, kChunks, data);
  ExpectReadsBack(per_chunk.client(), idl, kChunks, data);
  // Identical data-plane traffic: the run RPC changes timing, not volume.
  EXPECT_EQ(batched.client().bytes_flushed(),
            per_chunk.client().bytes_flushed());
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(batched.store->benefactor(b).data_bytes_in(),
              per_chunk.store->benefactor(b).data_bytes_in());
  }
}

// One chunk written through WriteChunks (a batch of one) or through
// WriteChunkPages, with the clock starting at `start`.
struct OneWrite {
  Status status;
  int64_t ready_at = 0;
  int64_t clock = 0;
};
OneWrite WriteOne(StoreClient& c, FileId id, const Bitmap& dirty,
                  std::span<const uint8_t> image, bool via_pages,
                  int64_t start = 0) {
  sim::VirtualClock clock(start);
  OneWrite out;
  if (via_pages) {
    out.status = c.WriteChunkPages(clock, id, 0, dirty, image);
    out.ready_at = clock.now();
  } else {
    std::vector<StoreClient::ChunkWrite> w(1);
    w[0].index = 0;
    w[0].dirty = &dirty;
    w[0].image = image;
    out.status = c.WriteChunks(clock, id, w);
    if (out.status.ok()) out.status = w[0].status;
    out.ready_at = w[0].ready_at;
  }
  out.clock = clock.now();
  return out;
}

TEST(BatchWriteTest, BatchOfOneMatchesLegacyVirtualTime) {
  // Arithmetic identity: with one chunk per run, the streamed write path
  // must charge exactly what the per-chunk write path charged — same
  // completion times, same network bytes, same device busy time.  The
  // values are the ones that path (one prepare, then per replica the
  // dirty pages plus a request header, the device program and a response)
  // produced before runs replaced it.
  struct Pin {
    int64_t done_ns;
    uint64_t wire_bytes;
    int64_t busy_ns;
  };
  for (const bool partial : {false, true}) {
    const Pin pin = partial ? Pin{532'597, 13'056, 157'282}
                            : Pin{1'060'950, 66'304, 470'506};
    for (const size_t max_run : {kUnbounded, size_t{1}}) {
      for (const bool via_pages : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "partial=" << partial << " max_run_chunks=" << max_run
                     << " via_pages=" << via_pages);
        Rig rig(/*benefactors=*/2, max_run);
        const auto data = Pattern(kChunk, 31);
        const FileId id = rig.CreateFile("/one", 1);
        const size_t pages = kChunk / rig.client().config().page_bytes;
        Bitmap dirty(pages);
        if (partial) {
          dirty.Set(0);
          dirty.Set(pages / 2);
          dirty.Set(pages - 1);
        } else {
          dirty.SetAll();
        }
        const OneWrite w =
            WriteOne(rig.client(), id, dirty, {data.data(), kChunk}, via_pages);
        ASSERT_TRUE(w.status.ok());
        EXPECT_EQ(w.ready_at, pin.done_ns);
        EXPECT_EQ(w.clock, pin.done_ns);
        EXPECT_EQ(rig.cluster->network().remote_bytes(), pin.wire_bytes);
        EXPECT_EQ(rig.cluster->network().bytes_transferred(), pin.wire_bytes);
        EXPECT_EQ(rig.store->benefactor(0).ssd().channel().busy_ns(),
                  pin.busy_ns);
        EXPECT_EQ(rig.store->benefactor(0).write_requests(), 1u);
      }
    }
  }
}

TEST(BatchWriteTest, BatchOfOneCloneMatchesLegacyVirtualTime) {
  // The copy-on-write path: the chunk is shared with a second file (a
  // checkpoint link), so the write lands a fresh version.  The run path
  // ships the clone instruction as a standalone control message, and the
  // benefactor reads the shared version and programs the merged one.
  //
  // The per-chunk sequence this replaced cost 2'550'398 ns, 132'672 wire
  // bytes and 1'748'662 ns of device busy time: it cloned (a 64 KiB read
  // and a 64 KiB program) and only then received and programmed the dirty
  // pages.  Landing the clone and the pages as one program removes the
  // clone's own 64 KiB program (85 us latency + 64 KiB at 170 MB/s =
  // 470'506 ns): busy 1'748'662 - 470'506 = 1'278'156 ns.  The dirty pages
  // no longer wait for the clone either: 64 KiB plus the run header
  // (285'217 ns at 230 MB/s + 60 us wire latency = 345'217 ns) stream in
  // while the 337'144 ns source read runs, so the write completes
  // 470'506 + 345'217 = 815'723 ns sooner, at 1'734'675 ns.  The wire
  // carries the same bytes.
  const auto data = Pattern(kChunk, 33);
  const auto update = Pattern(kChunk, 34);
  for (const size_t max_run : {kUnbounded, size_t{1}}) {
    SCOPED_TRACE(::testing::Message() << "max_run_chunks=" << max_run);
    Rig rig(/*benefactors=*/2, max_run);
    sim::VirtualClock setup(0);
    StoreClient& c = rig.client();
    auto id = c.Create(setup, "/live");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(c.Fallocate(setup, *id, kChunk).ok());
    Bitmap all(kChunk / c.config().page_bytes);
    all.SetAll();
    ASSERT_TRUE(
        c.WriteChunkPages(setup, *id, 0, all, {data.data(), kChunk}).ok());
    auto ckpt = c.Create(setup, "/ckpt");
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(c.LinkFileChunks(setup, *ckpt, *id).ok());

    const OneWrite w = WriteOne(c, *id, all, {update.data(), kChunk},
                                /*via_pages=*/false);
    ASSERT_TRUE(w.status.ok());
    EXPECT_EQ(w.ready_at, 1'734'675);
    EXPECT_EQ(w.clock, 1'734'675);
    EXPECT_EQ(rig.cluster->network().remote_bytes(), 132'672u);
    EXPECT_EQ(rig.cluster->network().bytes_transferred(), 132'672u);
    EXPECT_EQ(rig.store->benefactor(0).ssd().channel().busy_ns(), 1'278'156);
    EXPECT_EQ(rig.store->benefactor(1).ssd().channel().busy_ns(), 0);
    // Both views unchanged: the live file carries the update, the
    // checkpoint still reads the original bytes.
    ExpectReadsBack(c, *id, 1, update);
    ExpectReadsBack(c, *ckpt, 1, data);
  }
}

TEST(BatchWriteTest, FailedCowPrepareMovesNoSlot) {
  // A COW window whose third chunk cannot reserve space for its fresh
  // version fails as a whole: the two COW plans ahead of it give their
  // reservations back and their slots stay on the shared versions, so
  // the live file still reads its bytes (a swapped slot would point at a
  // fresh version nothing ever wrote, and read as zeros).
  net::ClusterConfig cc;
  cc.num_nodes = 3;
  net::Cluster cluster(cc);
  AggregateStoreConfig sc;
  sc.store.chunk_bytes = kChunk;
  sc.benefactor_nodes = {1, 2};
  sc.contribution_bytes = 3 * kChunk;  // two chunks each, one to spare
  sc.manager_node = 1;
  AggregateStore store(cluster, sc);
  StoreClient& c = store.ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = c.Create(clock, "/live");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(c.Fallocate(clock, *id, 4 * kChunk).ok());
  const auto data = Pattern(4 * kChunk, 35);
  std::vector<Bitmap> dirty;
  BatchWrite(c, clock, *id, 4, data, dirty);
  auto ckpt = c.Create(clock, "/ckpt");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(c.LinkFileChunks(clock, *ckpt, *id).ok());

  const std::vector<uint32_t> window = {0, 1, 2, 3};
  auto prepared = store.manager().PrepareWriteBatch(clock, *id, window);
  EXPECT_EQ(prepared.status().code(), ErrorCode::kOutOfSpace);
  for (size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(store.benefactor(b).bytes_used(), 2 * kChunk);
  }
  auto locs = store.manager().GetReadLocations(clock, *id, 0, 4);
  ASSERT_TRUE(locs.ok());
  for (const ReadLocation& loc : *locs) {
    EXPECT_EQ(loc.key.version, 0u) << loc.key.ToString();
    EXPECT_EQ(store.manager().ChunkRefcount(loc.key), 2u);
  }
  // A client with no cached locations resolves afresh.
  ExpectReadsBack(store.ClientForNode(2), *id, 4, data);
}

TEST(BatchWriteTest, WalCompletionIsChargedAfterTheWritesItAttests) {
  // With a WAL the window's completion record attests the replica writes,
  // so it is logged once they have all landed: a one-chunk write costs
  // what the per-chunk write path charged (replicas, then the record), and
  // the chunk is done when its record is.  Pinned from that path,
  // replication 1 and 2, full and partial dirty sets.
  struct Pin {
    int replication;
    bool partial;
    int64_t done_ns;  // from a start at 1 ms
  };
  const auto data = Pattern(kChunk, 77);
  for (const Pin pin : {Pin{1, false, 2'125'593}, Pin{1, true, 1'555'338},
                        Pin{2, false, 2'410'810}, Pin{2, true, 1'591'234}}) {
    for (const bool via_pages : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "replication=" << pin.replication << " partial="
                   << pin.partial << " via_pages=" << via_pages);
      Rig rig(/*benefactors=*/4, kUnbounded, pin.replication,
              /*client_nodes=*/1, /*nic_bw_mbps=*/0.0,
              [](StoreConfig& cfg) { cfg.wal = true; });
      const FileId id = rig.CreateFile("/w", 1);
      Bitmap dirty(kChunk / rig.client().config().page_bytes);
      if (pin.partial) {
        dirty.Set(1);
        dirty.Set(5);
      } else {
        dirty.SetAll();
      }
      const OneWrite w = WriteOne(rig.client(), id, dirty,
                                  {data.data(), kChunk}, via_pages, 1'000'000);
      ASSERT_TRUE(w.status.ok());
      EXPECT_EQ(w.ready_at, pin.done_ns);
      EXPECT_EQ(w.clock, pin.done_ns);
    }
  }

  // A multi-chunk window: one record after the join, and every chunk is
  // done when it is durable.
  const auto window = Pattern(4 * kChunk, 78);
  int64_t elapsed[2] = {0, 0};
  for (const bool wal : {false, true}) {
    Rig rig(/*benefactors=*/4, kUnbounded, /*replication=*/2,
            /*client_nodes=*/1, /*nic_bw_mbps=*/0.0,
            [wal](StoreConfig& cfg) { cfg.wal = wal; });
    const FileId id = rig.CreateFile("/window", 4);
    sim::VirtualClock clock(1'000'000);
    std::vector<Bitmap> dirty;
    auto writes = BatchWrite(rig.client(), clock, id, 4, window, dirty);
    int64_t last = 0;
    for (const auto& w : writes) {
      ASSERT_TRUE(w.status.ok());
      if (wal) {
        EXPECT_EQ(w.ready_at, clock.now());
      }
      last = std::max(last, w.ready_at);
    }
    EXPECT_EQ(clock.now(), last);
    elapsed[wal ? 1 : 0] = clock.now();
  }
  EXPECT_GT(elapsed[1], elapsed[0]) << "the record follows the join";
}

TEST(BatchWriteTest, RunOfOneUnderQosCostsWhatThePerChunkWriteCost) {
  // Under qos=true every payload is admitted — with its wire bytes —
  // before it is streamed, exactly as the per-chunk write path admitted
  // its dirty pages plus request header.  Times and admitted bytes are
  // pinned from that path (an uncontended tenant is never delayed).
  struct Pin {
    int replication;
    bool partial;
    int64_t done_ns;  // from a start at 1 ms
    uint64_t admitted_bytes;
  };
  const auto data = Pattern(kChunk, 77);
  for (const Pin pin : {Pin{1, false, 2'016'499, 65'600},
                        Pin{1, true, 1'446'244, 8'256},
                        Pin{2, false, 2'301'716, 131'200},
                        Pin{2, true, 1'482'140, 16'512}}) {
    for (const bool via_pages : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "replication=" << pin.replication << " partial="
                   << pin.partial << " via_pages=" << via_pages);
      Rig rig(/*benefactors=*/4, kUnbounded, pin.replication,
              /*client_nodes=*/1, /*nic_bw_mbps=*/0.0,
              [](StoreConfig& cfg) { cfg.qos = true; });
      const FileId id = rig.CreateFile("/w", 1);
      Bitmap dirty(kChunk / rig.client().config().page_bytes);
      if (pin.partial) {
        dirty.Set(1);
        dirty.Set(5);
      } else {
        dirty.SetAll();
      }
      const OneWrite w = WriteOne(rig.client(), id, dirty,
                                  {data.data(), kChunk}, via_pages, 1'000'000);
      ASSERT_TRUE(w.status.ok());
      EXPECT_EQ(w.ready_at, pin.done_ns);
      EXPECT_EQ(w.clock, pin.done_ns);
      const QosStats stats = rig.store->qos().Snapshot();
      ASSERT_FALSE(stats.tenants.empty());
      EXPECT_EQ(stats.tenants.front().id, kTenantForeground);
      EXPECT_EQ(stats.tenants.front().bytes, pin.admitted_bytes);
    }
  }
}

TEST(BatchWriteTest, RunPayloadBytesReachTheNicLaneAdmissions) {
  // A multi-chunk run to one benefactor: every payload is admitted on the
  // tenant's NIC lane before it goes on the wire — the dirty pages of
  // each chunk, plus the run header riding with the first.
  constexpr uint32_t kChunks = 4;
  Rig rig(/*benefactors=*/1, kUnbounded, /*replication=*/1,
          /*client_nodes=*/1, /*nic_bw_mbps=*/0.0,
          [](StoreConfig& cfg) { cfg.qos = true; });
  const FileId id = rig.CreateFile("/run", kChunks);
  const auto data = Pattern(kChunks * kChunk, 79);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(rig.client(), clock, id, kChunks, data, dirty);
  for (const auto& w : writes) ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(rig.client().write_run_rpcs(), 1u);
  const QosStats stats = rig.store->qos().Snapshot();
  ASSERT_FALSE(stats.tenants.empty());
  EXPECT_EQ(stats.tenants.front().id, kTenantForeground);
  // One SSD-lane and one NIC-lane admission per payload.
  EXPECT_EQ(stats.tenants.front().admitted, 2 * kChunks);
  EXPECT_EQ(stats.tenants.front().bytes,
            kChunks * kChunk + rig.client().config().meta_request_bytes);
  ExpectReadsBack(rig.client(), id, kChunks, data);
}

TEST(BatchWriteTest, RunAmortisesDeviceRequestLatency) {
  // A fast NIC makes the SSD the bottleneck, so the per-request latency
  // saved by the single queueing slot shows up in the end-to-end makespan.
  constexpr uint32_t kChunks = 8;
  constexpr double kFastNic = 100'000.0;
  Rig batched(/*benefactors=*/1, kUnbounded, /*replication=*/1,
              /*client_nodes=*/1, kFastNic);
  Rig per_chunk(/*benefactors=*/1, /*max_run_chunks=*/1, /*replication=*/1,
             /*client_nodes=*/1, kFastNic);
  const auto data = Pattern(kChunks * kChunk, 37);
  const FileId idb = batched.CreateFile("/amortise", kChunks);
  const FileId idl = per_chunk.CreateFile("/amortise", kChunks);

  sim::VirtualClock tb(0);
  sim::VirtualClock tl(0);
  std::vector<Bitmap> db;
  std::vector<Bitmap> dl;
  auto wb = BatchWrite(batched.client(), tb, idb, kChunks, data, db);
  auto wl = BatchWrite(per_chunk.client(), tl, idl, kChunks, data, dl);
  int64_t done_b = 0;
  int64_t done_l = 0;
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(wb[i].status.ok());
    ASSERT_TRUE(wl[i].status.ok());
    done_b = std::max(done_b, wb[i].ready_at);
    done_l = std::max(done_l, wl[i].ready_at);
  }

  // One queueing slot per run: K chunks save exactly (K-1) per-request
  // write latencies of device busy time...
  const int64_t latency =
      batched.store->benefactor(0).ssd().profile().write_latency_ns;
  const int64_t busy_b = batched.store->benefactor(0).ssd().channel().busy_ns();
  const int64_t busy_l =
      per_chunk.store->benefactor(0).ssd().channel().busy_ns();
  EXPECT_EQ(busy_l - busy_b, (kChunks - 1) * latency);
  // ...and the single-benefactor window (SSD-bound under the fast NIC)
  // finishes at least that much earlier end to end.
  EXPECT_GE(done_l - done_b, (kChunks - 1) * latency);
}

TEST(BatchWriteTest, ReplicatedFlushJoinsAtMaxOfReplicaTimes) {
  // The serial-replica-charging fix: a replicated flush forks a clock per
  // replica and joins at the max, so under a fast NIC (devices dominate,
  // replicas program in parallel on distinct SSDs) replication 2 costs
  // about one replica's time — not the sum the old serial path charged.
  constexpr double kFastNic = 100'000.0;
  auto elapsed_with_replication = [&](int replication) -> int64_t {
    Rig rig(/*benefactors=*/4, kUnbounded, replication,
            /*client_nodes=*/1, kFastNic);
    const FileId id = rig.CreateFile("/join", 1);
    const auto data = Pattern(kChunk, 41);
    sim::VirtualClock clock(0);
    std::vector<Bitmap> dirty;
    auto writes = BatchWrite(rig.client(), clock, id, 1, data, dirty);
    EXPECT_TRUE(writes[0].status.ok());
    return clock.now();
  };
  const int64_t one = elapsed_with_replication(1);
  const int64_t two = elapsed_with_replication(2);
  EXPECT_GE(two, one);
  EXPECT_LT(two, one + one / 2) << "replicated flush must overlap replicas";
}

TEST(BatchWriteTest, DegradedWriteSucceedsOnSurvivingReplica) {
  // One of the two replica holders is dead at flush time: the write must
  // still succeed (degraded), report the death, keep the location cache
  // pointing at data a replica actually holds, and read back intact.
  constexpr uint32_t kChunks = 4;
  Rig rig(/*benefactors=*/4, kUnbounded, /*replication=*/2);
  StoreClient& c = rig.client();
  const FileId id = rig.CreateFile("/degraded", kChunks);
  const auto data = Pattern(kChunks * kChunk, 43);
  {
    sim::VirtualClock clock(0);
    std::vector<Bitmap> dirty;
    auto writes = BatchWrite(c, clock, id, kChunks, data, dirty);
    for (const auto& w : writes) ASSERT_TRUE(w.status.ok());
  }
  EXPECT_EQ(c.degraded_writes(), 0u);

  // Kill one replica holder of chunk 0, then rewrite everything.
  sim::VirtualClock lookup(0);
  auto locs = rig.store->manager().GetReadLocations(lookup, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = (*locs)[0].benefactors.front();
  rig.store->benefactor(static_cast<size_t>(victim)).Kill();

  const auto update = Pattern(kChunks * kChunk, 44);
  sim::VirtualClock clock(0);
  std::vector<Bitmap> dirty;
  auto writes = BatchWrite(c, clock, id, kChunks, update, dirty);
  for (uint32_t i = 0; i < kChunks; ++i) {
    EXPECT_TRUE(writes[i].status.ok()) << "chunk " << i;
  }
  EXPECT_GT(c.degraded_writes(), 0u);
  EXPECT_FALSE(rig.store->benefactor(static_cast<size_t>(victim)).alive());
  // Every chunk reads back the update from the surviving replicas.
  ExpectReadsBack(c, id, kChunks, update);
}

TEST(BatchWriteTest, ConcurrentBatchedWritersSeeTheirOwnBytes) {
  // A write storm over the streamed path: several client nodes batch-write
  // their own striped files concurrently.  Exercises StreamTransfer and
  // the write-run grouping under real threads (TSan coverage via the
  // concurrency label); every writer must read back exactly its bytes.
  constexpr int kWriters = 3;
  constexpr uint32_t kChunks = 12;
  Rig rig(/*benefactors=*/4, kUnbounded, /*replication=*/1,
          /*client_nodes=*/kWriters);
  std::vector<FileId> ids(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    sim::VirtualClock clock(0);
    StoreClient& c = rig.client(w);
    auto id = c.Create(clock, "/storm" + std::to_string(w));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(c.Fallocate(clock, *id, kChunks * kChunk).ok());
    ids[static_cast<size_t>(w)] = *id;
  }

  std::atomic<int> failures{0};
  auto placement = rig.cluster->BlockPlacement(1, kWriters);
  rig.cluster->RunProcesses(placement, [&](net::ProcessEnv& env) {
    StoreClient& c = rig.store->ClientForNode(env.node_id);
    const FileId id = ids[static_cast<size_t>(env.node_id)];
    const auto data =
        Pattern(kChunks * kChunk, 50 + static_cast<uint64_t>(env.node_id));
    std::vector<Bitmap> dirty(kChunks,
                              Bitmap(kChunk / c.config().page_bytes));
    std::vector<StoreClient::ChunkWrite> writes(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      dirty[i].SetAll();
      writes[i].index = i;
      writes[i].dirty = &dirty[i];
      writes[i].image = {data.data() + i * kChunk, kChunk};
    }
    if (!c.WriteChunks(*env.clock, id, writes).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (uint32_t i = 0; i < kChunks; ++i) {
      if (!writes[i].status.ok()) {
        failures.fetch_add(1);
        return;
      }
    }
    std::vector<std::vector<uint8_t>> bufs(kChunks,
                                           std::vector<uint8_t>(kChunk));
    std::vector<StoreClient::ChunkFetch> fetches(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      fetches[i].index = i;
      fetches[i].out = bufs[i];
    }
    if (!c.ReadChunks(*env.clock, id, fetches).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (uint32_t i = 0; i < kChunks; ++i) {
      if (!fetches[i].status.ok() ||
          std::memcmp(bufs[i].data(), data.data() + i * kChunk, kChunk) !=
              0) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace nvm::store
