// Crash-consistency suite for the manager metadata WAL + checkpoint +
// cold-start recovery path (store/wal.cpp, store/recovery.cpp).
//
// Three layers of coverage:
//  * WAL unit tests: record round-trips, torn tails, corrupt-record
//    rejection, segment rotation, checkpoint-supersedes-log, torn
//    checkpoints falling back to the previous slot, and the seeded
//    CrashAfterAppends schedule being deterministic.
//  * A crash-point matrix: the store is crashed at every named point
//    (mid completion batch, mid repair commit, mid checkpoint, mid
//    scrub, mid quarantine publish, mid COW prepare, a torn grouped
//    COW-swap write, a torn COW erasure window) and must recover —
//    via KillManager/RestartManager — to a store that passes the full
//    cross-layer invariant sweep and serves only old-or-new bytes,
//    never wrong ones.
//  * A seeded randomized kill schedule: ops run until the WAL freezes
//    at a random append, the manager is killed and restarted, the one
//    in-flight op is probed (old state, new state, or lost — nothing
//    else is acceptable), and every other file must come back exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "store/erasure.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"

namespace nvm {
namespace {

constexpr uint64_t kChunk = 64_KiB;
constexpr int kBenefactors = 4;

using store::CrashPoint;
using store::WalRecord;
using store::WalRecordType;
using store::WalStore;

store::StoreConfig WalConfig() {
  store::StoreConfig cfg;
  cfg.wal = true;
  cfg.wal_segment_bytes = 4_KiB;
  return cfg;
}

store::ChunkKey Key(uint64_t file, uint32_t index, uint32_t version) {
  store::ChunkKey k;
  k.origin_file = file;
  k.index = index;
  k.version = version;
  return k;
}

// ---------------------------------------------------------------------------
// WAL unit tests
// ---------------------------------------------------------------------------

TEST(WalUnit, EveryRecordTypeRoundTrips) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);

  WalRecord create;
  create.type = WalRecordType::kCreateFile;
  create.file_id = 7;
  create.name = "/round/trip";

  WalRecord extend;
  extend.type = WalRecordType::kExtend;
  extend.file_id = 7;
  extend.size = 2 * kChunk;
  extend.placements = {{0, Key(7, 0, 0), {0, 1}}, {1, Key(7, 1, 0), {2, 3}}};

  WalRecord cow;
  cow.type = WalRecordType::kCowSwap;
  cow.file_id = 7;
  cow.slot = 1;
  cow.old_key = Key(7, 1, 0);
  cow.key = Key(7, 1, 1);
  cow.replicas = {2, 3};

  WalRecord complete;
  complete.type = WalRecordType::kComplete;
  complete.completions = {{Key(7, 0, 0), true, 0xdeadbeef,
                           {0xa1u, 0xb2u, 0xc3u}},  // erasure per-fragment crcs
                          {Key(7, 1, 1), false, 0, {}}};

  WalRecord replicas;
  replicas.type = WalRecordType::kReplicas;
  replicas.key = Key(7, 0, 0);
  replicas.replicas = {1};

  WalRecord lost;
  lost.type = WalRecordType::kReplicas;
  lost.key = Key(7, 1, 1);
  lost.replicas = {};

  WalRecord unlink;
  unlink.type = WalRecordType::kUnlink;
  unlink.file_id = 7;

  WalRecord link;
  link.type = WalRecordType::kLink;
  link.file_id = 9;
  link.src_file = 7;

  WalRecord redundancy;
  redundancy.type = WalRecordType::kRedundancy;
  redundancy.file_id = 7;
  redundancy.mode = static_cast<uint8_t>(store::RedundancyMode::kErasure);

  for (const WalRecord* r : {&create, &extend, &cow, &complete, &replicas,
                             &lost, &unlink, &link, &redundancy}) {
    wal.Append(clock, *r);
  }
  EXPECT_EQ(wal.last_seq(), 9u);
  EXPECT_GT(clock.now(), 0);  // durability has a virtual-time cost

  auto replay = wal.ReadForRecovery(clock);
  EXPECT_FALSE(replay.used_checkpoint);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 9u);
  for (size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].seq, i + 1);
  }

  const WalRecord& c = replay.records[0];
  EXPECT_EQ(c.type, WalRecordType::kCreateFile);
  EXPECT_EQ(c.file_id, 7u);
  EXPECT_EQ(c.name, "/round/trip");

  const WalRecord& e = replay.records[1];
  EXPECT_EQ(e.type, WalRecordType::kExtend);
  EXPECT_EQ(e.size, 2 * kChunk);
  ASSERT_EQ(e.placements.size(), 2u);
  EXPECT_EQ(e.placements[0].slot, 0u);
  EXPECT_EQ(e.placements[0].key, Key(7, 0, 0));
  EXPECT_EQ(e.placements[0].replicas, (std::vector<int>{0, 1}));
  EXPECT_EQ(e.placements[1].key, Key(7, 1, 0));
  EXPECT_EQ(e.placements[1].replicas, (std::vector<int>{2, 3}));

  const WalRecord& w = replay.records[2];
  EXPECT_EQ(w.type, WalRecordType::kCowSwap);
  EXPECT_EQ(w.slot, 1u);
  EXPECT_EQ(w.old_key, Key(7, 1, 0));
  EXPECT_EQ(w.key, Key(7, 1, 1));
  EXPECT_EQ(w.replicas, (std::vector<int>{2, 3}));

  const WalRecord& k = replay.records[3];
  EXPECT_EQ(k.type, WalRecordType::kComplete);
  ASSERT_EQ(k.completions.size(), 2u);
  EXPECT_EQ(k.completions[0].key, Key(7, 0, 0));
  EXPECT_TRUE(k.completions[0].has_crc);
  EXPECT_EQ(k.completions[0].crc, 0xdeadbeefu);
  EXPECT_EQ(k.completions[0].frag_crcs,
            (std::vector<uint32_t>{0xa1u, 0xb2u, 0xc3u}));
  EXPECT_EQ(k.completions[1].key, Key(7, 1, 1));
  EXPECT_FALSE(k.completions[1].has_crc);
  EXPECT_TRUE(k.completions[1].frag_crcs.empty());

  EXPECT_EQ(replay.records[4].replicas, (std::vector<int>{1}));
  EXPECT_TRUE(replay.records[5].replicas.empty());  // lost publish survives
  EXPECT_EQ(replay.records[6].type, WalRecordType::kUnlink);
  EXPECT_EQ(replay.records[6].file_id, 7u);
  EXPECT_EQ(replay.records[7].type, WalRecordType::kLink);
  EXPECT_EQ(replay.records[7].file_id, 9u);
  EXPECT_EQ(replay.records[7].src_file, 7u);
  EXPECT_EQ(replay.records[8].type, WalRecordType::kRedundancy);
  EXPECT_EQ(replay.records[8].file_id, 7u);
  EXPECT_EQ(replay.records[8].mode,
            static_cast<uint8_t>(store::RedundancyMode::kErasure));
}

WalRecord UnlinkRecord(uint64_t file_id) {
  WalRecord r;
  r.type = WalRecordType::kUnlink;
  r.file_id = file_id;
  return r;
}

TEST(WalUnit, TornTailCutsOnlyTheLastRecord) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  for (uint64_t i = 1; i <= 3; ++i) wal.Append(clock, UnlinkRecord(i));

  wal.TruncateTailBytes(5);  // tear into the third record's frame
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].file_id, 1u);
  EXPECT_EQ(replay.records[1].file_id, 2u);

  // Reopen truncates the torn tail and continues the sequence after the
  // durable prefix; the log is clean again.
  wal.Reopen();
  wal.Append(clock, UnlinkRecord(44));
  auto again = wal.ReadForRecovery(clock);
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2].file_id, 44u);
  EXPECT_GT(again.records[2].seq, again.records[1].seq);
}

TEST(WalUnit, CorruptRecordRejectsItselfAndEverythingAfter) {
  // Each kUnlink frame is 8 header + 17 payload = 25 bytes.  A flip 10
  // bytes from the end lands inside record 3; 30 bytes back lands inside
  // record 2 and must also discard the (intact) record 3 behind it — a
  // reader can never trust bytes past a CRC failure.
  for (const auto& [back, survivors] :
       std::vector<std::pair<uint64_t, size_t>>{{10, 2}, {30, 1}}) {
    WalStore wal(WalConfig());
    sim::VirtualClock clock(0);
    for (uint64_t i = 1; i <= 3; ++i) wal.Append(clock, UnlinkRecord(i));
    wal.CorruptLogByte(back, 0x40);
    auto replay = wal.ReadForRecovery(clock);
    EXPECT_TRUE(replay.torn_tail) << "back=" << back;
    ASSERT_EQ(replay.records.size(), survivors) << "back=" << back;
    for (size_t i = 0; i < survivors; ++i) {
      EXPECT_EQ(replay.records[i].file_id, i + 1);
    }
  }
}

TEST(WalUnit, RecordsSpanSegmentsInOrder) {
  WalStore wal(WalConfig());  // 4 KiB segments
  sim::VirtualClock clock(0);
  constexpr uint64_t kRecords = 400;  // ~25 B each: ~10 KiB, >= 3 segments
  for (uint64_t i = 1; i <= kRecords; ++i) wal.Append(clock, UnlinkRecord(i));
  EXPECT_GE(wal.num_segments(), 3u);

  auto replay = wal.ReadForRecovery(clock);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(replay.records[i].seq, i + 1);
    EXPECT_EQ(replay.records[i].file_id, i + 1);
  }
}

TEST(WalUnit, CheckpointSupersedesCoveredSegments) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  for (uint64_t i = 1; i <= 200; ++i) wal.Append(clock, UnlinkRecord(i));
  EXPECT_GE(wal.num_segments(), 2u);

  wal.WriteCheckpoint(clock, "manager state at seq 200", wal.last_seq());
  EXPECT_EQ(wal.checkpoints_written(), 1u);
  EXPECT_EQ(wal.num_segments(), 0u);  // every segment was covered

  for (uint64_t i = 201; i <= 203; ++i) wal.Append(clock, UnlinkRecord(i));
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.used_checkpoint);
  EXPECT_EQ(replay.checkpoint, "manager state at seq 200");
  EXPECT_EQ(replay.covered_seq, 200u);
  ASSERT_EQ(replay.records.size(), 3u);  // only the post-checkpoint suffix
  EXPECT_EQ(replay.records[0].seq, 201u);
}

TEST(WalUnit, TornCheckpointFallsBackToPreviousSlot) {
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  for (uint64_t i = 1; i <= 4; ++i) wal.Append(clock, UnlinkRecord(i));
  wal.WriteCheckpoint(clock, "good checkpoint", 4);
  for (uint64_t i = 5; i <= 7; ++i) wal.Append(clock, UnlinkRecord(i));

  wal.CrashAtPoint(CrashPoint::kMidCheckpoint);
  wal.WriteCheckpoint(clock, "newer checkpoint that tears", 7);
  EXPECT_TRUE(wal.crashed());
  EXPECT_EQ(wal.checkpoints_written(), 1u);  // the torn one never counts

  wal.Reopen();
  EXPECT_FALSE(wal.crashed());
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.used_checkpoint);
  EXPECT_EQ(replay.checkpoint, "good checkpoint");  // fell back
  EXPECT_EQ(replay.covered_seq, 4u);
  ASSERT_EQ(replay.records.size(), 3u);  // 5..7 were NOT superseded
  EXPECT_EQ(replay.records[0].seq, 5u);
}

TEST(WalUnit, CrashAfterAppendsIsSeededAndDeterministic) {
  // seed == 0: the freeze lands exactly on the n-th append, which itself
  // tears mid-record.
  {
    WalStore wal(WalConfig());
    sim::VirtualClock clock(0);
    wal.CrashAfterAppends(5, 0);
    for (uint64_t i = 1; i <= 4; ++i) wal.Append(clock, UnlinkRecord(i));
    EXPECT_FALSE(wal.crashed());
    wal.Append(clock, UnlinkRecord(5));
    EXPECT_TRUE(wal.crashed());
    auto replay = wal.ReadForRecovery(clock);
    EXPECT_TRUE(replay.torn_tail);  // the triggering append is the tear
    EXPECT_EQ(replay.records.size(), 4u);

    // Post-freeze appends are silent no-ops: the RAM/durable divergence.
    wal.Append(clock, UnlinkRecord(6));
    wal.Append(clock, UnlinkRecord(7));
    EXPECT_EQ(wal.dropped_appends(), 2u);
  }

  // seed != 0 draws the trigger uniformly from [1, n] — the same seed
  // must reproduce the same schedule on a fresh store.
  auto trigger_at = [](uint64_t seed) {
    WalStore wal(WalConfig());
    sim::VirtualClock clock(0);
    wal.CrashAfterAppends(16, seed);
    uint64_t count = 0;
    while (!wal.crashed()) {
      wal.Append(clock, UnlinkRecord(++count));
      EXPECT_LE(count, 16u);
    }
    return count;
  };
  const uint64_t first = trigger_at(0x5eed);
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 16u);
  EXPECT_EQ(first, trigger_at(0x5eed));
}

TEST(WalUnit, GroupAppendIsOneDeviceWriteOfIndividualFrames) {
  // A group lands as one device write (one request latency), yet the
  // reader sees exactly the records — and sequence numbers — that
  // appending them one by one would have left.
  WalStore grouped(WalConfig());
  WalStore single(WalConfig());
  sim::VirtualClock grouped_clock(0);
  sim::VirtualClock single_clock(0);
  std::vector<WalRecord> recs;
  for (uint64_t i = 1; i <= 5; ++i) recs.push_back(UnlinkRecord(i));
  grouped.AppendGroup(grouped_clock, recs);
  for (uint64_t i = 1; i <= 5; ++i) {
    single.Append(single_clock, UnlinkRecord(i));
  }

  EXPECT_EQ(grouped.device().channel().num_requests(), 1u);
  EXPECT_EQ(single.device().channel().num_requests(), 5u);
  EXPECT_EQ(grouped.appends(), 5u);
  EXPECT_EQ(grouped.wal_bytes(), single.wal_bytes());
  EXPECT_LT(grouped_clock.now(), single_clock.now());
  auto g = grouped.ReadForRecovery(grouped_clock);
  auto o = single.ReadForRecovery(single_clock);
  EXPECT_FALSE(g.torn_tail);
  ASSERT_EQ(g.records.size(), o.records.size());
  for (size_t i = 0; i < g.records.size(); ++i) {
    EXPECT_EQ(g.records[i].seq, o.records[i].seq);
    EXPECT_EQ(g.records[i].file_id, o.records[i].file_id);
  }
}

TEST(WalUnit, CrashInsideAGroupKeepsTheRecordsAheadOfIt) {
  // The armed countdown counts records: the third record of the group
  // tears mid-frame, the two ahead of it are durable, the rest never
  // reach the device.
  WalStore wal(WalConfig());
  sim::VirtualClock clock(0);
  wal.CrashAfterAppends(3, 0);
  std::vector<WalRecord> recs;
  for (uint64_t i = 1; i <= 5; ++i) recs.push_back(UnlinkRecord(i));
  wal.AppendGroup(clock, recs);
  EXPECT_TRUE(wal.crashed());
  EXPECT_EQ(wal.device().channel().num_requests(), 1u);
  EXPECT_EQ(wal.dropped_appends(), 2u);
  auto replay = wal.ReadForRecovery(clock);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].file_id, 2u);
}

// ---------------------------------------------------------------------------
// Store-level harness
// ---------------------------------------------------------------------------

struct Rig {
  net::Cluster cluster;
  store::AggregateStore store;

  explicit Rig(std::function<void(store::StoreConfig&)> tweak = {})
      : cluster(MakeCluster()), store(cluster, MakeStore(std::move(tweak))) {}

  static net::ClusterConfig MakeCluster() {
    net::ClusterConfig cc;
    cc.num_nodes = kBenefactors + 1;
    return cc;
  }
  static store::AggregateStoreConfig MakeStore(
      std::function<void(store::StoreConfig&)> tweak) {
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 2;
    sc.store.wal = true;
    sc.store.wal_segment_bytes = 4_KiB;
    for (int b = 0; b < kBenefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    if (tweak) tweak(sc.store);
    return sc;
  }

  // Always re-fetched: the stub dies with the manager on KillManager.
  store::StoreClient& client() { return store.ClientForNode(0); }
};

std::vector<uint8_t> Pattern(uint64_t tag) {
  std::vector<uint8_t> v(kChunk);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(tag * 131 + i * 7 + (i >> 8));
  }
  return v;
}

Status WriteChunk(store::StoreClient& c, sim::VirtualClock& clock,
                  store::FileId id, uint32_t index,
                  const std::vector<uint8_t>& bytes) {
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  return c.WriteChunkPages(clock, id, index, all, bytes);
}

// The bytes every live file must serve, keyed by name.
struct ShadowFile {
  store::FileId id = store::kInvalidFileId;
  std::vector<std::vector<uint8_t>> chunks;
};
using Shadow = std::map<std::string, ShadowFile>;

void ExpectBytes(Rig& rig, sim::VirtualClock& clock, const Shadow& shadow) {
  store::StoreClient& c = rig.client();
  std::vector<uint8_t> buf(kChunk);
  for (const auto& [name, f] : shadow) {
    for (uint32_t i = 0; i < f.chunks.size(); ++i) {
      ASSERT_TRUE(c.ReadChunk(clock, f.id, i, buf).ok())
          << name << " chunk " << i;
      ASSERT_EQ(0, std::memcmp(buf.data(), f.chunks[i].data(), kChunk))
          << name << " chunk " << i;
    }
  }
}

// The cross-layer invariant sweep from store_invariant_test, restated at
// manager/benefactor level (no mount): namespace agreement, placement
// sanity, checksum agreement on every alive stored replica, reservation
// accounting, and no orphans.  `expect_full` demands exactly-R replica
// lists (off while a just-recovered store is still legitimately
// degraded).  Shared handles (checkpoint links) are deduped by key so
// reservation accounting counts each physical chunk once.
void CheckInvariants(Rig& rig, const Shadow& shadow, bool expect_full) {
  sim::VirtualClock clock(0);
  store::Manager& m = rig.store.manager();
  const size_t repl = static_cast<size_t>(m.config().replication);

  std::map<std::string, std::vector<int>> placed;  // key -> replica list
  for (const auto& [name, f] : shadow) {
    auto id = m.LookupFile(clock, name);
    ASSERT_TRUE(id.ok()) << name;
    ASSERT_EQ(*id, f.id) << name;
    auto info = m.Stat(clock, f.id);
    ASSERT_TRUE(info.ok()) << name;
    ASSERT_EQ(info->num_chunks, f.chunks.size()) << name;

    auto locs = m.GetReadLocations(clock, f.id, 0,
                                   static_cast<uint32_t>(f.chunks.size()));
    ASSERT_TRUE(locs.ok()) << name;
    ASSERT_EQ(locs->size(), f.chunks.size()) << name;
    for (const store::ReadLocation& loc : *locs) {
      ASSERT_FALSE(loc.benefactors.empty()) << loc.key.ToString();
      if (expect_full) {
        ASSERT_EQ(loc.benefactors.size(), repl);
      }
      std::set<int> distinct(loc.benefactors.begin(), loc.benefactors.end());
      ASSERT_EQ(distinct.size(), loc.benefactors.size());
      for (int b : loc.benefactors) {
        ASSERT_GE(b, 0);
        ASSERT_LT(b, kBenefactors);
      }
      ASSERT_GE(m.ChunkRefcount(loc.key), 1u);
      uint32_t want = 0;
      if (m.config().integrity() && m.LookupChecksum(loc.key, &want)) {
        for (int b : loc.benefactors) {
          store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
          uint32_t got = 0;
          if (ben.alive() && ben.StoredContentCrc(loc.key, &got)) {
            ASSERT_EQ(got, want)
                << "divergent bytes for " << loc.key.ToString() << " on " << b;
          }
        }
      }
      auto [it, inserted] = placed.emplace(loc.key.ToString(), loc.benefactors);
      if (!inserted) {
        ASSERT_EQ(it->second, loc.benefactors);
      }
    }
  }

  std::vector<uint64_t> reserved(kBenefactors, 0);
  std::map<std::string, std::set<int>> where;
  for (const auto& [key, list] : placed) {
    for (int b : list) {
      ++reserved[static_cast<size_t>(b)];
      where[key].insert(b);
    }
  }
  for (int b = 0; b < kBenefactors; ++b) {
    store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
    if (!ben.alive()) continue;
    ASSERT_EQ(ben.bytes_used(), reserved[static_cast<size_t>(b)] * kChunk)
        << "benefactor " << b;
    for (const store::ChunkKey& key : ben.StoredChunkKeys()) {
      auto it = where.find(key.ToString());
      ASSERT_NE(it, where.end())
          << "benefactor " << b << " stores orphan " << key.ToString();
      ASSERT_TRUE(it->second.contains(b))
          << "benefactor " << b << " stores " << key.ToString()
          << " but is not in its replica list";
    }
  }
}

store::FileId MakeFile(Rig& rig, sim::VirtualClock& clock,
                       const std::string& name, uint32_t chunks) {
  store::StoreClient& c = rig.client();
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok()) << name;
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok()) << name;
  return *id;
}

// ---------------------------------------------------------------------------
// Crash-point matrix
// ---------------------------------------------------------------------------

TEST(CrashMatrix, MidCompletionBatchAdoptsChecksumsFromReplicas) {
  // The crash freezes the WAL at CompleteWrites entry: the v2 chunk data
  // already landed on every replica, but the batched completion record
  // (the authoritative checksums) died with the crash.  Recovery must
  // notice that all data holders agree on the same write-time checksum
  // and adopt it — the new bytes win; they are never served unverified.
  Rig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 4;
  const store::FileId id = MakeFile(rig, clock, "/f0", kChunks);

  std::vector<std::vector<uint8_t>> v1, v2;
  for (uint32_t i = 0; i < kChunks; ++i) {
    v1.push_back(Pattern(10 + i));
    v2.push_back(Pattern(20 + i));
  }
  {
    store::StoreClient& c = rig.client();
    std::vector<Bitmap> dirty(kChunks, Bitmap(kChunk / c.config().page_bytes));
    std::vector<store::StoreClient::ChunkWrite> writes(kChunks);
    for (uint32_t i = 0; i < kChunks; ++i) {
      dirty[i].SetAll();
      writes[i].index = i;
      writes[i].dirty = &dirty[i];
      writes[i].image = {v1[i].data(), kChunk};
    }
    ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());

    rig.store.wal()->CrashAtPoint(CrashPoint::kMidBatch);
    for (uint32_t i = 0; i < kChunks; ++i) {
      writes[i].image = {v2[i].data(), kChunk};
    }
    ASSERT_TRUE(c.WriteChunks(clock, id, writes).ok());  // RAM says success
  }
  ASSERT_TRUE(rig.store.wal()->crashed());
  EXPECT_GT(rig.store.wal()->dropped_appends(), 0u);

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_FALSE(report.torn_tail);  // freeze hit between records, not mid-frame
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.crc_adopted, static_cast<uint64_t>(kChunks));
  EXPECT_EQ(report.files_recovered, 1u);

  Shadow shadow;
  shadow["/f0"] = {id, v2};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, MidRepairCommitLeavesRepairRedoable) {
  // A benefactor dies; the repair driver strips it (durably, in
  // PlanRepairs) and copies data to fresh targets, but the WAL freezes at
  // the first CommitRepair — no target publish survives.  Recovery must
  // sweep the never-published target copies as orphans, keep serving from
  // the survivor, and leave the chunk under-replicated so a re-run of the
  // repair driver heals it.
  Rig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 2;
  const store::FileId id = MakeFile(rig, clock, "/r0", kChunks);
  std::vector<std::vector<uint8_t>> data;
  for (uint32_t i = 0; i < kChunks; ++i) {
    data.push_back(Pattern(40 + i));
    ASSERT_TRUE(WriteChunk(rig.client(), clock, id, i, data.back()).ok());
  }

  store::Manager& m = rig.store.manager();
  auto locs = m.GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = (*locs)[0].benefactors[0];
  rig.store.benefactor(static_cast<size_t>(victim)).Kill();
  m.MarkDead(victim);

  rig.store.wal()->CrashAtPoint(CrashPoint::kMidRepairCommit);
  uint64_t lost = 0;
  ASSERT_TRUE(m.RepairReplication(clock, &lost).ok());
  EXPECT_EQ(lost, 0u);
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_GE(report.orphans_deleted, 1u);  // the unpublished target copies

  Shadow shadow;
  shadow["/r0"] = {id, data};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));  // survivor serves

  // The repair is redoable on the fresh manager: back to full replication.
  uint64_t lost2 = 0;
  ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost2).ok());
  EXPECT_EQ(lost2, 0u);
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, MidDrainCommitNeverNamesADeletedCopy) {
  // A decommission drains through the repair engine with the WAL on.  A
  // write prepared on one of the drained chunks keeps the drain from
  // finishing, and the WAL freezes at its first CommitRepair, so none of
  // the replacement lists survives the crash.  Recovery must come back
  // with lists whose live holders all hold the chunk's bytes, serve every
  // chunk, and a retried drain on the fresh manager must finish the job.
  Rig rig;
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 6;
  const store::FileId id = MakeFile(rig, clock, "/d0", kChunks);
  std::vector<std::vector<uint8_t>> data;
  for (uint32_t i = 0; i < kChunks; ++i) {
    data.push_back(Pattern(60 + i));
    ASSERT_TRUE(WriteChunk(rig.client(), clock, id, i, data.back()).ok());
  }

  store::Manager& m = rig.store.manager();
  auto locs = m.GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(locs.ok());
  const int victim = (*locs)[0].benefactors[0];
  const uint32_t fenced = 0;
  ASSERT_TRUE(m.PrepareWriteBatch(clock, id, {&fenced, 1}).ok());

  rig.store.wal()->CrashAtPoint(CrashPoint::kMidRepairCommit);
  EXPECT_FALSE(m.Decommission(clock, victim).ok());  // chunk 0 is fenced
  ASSERT_TRUE(rig.store.wal()->crashed());
  store::Benefactor& leaving =
      rig.store.benefactor(static_cast<size_t>(victim));
  EXPECT_TRUE(leaving.alive());
  EXPECT_TRUE(leaving.retiring());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);

  store::Manager& m2 = rig.store.manager();
  auto recovered = m2.GetReadLocations(clock, id, 0, kChunks);
  ASSERT_TRUE(recovered.ok());
  for (const store::ReadLocation& loc : *recovered) {
    uint32_t want = 0;
    ASSERT_TRUE(m2.LookupChecksum(loc.key, &want)) << loc.key.ToString();
    for (int b : loc.benefactors) {
      store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
      uint32_t got = 0;
      ASSERT_TRUE(ben.alive());
      ASSERT_TRUE(ben.StoredContentCrc(loc.key, &got))
          << loc.key.ToString() << " names benefactor " << b
          << ", which holds no copy";
      EXPECT_EQ(got, want) << loc.key.ToString() << " on " << b;
    }
  }
  Shadow shadow;
  shadow["/d0"] = {id, data};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));

  // The retiring flag lives on the benefactor, so the fresh manager keeps
  // placing around it, and a retried drain finishes.
  ASSERT_TRUE(m2.Decommission(clock, victim).ok());
  EXPECT_FALSE(leaving.alive());
  EXPECT_EQ(leaving.num_chunks(), 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, MidCheckpointFallsBackToPreviousCheckpointPlusReplay) {
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/c0", 2);
  const auto v1a = Pattern(50), v1b = Pattern(51), v2a = Pattern(52);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v1a).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 1, v1b).ok());

  rig.store.manager().Checkpoint(clock);  // a full checkpoint lands
  EXPECT_EQ(rig.store.wal()->checkpoints_written(), 1u);

  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v2a).ok());
  rig.store.wal()->CrashAtPoint(CrashPoint::kMidCheckpoint);
  rig.store.manager().Checkpoint(clock);  // tears halfway through the blob
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.used_checkpoint);     // the torn slot was rejected
  EXPECT_GT(report.records_replayed, 0u);  // the v2 write replays on top
  EXPECT_EQ(report.chunks_lost, 0u);

  Shadow shadow;
  shadow["/c0"] = {id, {v2a, v1b}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, MidScrubCrashRecoversConsistently) {
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId keep = MakeFile(rig, clock, "/s0", 2);
  const store::FileId gone = MakeFile(rig, clock, "/s1", 1);
  const auto a = Pattern(60), b = Pattern(61), g = Pattern(62);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, keep, 0, a).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, keep, 1, b).ok());
  ASSERT_TRUE(WriteChunk(rig.client(), clock, gone, 0, g).ok());
  ASSERT_TRUE(rig.client().Unlink(clock, gone).ok());

  rig.store.wal()->CrashAtPoint(CrashPoint::kMidScrub);
  rig.store.manager().ScrubOnce(clock);  // freezes between its two passes
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.files_recovered, 1u);  // the unlink was durable

  Shadow shadow;
  shadow["/s0"] = {keep, {a, b}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(CrashMatrix, PreparedButUnwrittenCowRollsBack) {
  // A COW prepare whose fresh version never received any data (the
  // manager died between handing out the write location and the client's
  // transfer): the durable slot names version v+1 with no checksum and no
  // replica storing anything.  Recovery must roll the slot back to the
  // shared previous version — readers keep the old bytes; nothing is
  // lost.
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/w0", 1);
  const auto old_bytes = Pattern(70);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, old_bytes).ok());

  // Share the chunk with a checkpoint link so the next prepare COWs.
  store::StoreClient& c = rig.client();
  auto ckpt = c.Create(clock, "/w0.ckpt");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(c.LinkFileChunks(clock, *ckpt, id).ok());

  auto loc = rig.store.manager().PrepareWrite(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_GT(loc->key.version, 0u);  // it really was a COW prepare

  rig.store.KillManager();  // dies before any data or completion
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.cow_rolled_back, 1u);
  EXPECT_EQ(report.chunks_lost, 0u);

  Shadow shadow;
  shadow["/w0"] = {id, {old_bytes}};
  shadow["/w0.ckpt"] = {*ckpt, {old_bytes}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

// ---------------------------------------------------------------------------
// Erasure stripes: commit-at-completion crash semantics
// ---------------------------------------------------------------------------

// RS(4,2) crash rig: six benefactors on six nodes, WAL on.
struct EcRig {
  net::Cluster cluster;
  store::AggregateStore store;

  EcRig() : cluster(MakeCluster()), store(cluster, MakeStore()) {}

  static net::ClusterConfig MakeCluster() {
    net::ClusterConfig cc;
    cc.num_nodes = 7;
    return cc;
  }
  static store::AggregateStoreConfig MakeStore() {
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 1;
    sc.store.redundancy = store::RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
    sc.store.wal = true;
    sc.store.wal_segment_bytes = 4_KiB;
    for (int b = 0; b < 6; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    return sc;
  }

  store::StoreClient& client() { return store.ClientForNode(0); }
};

TEST(CrashMatrix, EcStripeTornBetweenEncodeAndCommitRollsBack) {
  // The manager dies between the fragment encode (all six fragments of
  // the fresh COW version already landed on the benefactors) and the
  // stripe's completion record.  An uncommitted stripe could straddle
  // write generations, so recovery must roll the slot back to the
  // previous committed version — the chunk reads its old bytes, never a
  // splice — and the torn generation's fragments die as orphans.
  EcRig rig;
  sim::VirtualClock clock(0);
  auto idr = rig.client().Create(clock, "/ec0");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kChunk).ok());
  const store::FileId id = *idr;
  const auto old_bytes = Pattern(90);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, old_bytes).ok());

  // Share the stripe with a checkpoint link so the next write COWs.
  auto ckpt = rig.client().Create(clock, "/ec0.ckpt");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(rig.client().LinkFileChunks(clock, *ckpt, id).ok());

  auto loc = rig.store.manager().PrepareWrite(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(loc->ec);
  EXPECT_GT(loc->key.version, 0u);  // it really was a COW prepare
  ASSERT_EQ(loc->benefactors.size(), 6u);

  // Encode and land every fragment of the new generation by hand; the
  // completion record never happens.
  const auto new_bytes = Pattern(91);
  store::ErasureCodec codec(4, 2);
  std::vector<std::span<const uint8_t>> frags = codec.DataFragments(new_bytes);
  const auto parity = codec.EncodeParity(frags);
  frags.insert(frags.end(), parity.begin(), parity.end());
  Bitmap frag_pages(frags[0].size() / rig.client().config().page_bytes);
  frag_pages.SetAll();
  for (size_t pos = 0; pos < frags.size(); ++pos) {
    const int bid = loc->benefactors[pos];
    const uint32_t crc = Crc32c(frags[pos].data(), frags[pos].size());
    ASSERT_TRUE(rig.store.benefactor(static_cast<size_t>(bid))
                    .WritePages(clock, loc->key, frag_pages, frags[pos], &crc)
                    .ok());
  }

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.cow_rolled_back, 1u);
  EXPECT_EQ(report.chunks_lost, 0u);
  // The rolled-back generation's six fragments die in recovery's own
  // orphan sweep.
  EXPECT_EQ(report.orphans_deleted, 6u);

  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), old_bytes.data(), kChunk));
  ASSERT_TRUE(rig.client().ReadChunk(clock, *ckpt, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), old_bytes.data(), kChunk));

  // The accounting settled at exactly one stripe — one fragment's
  // reservation per benefactor — with nothing left for a scrub to fix.
  auto scrub = rig.store.manager().ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
  const uint64_t frag = rig.store.manager().config().ec_frag_bytes();
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(rig.store.benefactor(b).bytes_used(), frag)
        << "benefactor " << b;
  }
}

TEST(CrashMatrix, EcRewriteCompletedOnBenefactorsAdoptsFragmentChecksums) {
  // The in-place analog of MidCompletionBatchAdoptsChecksumsFromReplicas:
  // a full-stripe rewrite replaced all six fragments on the benefactors,
  // then the completion record (the authoritative per-fragment checksums)
  // died with the crash.  Every stored fragment carries a write-time
  // checksum and none matches the durable stripe — the new generation is
  // complete, and recovery adopts it rather than destroying it.  The
  // adopted full-image authority must equal the checksum of the bytes the
  // client wrote (it is combined from the data fragments' checksums).
  EcRig rig;
  sim::VirtualClock clock(0);
  auto idr = rig.client().Create(clock, "/ec1");
  ASSERT_TRUE(idr.ok());
  ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kChunk).ok());
  const store::FileId id = *idr;
  const auto v1 = Pattern(92);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v1).ok());

  rig.store.wal()->CrashAfterAppends(1, 0);  // tear the next completion
  const auto v2 = Pattern(93);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, v2).ok());
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.crc_adopted, 1u);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.replicas_dropped, 0u);

  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), v2.data(), kChunk));

  auto loc = rig.store.manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  uint32_t auth = 0;
  ASSERT_TRUE(rig.store.manager().LookupChecksum(loc->key, &auth));
  EXPECT_EQ(auth, Crc32c(v2.data(), v2.size()));
}

TEST(CrashMatrix, EcWindowMidBatchLeavesEveryStripeOldOrNew) {
  // An erasure-coded flush window lands every fragment of every stripe,
  // then the WAL freezes at the window's completion entry (kMidBatch).
  // Whether the stripes were rewritten in place or COW'd away from a
  // checkpoint, each must read back as entirely its old bytes or entirely
  // its new ones — never a splice of two generations.
  constexpr uint32_t kStripes = 4;
  for (bool cow : {false, true}) {
    SCOPED_TRACE(cow ? "COW window" : "in-place window");
    EcRig rig;
    sim::VirtualClock clock(0);
    auto idr = rig.client().Create(clock, "/ecw");
    ASSERT_TRUE(idr.ok());
    ASSERT_TRUE(rig.client().Fallocate(clock, *idr, kStripes * kChunk).ok());
    const store::FileId id = *idr;
    std::vector<std::vector<uint8_t>> v1, v2;
    for (uint32_t i = 0; i < kStripes; ++i) {
      v1.push_back(Pattern(100 + i));
      v2.push_back(Pattern(110 + i));
    }
    const uint64_t page = rig.client().config().page_bytes;
    std::vector<Bitmap> dirty(kStripes, Bitmap(kChunk / page));
    std::vector<store::StoreClient::ChunkWrite> writes(kStripes);
    for (uint32_t i = 0; i < kStripes; ++i) {
      dirty[i].SetAll();
      writes[i].index = i;
      writes[i].dirty = &dirty[i];
      writes[i].image = {v1[i].data(), kChunk};
    }
    ASSERT_TRUE(rig.client().WriteChunks(clock, id, writes).ok());
    if (cow) {
      auto ckpt = rig.client().Create(clock, "/ecw.ckpt");
      ASSERT_TRUE(ckpt.ok());
      ASSERT_TRUE(rig.client().LinkFileChunks(clock, *ckpt, id).ok());
    }

    rig.store.wal()->CrashAtPoint(CrashPoint::kMidBatch);
    for (uint32_t i = 0; i < kStripes; ++i) {
      writes[i].image = {v2[i].data(), kChunk};
    }
    ASSERT_TRUE(rig.client().WriteChunks(clock, id, writes).ok());
    ASSERT_TRUE(rig.store.wal()->crashed());

    rig.store.KillManager();
    auto report = rig.store.RestartManager(clock);
    EXPECT_EQ(report.chunks_lost, 0u);
    // Every fragment of the in-place rewrite is new, so recovery adopts
    // the new generation; the COW versions never committed and roll back.
    EXPECT_EQ(report.crc_adopted, cow ? 0u : kStripes);
    EXPECT_EQ(report.cow_rolled_back, cow ? kStripes : 0u);
    std::vector<uint8_t> buf(kChunk);
    for (uint32_t i = 0; i < kStripes; ++i) {
      ASSERT_TRUE(rig.client().ReadChunk(clock, id, i, buf).ok())
          << "stripe " << i;
      const bool old_bytes = buf == v1[i];
      const bool new_bytes = buf == v2[i];
      EXPECT_TRUE(old_bytes || new_bytes) << "stripe " << i << " is a splice";
      EXPECT_EQ(new_bytes, !cow) << "stripe " << i;
    }
  }
}

// A store of `chunks` chunks holding Pattern(200 + i), shared with a
// checkpoint, then a window rewriting one page of every chunk (new bytes
// Pattern(300 + i) on that page) after `arm` armed the crash.  Returns the
// ids of the live file and the checkpoint; `v1`/`v2` get each chunk's old
// and new bytes.
template <typename R>
std::pair<store::FileId, store::FileId> CrashCowWindow(
    R& rig, sim::VirtualClock& clock, uint32_t chunks,
    const std::function<void()>& arm, std::vector<std::vector<uint8_t>>& v1,
    std::vector<std::vector<uint8_t>>& v2) {
  store::StoreClient& c = rig.client();
  auto id = c.Create(clock, "/cw");
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  const uint64_t page = c.config().page_bytes;
  std::vector<Bitmap> dirty(chunks, Bitmap(kChunk / page));
  std::vector<Bitmap> valid(chunks, Bitmap(kChunk / page));
  std::vector<store::StoreClient::ChunkWrite> writes(chunks);
  for (uint32_t i = 0; i < chunks; ++i) {
    v1.push_back(Pattern(200 + i));
    EXPECT_TRUE(WriteChunk(c, clock, *id, i, v1[i]).ok());
    v2.push_back(v1[i]);
    const auto fresh = Pattern(300 + i);
    const size_t p = 3 + 4 * i;  // a page of data position i
    std::copy(fresh.begin() + p * page, fresh.begin() + (p + 1) * page,
              v2[i].begin() + p * page);
    dirty[i].Set(p);
    valid[i].SetAll();
    writes[i].index = i;
    writes[i].dirty = &dirty[i];
    writes[i].valid = &valid[i];
    writes[i].image = v2[i];
  }
  auto ckpt = c.Create(clock, "/cw.ckpt");
  EXPECT_TRUE(ckpt.ok());
  EXPECT_TRUE(c.LinkFileChunks(clock, *ckpt, *id).ok());
  arm();
  EXPECT_TRUE(c.WriteChunks(clock, *id, writes).ok());
  EXPECT_TRUE(rig.store.wal()->crashed());
  return {*id, *ckpt};
}

// Every chunk of `id` reads back as its old bytes or its new ones; the
// checkpoint reads its old ones.  Returns how many read new.
template <typename R>
size_t ExpectOldOrNew(R& rig, sim::VirtualClock& clock, store::FileId id,
                      store::FileId ckpt,
                      const std::vector<std::vector<uint8_t>>& v1,
                      const std::vector<std::vector<uint8_t>>& v2) {
  std::vector<uint8_t> buf(kChunk);
  size_t fresh = 0;
  for (uint32_t i = 0; i < v1.size(); ++i) {
    EXPECT_TRUE(rig.client().ReadChunk(clock, id, i, buf).ok()) << i;
    EXPECT_TRUE(buf == v1[i] || buf == v2[i]) << "chunk " << i << " mixed";
    if (buf == v2[i]) ++fresh;
    EXPECT_TRUE(rig.client().ReadChunk(clock, ckpt, i, buf).ok()) << i;
    EXPECT_EQ(buf, v1[i]) << "checkpoint chunk " << i;
  }
  return fresh;
}

TEST(CrashMatrix, TornGroupedCowSwapWriteLeavesEverySlotOldOrNew) {
  // A four-chunk COW window journals its swaps as one WAL write, and the
  // crash tears that write at its second record: the first swap is
  // durable, the second torn, the last two (and the completion) never
  // reach the device.  After recovery every slot reads its old or its
  // new bytes.  A replicated slot whose swap survived keeps the new bytes
  // its replicas agree on; an erasure stripe commits only at its
  // completion record, so it rolls back.
  constexpr uint32_t kChunks = 4;
  for (const bool ec : {false, true}) {
    SCOPED_TRACE(ec ? "RS(4,2)" : "replication 2");
    sim::VirtualClock clock(0);
    std::vector<std::vector<uint8_t>> v1, v2;
    const auto run = [&](auto& rig) {
      const auto arm = [&] { rig.store.wal()->CrashAfterAppends(2, 0); };
      const auto [id, ckpt] = CrashCowWindow(rig, clock, kChunks, arm, v1, v2);
      rig.store.KillManager();
      auto report = rig.store.RestartManager(clock);
      EXPECT_TRUE(report.torn_tail);
      EXPECT_EQ(report.chunks_lost, 0u);
      EXPECT_EQ(report.cow_rolled_back, ec ? 1u : 0u);
      EXPECT_EQ(ExpectOldOrNew(rig, clock, id, ckpt, v1, v2), ec ? 0u : 1u);
    };
    if (ec) {
      EcRig rig;
      run(rig);
    } else {
      Rig rig;
      run(rig);
    }
  }
}

TEST(CrashMatrix, TornCowEcWindowRollsEveryStripeBack) {
  // A COW window of one-page stripe updates is torn twice over: a holder
  // dies after merging two of its four fragments, and the manager dies
  // before the window's completion record.  The fresh versions hold
  // merged fragments on some holders and none on others; recovery rolls
  // every stripe back to the shared version — never a splice, never
  // zeros — and the merged fragments die as orphans.
  constexpr uint32_t kStripes = 4;
  EcRig rig;
  sim::VirtualClock clock(0);
  std::vector<std::vector<uint8_t>> v1, v2;
  store::Benefactor& dying = rig.store.benefactor(3);
  const auto arm = [&] {
    dying.KillAfterWrites(2);
    rig.store.wal()->CrashAtPoint(CrashPoint::kMidBatch);
  };
  const auto [id, ckpt] = CrashCowWindow(rig, clock, kStripes, arm, v1, v2);
  EXPECT_FALSE(dying.alive());
  dying.Revive();

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  EXPECT_EQ(report.cow_rolled_back, kStripes);
  // Two stripes landed all six merged fragments, two only five.
  EXPECT_EQ(report.orphans_deleted, 2 * 6u + 2 * 5u);
  EXPECT_EQ(ExpectOldOrNew(rig, clock, id, ckpt, v1, v2), 0u);

  auto scrub = rig.store.manager().ScrubOnce(clock);
  EXPECT_EQ(scrub.orphans_deleted, 0u);
  EXPECT_EQ(scrub.reservation_fixes, 0u);
  const uint64_t frag = rig.store.manager().config().ec_frag_bytes();
  for (size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(rig.store.benefactor(b).bytes_used(), kStripes * frag)
        << "benefactor " << b;
  }
}

// ---------------------------------------------------------------------------
// Quarantine ordering regression (log-before-publish)
// ---------------------------------------------------------------------------

TEST(Regression, QuarantineCrashNeverResurrectsTheCorruptReplica) {
  // A read detects a corrupt replica and quarantines it.  The WAL is
  // armed to freeze on the very next append — the quarantine's own
  // publish record, which tears mid-frame.  Because the quarantine logs
  // BEFORE it deletes the replica's data, the recovered store may at
  // worst still name the (now empty) benefactor as sparse — it can never
  // serve the corrupt bytes, and the good replica always survives.
  Rig rig;
  sim::VirtualClock clock(0);
  const store::FileId id = MakeFile(rig, clock, "/q0", 1);

  auto loc = rig.store.manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  ASSERT_EQ(loc->benefactors.size(), 2u);
  const int bad = loc->benefactors[0];  // reads try the list in order
  const int good = loc->benefactors[1];

  // Arm write-time bit rot on the first-tried replica only.
  rig.store.benefactor(static_cast<size_t>(bad)).CorruptAfterWrites(1, 0x0b5e);
  const auto data = Pattern(80);
  ASSERT_TRUE(WriteChunk(rig.client(), clock, id, 0, data).ok());
  rig.store.benefactor(static_cast<size_t>(bad)).CorruptAfterWrites(0, 0);
  ASSERT_GT(rig.store.benefactor(static_cast<size_t>(bad)).bitrot_flips(), 0u);

  rig.store.wal()->CrashAfterAppends(1, 0);  // tear the quarantine publish
  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));  // failover won
  EXPECT_EQ(rig.client().corrupt_failovers(), 1u);
  ASSERT_TRUE(rig.store.wal()->crashed());

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.chunks_lost, 0u);

  // The good replica must be in the recovered list; the quarantined one
  // (whose data the pre-crash manager already deleted) must not serve.
  auto after = rig.store.manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after->benefactors.empty());
  EXPECT_TRUE(std::find(after->benefactors.begin(), after->benefactors.end(),
                        good) != after->benefactors.end());
  ASSERT_TRUE(rig.client().ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));

  // Heal back to full replication, then the whole sweep must pass.
  uint64_t lost = 0;
  ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost).ok());
  EXPECT_EQ(lost, 0u);
  Shadow shadow;
  shadow["/q0"] = {id, {data}};
  ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow));
  ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, /*expect_full=*/true));
}

TEST(Regression, CompletionLogsOnlyDurableChecksumTransitions) {
  // Completions that change nothing durable (no checksum before or
  // after) must not append; setting and erasing the authoritative
  // checksum must, and the erase must survive a crash.
  Rig rig;
  sim::VirtualClock clock(0);
  store::Manager& m = rig.store.manager();
  auto id = m.CreateFile(clock, "/n0");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(m.Fallocate(clock, *id, kChunk).ok());
  auto loc = m.PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc.ok());

  WalStore* wal = rig.store.wal();
  const uint64_t base = wal->appends();
  m.CompleteWrites(clock, {&*loc, 1});  // never had a crc: no-op
  EXPECT_EQ(wal->appends(), base);

  uint32_t crc = 0x1234abcd;
  auto loc2 = m.PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc2.ok());
  m.CompleteWrites(clock, {&*loc2, 1}, {&crc, 1});  // crc set: logged
  EXPECT_EQ(wal->appends(), base + 1);

  auto loc3 = m.PrepareWrite(clock, *id, 0);
  ASSERT_TRUE(loc3.ok());
  m.CompleteWrites(clock, {&*loc3, 1});  // crc ERASED: logged
  EXPECT_EQ(wal->appends(), base + 2);

  rig.store.KillManager();
  auto report = rig.store.RestartManager(clock);
  EXPECT_EQ(report.chunks_lost, 0u);
  uint32_t got = 0;
  EXPECT_FALSE(rig.store.manager().LookupChecksum(loc3->key, &got))
      << "the checksum erase must be durable";
}

// ---------------------------------------------------------------------------
// Seeded randomized kill schedule
// ---------------------------------------------------------------------------

struct InFlight {
  enum Kind { kNone, kCreate, kWrite, kLink, kUnlink } kind = kNone;
  std::string name;     // target file (kLink: the new checkpoint file)
  std::string src;      // kLink: the linked source file
  uint32_t chunks = 0;  // kCreate/kLink: expected chunk count
  uint32_t chunk = 0;   // kWrite: chunk index
  std::vector<uint8_t> old_bytes, new_bytes;  // kWrite
};

// Probe the one op that was in flight when the WAL froze and fold the
// observed outcome back into the shadow.  Acceptable outcomes are the old
// state, the new state, or (for write/unlink targets) lost chunks that
// refuse to read — anything else is a correctness failure.
void ProbeInFlight(Rig& rig, sim::VirtualClock& clock, Shadow& shadow,
                   const InFlight& op) {
  store::Manager& m = rig.store.manager();
  store::StoreClient& c = rig.client();
  std::vector<uint8_t> buf(kChunk);
  switch (op.kind) {
    case InFlight::kNone:
      break;
    case InFlight::kCreate: {
      auto id = m.LookupFile(clock, op.name);
      if (!id.ok()) break;  // the create never became durable
      auto info = m.Stat(clock, *id);
      ASSERT_TRUE(info.ok());
      if (info->num_chunks != op.chunks) {
        // Torn between create and extend: an empty file is the only other
        // durable state.  Drop it to keep the shadow simple.
        ASSERT_EQ(info->num_chunks, 0u) << op.name;
        ASSERT_TRUE(c.Unlink(clock, *id).ok());
        break;
      }
      ShadowFile f;
      f.id = *id;
      for (uint32_t i = 0; i < op.chunks; ++i) {
        auto st = c.ReadChunk(clock, *id, i, buf);
        if (!st.ok()) {  // a lost never-written chunk: drop the file
          ASSERT_TRUE(c.Unlink(clock, *id).ok());
          return;
        }
        ASSERT_TRUE(std::all_of(buf.begin(), buf.end(),
                                [](uint8_t v) { return v == 0; }))
            << op.name << " chunk " << i << " has bytes before any write";
        f.chunks.emplace_back(buf);  // sparse chunks read zeros
      }
      shadow[op.name] = std::move(f);
      break;
    }
    case InFlight::kLink: {
      auto id = m.LookupFile(clock, op.name);
      if (!id.ok()) break;  // create or link never became durable
      auto info = m.Stat(clock, *id);
      ASSERT_TRUE(info.ok());
      if (info->num_chunks == op.chunks) {
        // The link was durable: it serves the source's committed bytes.
        ASSERT_TRUE(shadow.contains(op.src));
        shadow[op.name] = {*id, shadow[op.src].chunks};
      } else {
        ASSERT_EQ(info->num_chunks, 0u) << op.name;
        ASSERT_TRUE(c.Unlink(clock, *id).ok());
      }
      break;
    }
    case InFlight::kWrite: {
      auto it = shadow.find(op.name);
      ASSERT_NE(it, shadow.end());
      auto st = c.ReadChunk(clock, it->second.id, op.chunk, buf);
      if (!st.ok()) {
        // The in-flight chunk came back with no recoverable replica:
        // surfaced as lost, never as wrong bytes.  Drop the file.
        ASSERT_TRUE(c.Unlink(clock, it->second.id).ok());
        shadow.erase(it);
        break;
      }
      const bool is_old =
          std::memcmp(buf.data(), op.old_bytes.data(), kChunk) == 0;
      const bool is_new =
          std::memcmp(buf.data(), op.new_bytes.data(), kChunk) == 0;
      ASSERT_TRUE(is_old || is_new)
          << op.name << " chunk " << op.chunk
          << " recovered to bytes that are neither the old nor new write";
      it->second.chunks[op.chunk] = is_new ? op.new_bytes : op.old_bytes;
      break;
    }
    case InFlight::kUnlink: {
      auto id = m.LookupFile(clock, op.name);
      if (id.ok()) {
        // Torn unlink: the file survives durably but the pre-crash manager
        // already freed its data — chunks either read the committed bytes
        // or are lost.  Either way, finish the unlink.
        const auto& f = shadow.find(op.name)->second;
        for (uint32_t i = 0; i < f.chunks.size(); ++i) {
          auto st = c.ReadChunk(clock, *id, i, buf);
          if (st.ok()) {
            ASSERT_EQ(0, std::memcmp(buf.data(), f.chunks[i].data(), kChunk))
                << op.name << " chunk " << i;
          }
        }
        ASSERT_TRUE(c.Unlink(clock, *id).ok());
      }
      shadow.erase(op.name);
      break;
    }
  }
}

void RunKillSchedule(uint64_t seed) {
  Rig rig([](store::StoreConfig& s) { s.meta_shards = 2; });
  sim::VirtualClock clock(0);
  Xoshiro256 rng(seed);
  Shadow shadow;
  uint64_t next_name = 0;
  uint64_t crashes = 0;
  constexpr int kOps = 120;
  constexpr size_t kMaxFiles = 4;
  constexpr uint32_t kMaxChunks = 3;

  auto arm = [&] {
    rig.store.wal()->CrashAfterAppends(6 + rng.NextBelow(25), rng.Next());
  };
  auto pick = [&]() -> std::string {
    auto it = shadow.begin();
    std::advance(it, static_cast<long>(rng.NextBelow(shadow.size())));
    return it->first;
  };

  arm();
  for (int op = 0; op < kOps; ++op) {
    InFlight fl;
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 20 || shadow.empty()) {
      if (shadow.size() < kMaxFiles) {
        fl.kind = InFlight::kCreate;
        fl.name = "/k" + std::to_string(next_name++);
        fl.chunks = 1 + static_cast<uint32_t>(rng.NextBelow(kMaxChunks));
        store::StoreClient& c = rig.client();
        auto id = c.Create(clock, fl.name);
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(c.Fallocate(clock, *id, fl.chunks * kChunk).ok());
        if (!rig.store.wal()->crashed()) {
          ShadowFile f;
          f.id = *id;
          f.chunks.assign(fl.chunks, std::vector<uint8_t>(kChunk, 0));
          shadow[fl.name] = std::move(f);
        }
      }
    } else if (dice < 60) {
      fl.kind = InFlight::kWrite;
      fl.name = pick();
      ShadowFile& f = shadow[fl.name];
      fl.chunk = static_cast<uint32_t>(rng.NextBelow(f.chunks.size()));
      fl.old_bytes = f.chunks[fl.chunk];
      fl.new_bytes = Pattern(rng.Next());
      ASSERT_TRUE(
          WriteChunk(rig.client(), clock, f.id, fl.chunk, fl.new_bytes).ok());
      if (!rig.store.wal()->crashed()) f.chunks[fl.chunk] = fl.new_bytes;
    } else if (dice < 70) {
      // Checkpoint-link a file: shares every chunk handle, so later
      // writes to the source COW and crashes can land mid-swap.
      if (shadow.size() < kMaxFiles) {
        fl.kind = InFlight::kLink;
        fl.src = pick();
        fl.name = fl.src + ".l" + std::to_string(next_name++);
        fl.chunks = static_cast<uint32_t>(shadow[fl.src].chunks.size());
        store::StoreClient& c = rig.client();
        auto id = c.Create(clock, fl.name);
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(c.LinkFileChunks(clock, *id, shadow[fl.src].id).ok());
        if (!rig.store.wal()->crashed()) {
          shadow[fl.name] = {*id, shadow[fl.src].chunks};
        }
      }
    } else if (dice < 85) {
      const std::string name = pick();
      ShadowFile& f = shadow[name];
      const uint32_t i = static_cast<uint32_t>(rng.NextBelow(f.chunks.size()));
      std::vector<uint8_t> buf(kChunk);
      ASSERT_TRUE(rig.client().ReadChunk(clock, f.id, i, buf).ok());
      ASSERT_EQ(0, std::memcmp(buf.data(), f.chunks[i].data(), kChunk))
          << name << " chunk " << i << " at op " << op;
    } else {
      fl.kind = InFlight::kUnlink;
      fl.name = pick();
      ASSERT_TRUE(rig.client().Unlink(clock, shadow[fl.name].id).ok());
      if (!rig.store.wal()->crashed()) shadow.erase(fl.name);
    }

    if (op % 25 == 24 && !rig.store.wal()->crashed()) {
      rig.store.manager().Checkpoint(clock);
    }

    if (rig.store.wal()->crashed()) {
      ++crashes;
      // The shadow still reflects the last op completed BEFORE the freeze
      // (the crashing op's shadow update was skipped above); `fl` is the
      // single uncertain op.
      rig.store.KillManager();
      rig.store.RestartManager(clock);
      ASSERT_NO_FATAL_FAILURE(ProbeInFlight(rig, clock, shadow, fl))
          << "seed " << seed << " op " << op;
      // Every OTHER file must come back exactly; divergent replicas the
      // reconciliation dropped leave some chunks under-replicated, so
      // heal first, then demand the FULL invariant set.
      uint64_t lost = 0;
      ASSERT_TRUE(rig.store.manager().RepairReplication(clock, &lost).ok());
      EXPECT_EQ(lost, 0u) << "seed " << seed << " op " << op;
      ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow))
          << "seed " << seed << " op " << op;
      ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, true))
          << "seed " << seed << " op " << op;
      arm();
    } else if (op % 10 == 9) {
      ASSERT_NO_FATAL_FAILURE(ExpectBytes(rig, clock, shadow)) << "op " << op;
      ASSERT_NO_FATAL_FAILURE(CheckInvariants(rig, shadow, true))
          << "op " << op;
    }
  }

  EXPECT_GE(crashes, 2u) << "seed " << seed
                         << ": the kill schedule never actually fired";

  // Teardown: the store must drain to empty through the fresh manager.
  rig.store.wal()->CrashAfterAppends(0, 0);  // disarm
  while (!shadow.empty()) {
    ASSERT_TRUE(rig.client().Unlink(clock, shadow.begin()->second.id).ok());
    shadow.erase(shadow.begin());
  }
  for (int b = 0; b < kBenefactors; ++b) {
    store::Benefactor& ben = rig.store.benefactor(static_cast<size_t>(b));
    EXPECT_EQ(ben.num_chunks(), 0u) << b;
    EXPECT_EQ(ben.bytes_used(), 0u) << b;
  }
}

TEST(CrashSchedule, SeededRandomKillsRecoverEveryTime) {
  RunKillSchedule(0x5eed0001);
}
TEST(CrashSchedule, SeededRandomKillsRecoverEveryTimeSecondSeed) {
  RunKillSchedule(0xfeedbee5);
}
TEST(CrashSchedule, SeededRandomKillsRecoverEveryTimeThirdSeed) {
  RunKillSchedule(42);
}

// ---------------------------------------------------------------------------
// wal=off identity
// ---------------------------------------------------------------------------

struct IdentityRun {
  int64_t final_ns = 0;
  uint64_t appends = 0;
  std::map<std::string, std::vector<std::vector<uint8_t>>> bytes;
};

IdentityRun RunIdentitySequence(bool wal_on) {
  IdentityRun out;
  Rig rig([wal_on](store::StoreConfig& s) { s.wal = wal_on; });
  EXPECT_EQ(rig.store.wal() != nullptr, wal_on);
  sim::VirtualClock clock(0);
  store::StoreClient& c = rig.client();
  Xoshiro256 rng(0x1de27171);

  std::map<std::string, store::FileId> ids;
  std::map<std::string, std::vector<std::vector<uint8_t>>> files;
  for (int f = 0; f < 3; ++f) {
    const std::string name = "/id" + std::to_string(f);
    auto id = c.Create(clock, name);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(c.Fallocate(clock, *id, 2 * kChunk).ok());
    ids[name] = *id;
    files[name] = {Pattern(rng.Next()), Pattern(rng.Next())};
    for (uint32_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(WriteChunk(c, clock, *id, i, files[name][i]).ok());
    }
  }
  // A link + COW overwrite + an unlink, so the sequence touches every
  // record-producing path.
  auto link = c.Create(clock, "/id0.ckpt");
  EXPECT_TRUE(link.ok());
  EXPECT_TRUE(c.LinkFileChunks(clock, *link, ids["/id0"]).ok());
  ids["/id0.ckpt"] = *link;
  files["/id0.ckpt"] = files["/id0"];
  files["/id0"][0] = Pattern(rng.Next());
  EXPECT_TRUE(WriteChunk(c, clock, ids["/id0"], 0, files["/id0"][0]).ok());
  EXPECT_TRUE(c.Unlink(clock, ids["/id2"]).ok());
  ids.erase("/id2");
  files.erase("/id2");

  std::vector<uint8_t> buf(kChunk);
  for (const auto& [name, chunks] : files) {
    auto& got = out.bytes[name];
    for (uint32_t i = 0; i < chunks.size(); ++i) {
      EXPECT_TRUE(c.ReadChunk(clock, ids[name], i, buf).ok());
      got.emplace_back(buf);
    }
  }
  out.final_ns = clock.now();
  out.appends = wal_on ? rig.store.wal()->appends() : 0;
  return out;
}

TEST(WalOffIdentity, WalOffMatchesWalOnBytesAndCostsStrictlyLess) {
  const IdentityRun off = RunIdentitySequence(false);
  const IdentityRun off2 = RunIdentitySequence(false);
  const IdentityRun on = RunIdentitySequence(true);

  // wal=off is deterministic and bit-identical to itself...
  EXPECT_EQ(off.final_ns, off2.final_ns);
  EXPECT_EQ(off.bytes, off2.bytes);
  // ...and the WAL changes durability cost, never content.
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_GT(on.appends, 0u);
  EXPECT_GT(on.final_ns, off.final_ns)
      << "metadata durability must have a nonzero virtual-time cost";
}

}  // namespace
}  // namespace nvm
