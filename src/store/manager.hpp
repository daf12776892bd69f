// Manager process of the aggregate NVM store.
//
// The manager owns all metadata: the benefactor registry (with liveness),
// per-file chunk maps, striping, space accounting, chunk refcounts (for
// checkpoint linking), and copy-on-write version management.  Data never
// flows through the manager — clients look up locations here and then talk
// to benefactors directly, exactly as in the paper.
//
// Concurrency model (the metadata plane is sharded; see DESIGN.md
// "metadata sharding & lock-free resolves"):
//
//   * The chunk namespace is partitioned into config.meta_shards
//     independent shards by splitmix64 hash of ChunkKey.  Each MetaShard
//     owns its slice of the chunk table (location lists, refcounts, repair
//     epochs, checksums), the in-flight-writer fences, the reserved repair
//     targets and the verify-scrub cursor, all behind its own mutex.
//   * Every chunk has ONE authoritative home — a ChunkHandle shared by all
//     referencing file slots — and its replica list is an atomically-
//     swapped immutable snapshot: stores happen only under the owning
//     shard's mutex (publish-on-commit), loads are lock-free.  The read-
//     resolve fast path (GetReadLocations) therefore takes NO shard lock.
//   * Cross-shard lock sets (CompleteWrites over a flush window, the COW
//     old/new pair of a prepare, the scrubber's stop-the-world pass,
//     Decommission's retire pass) are always acquired in ascending
//     shard-index order — the same deadlock-free discipline as
//     ChunkCache::FlushFileWindow.
//   * Lock hierarchy (acquire strictly left to right; ns_mu_ is never held
//     across a file or shard acquisition):
//       file mu  ->  shard mu (ascending)  ->  reg_mu_ / benefactor
//     ns_mu_ guards only the name map and file table and is released
//     before any other lock is taken (CreateFile additionally takes
//     reg_mu_ shared inside it, which nothing else nests the other way).
//
// Every operation charges a modelled metadata service time to the caller's
// virtual clock via a per-shard sim::Resource lane (file-addressed ops use
// the file's lane, key-addressed ops the key's shard lane), so manager
// contention shows up in benchmark results — and stops being a single
// serial timeline once meta_shards > 1.  With meta_shards == 1 every op
// lands on lane 0 and the manager behaves exactly like the pre-shard,
// single-mutex implementation.  Network cost for reaching the manager is
// charged by StoreClient, not here.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "net/cluster.hpp"
#include "sim/resource.hpp"
#include "store/benefactor.hpp"
#include "store/placement.hpp"
#include "store/recovery.hpp"
#include "store/types.hpp"
#include "store/wal.hpp"

namespace nvm::store {

class MaintenanceService;

// Location info for reading one chunk.  For a replicated chunk
// `benefactors` lists replicas primary-first; for an erasure-coded chunk
// (`ec` set) it is the POSITIONAL fragment map — length k+m, entry i holds
// fragment i's benefactor id, -1 for a missing fragment.
struct ReadLocation {
  ChunkKey key;
  std::vector<int> benefactors;  // replicas, primary first (EC: positional)
  bool ec = false;
};

// One benefactor's slice of a batched read: the indices (into the caller's
// location array) of the chunks whose primary replica lives on
// `benefactor` — the unit of one Benefactor::ReadChunkRun RPC.
struct BenefactorRun {
  int benefactor = -1;
  std::vector<size_t> items;  // indices into the grouped span, input order
};

// Location info for writing one chunk.  If `needs_clone` is set the chunk
// is shared with a checkpoint: `key` is a fresh version, and every holder
// lands it as `clone_from`'s bytes with the write's dirty pages merged in
// (ChunkWriteItem::needs_clone).
struct WriteLocation {
  ChunkKey key;
  std::vector<int> benefactors;  // EC: positional fragment map, -1 missing
  bool needs_clone = false;
  bool ec = false;
  ChunkKey clone_from;
};

class Manager {
 public:
  // `wal` (optional, owned by the AggregateStore so it survives a manager
  // crash): when non-null every durable metadata mutation appends a
  // record there BEFORE publishing in memory, and Checkpoint()/Recover()
  // become functional.  Null keeps the manager byte- and virtual-time-
  // identical to the WAL-less implementation.
  Manager(net::Cluster& cluster, int manager_node, StoreConfig config,
          WalStore* wal = nullptr);

  const StoreConfig& config() const { return config_; }
  int node_id() const { return manager_node_; }
  size_t meta_shards() const { return meta_shards_; }
  WalStore* wal() { return wal_; }

  // --- pure grouping helpers (no locks, no manager state) ---
  //
  // Both operate on already-resolved location spans, so grouping a batch
  // for the run RPCs never re-enters any manager lock.

  // Group read locations by the benefactors a healthy read touches, for
  // the read run RPC: a replicated chunk joins the run of its primary
  // (first-listed) replica, an erasure-coded stripe the run of each of its
  // first `ec_k` (data) fragment holders.  Runs preserve input order; a
  // run holds at most `max_run` items (StoreConfig::max_run_chunks) and a
  // benefactor whose run is full starts a fresh one.  Runs are ordered by
  // their first item, so the result is deterministic for a given input —
  // and with max_run 1 it is the input order.  Locations with no
  // benefactor (unresolved/EOF) are skipped — callers read those chunk by
  // chunk — and so are holes (-1) in a fragment map.
  static std::vector<BenefactorRun> GroupReadsByBenefactor(
      std::span<const ReadLocation> locs, size_t ec_k, size_t max_run);

  // Group write locations by benefactor for the write-side run RPC.
  // Unlike the read-side grouping, a chunk appears in the run of EVERY
  // benefactor that holds a replica or a fragment of it (writes must
  // reach all of them, reads only one or k).  Holes (-1) in a fragment map
  // are skipped.  Run length, order and determinism as above.
  static std::vector<BenefactorRun> GroupByBenefactor(
      std::span<const WriteLocation> locs, size_t max_run);

  // --- benefactor registry ---

  // Takes shared ownership is not needed: benefactors outlive the manager
  // in AggregateStore (see store.hpp); raw pointers keep wiring simple.
  int RegisterBenefactor(Benefactor* benefactor);
  Benefactor* benefactor(int id);
  size_t num_benefactors() const;
  std::vector<int> AliveBenefactors() const;
  // Client-observed failure report.
  void MarkDead(int id);
  // Heartbeat sweep: polls every registered benefactor.  The pings fork a
  // clock per benefactor and join at the max, so the round-trips overlap
  // in flight (the manager CPU still serialises the sends through the
  // per-lane service resources) instead of queueing N full RTTs
  // end-to-end.  Returns the number found alive; `alive_out`, when given,
  // receives one flag per benefactor id.
  size_t CheckLiveness(sim::VirtualClock& clock,
                       std::vector<char>* alive_out = nullptr);

  // --- incremental repair engine ---
  //
  // A repair is split into three steps so chunk data never moves while any
  // shard mutex is held:
  //   PlanRepairs        (shard mu)  snapshot survivors, reclaim dead
  //                                  replicas, reserve targets
  //   ExecuteRepairPlan  (none)      copy the chunk survivor -> targets
  //   CommitRepair       (shard mu)  re-validate, publish the new replica
  //                                  list — or undo if the chunk changed
  // RepairReplication, Decommission and the background MaintenanceService
  // are all thin drivers over these steps.
  //
  // A retiring holder (Benefactor::Retire, set by Decommission) is still a
  // readable copy source but counts toward no chunk's redundancy: a chunk
  // it holds plans a replacement for it, and the commit that publishes the
  // replacement drops it from the list and releases its space.

  struct RepairPlan {
    ChunkKey key;
    std::vector<int> survivors;  // alive holders (retiring too), primary first
    std::vector<int> targets;    // reserved destinations
    uint64_t epoch = 0;          // repair epoch of `key` at plan time
    bool incomplete = false;     // alive capacity too low to fully heal
    // Authoritative checksum snapshot: the copy must come from a survivor
    // whose bytes verify against it — never from an unverified replica
    // while a verified one may exist.
    bool has_crc = false;
    uint32_t crc = 0;
    // Erasure-coded chunk: `survivors` is the POSITIONAL fragment map
    // (length k+m, -1 = missing), `targets[i]` is the reserved destination
    // for fragment position `target_positions[i]` (a hole, or a position a
    // retiring holder still fills), and `frag_crcs` (when has_crc)
    // snapshots the per-fragment authoritative checksums.
    bool ec = false;
    std::vector<uint32_t> target_positions;
    std::vector<uint32_t> frag_crcs;
  };
  struct RepairOutcome {
    RepairPlan plan;
    std::vector<int> written;  // targets now holding the data
    std::vector<int> failed;   // targets that died mid-copy
    // Survivors whose bytes failed checksum verification during the copy:
    // CommitRepair quarantines them (strips the replica, requeues).
    std::vector<int> corrupt_sources;
  };

  // Every distinct chunk key whose replica list names a dead or retiring
  // benefactor or is shorter than the replication factor (lost chunks
  // excluded).
  // Shards are visited one at a time; the result is sorted by key so it
  // does not depend on the shard count or hash iteration order.
  std::vector<ChunkKey> CollectUnderReplicated() const;
  // Every distinct chunk key with a replica on benefactor `id` (sorted).
  std::vector<ChunkKey> ChunksWithReplicasOn(int id) const;
  // Build repair plans for `keys`, each under its shard's mutex: strip
  // dead replicas from the metadata immediately (readers stop trying
  // them), reclaim their space, and reserve targets on the least-loaded
  // alive, non-retiring benefactors (capacity-aware placement) — one per
  // missing copy, counting a retiring holder's copy as missing.  A chunk
  // with no surviving replica is counted in *lost, its list emptied, and
  // no plan emitted; stale keys (freed or already healthy) are skipped.
  // WAL appends (lost / dead-strip publishes are logged) charge `clock`.
  std::vector<RepairPlan> PlanRepairs(sim::VirtualClock& clock,
                                      std::span<const ChunkKey> keys,
                                      uint64_t* lost = nullptr);
  // Copy the chunk from a surviving replica to every planned target,
  // charging `clock`; target copies fork clocks and join at the max.  An
  // EC target whose position a retiring holder still fills copies that
  // fragment verbatim; only holes cost a k-fragment rebuild.
  // Called WITHOUT any lock — this is the slow part.
  RepairOutcome ExecuteRepairPlan(sim::VirtualClock& clock,
                                  const RepairPlan& plan);
  // Publish the outcome under the key's shard mutex.  If the chunk was
  // rewritten or freed while the copy ran (its repair epoch moved, its
  // replica list changed, or a prepared write is still in flight — the
  // copy may miss bytes that land on a survivor only), the copied bytes
  // are stale: every target is undone and *requeue set so the caller can
  // retry.  *requeue is also set when fewer targets were published than
  // planned (no readable survivor, or a target died mid-copy) so the
  // chunk does not silently leave the repair queue while degraded.
  // Retiring holders leave the list once the rest meet the redundancy
  // target (EC: once a written target takes over their position): the
  // new list is logged and published first, then their space released.
  // Returns replicas recreated.
  uint64_t CommitRepair(sim::VirtualClock& clock,
                        const RepairOutcome& outcome,
                        bool* requeue = nullptr);

  // Repair replication after failures: for every chunk that lost replicas
  // to dead benefactors, re-copy the data from a surviving replica onto
  // healthy benefactors until the configured replication factor is met
  // again.  Synchronous, unthrottled driver over the engine above.
  // Returns the number of replicas recreated; chunks with no surviving
  // replica are counted in *lost (and in lost_chunks()).
  StatusOr<uint64_t> RepairReplication(sim::VirtualClock& clock,
                                       uint64_t* lost = nullptr);

  // One scrub pass reconciling metadata against benefactor state, with
  // EVERY shard mutex held (ascending — a stop-the-world metadata pass, no
  // data transfers): deletes stored chunks no file references any more
  // (orphans of failed repairs or unlinks against dead benefactors), fixes
  // reservation-accounting drift, and reports under-replicated chunks for
  // re-queueing.  Holding all shards makes the drift comparison race-free:
  // reservations only move under some shard mutex.  In-flight repair
  // targets (planned, not yet committed) are exempt from both the orphan
  // sweep and the drift accounting — a concurrent repair's copy
  // legitimately stores data the replica lists do not name yet.
  struct ScrubResult {
    uint64_t orphans_deleted = 0;
    uint64_t reservation_fixes = 0;  // chunk-slots corrected
    std::vector<ChunkKey> under_replicated;
  };
  ScrubResult ScrubOnce(sim::VirtualClock& clock);

  // --- checksum verification scrub ---
  //
  // Incremental sweep verifying stored chunk contents against the
  // manager's authoritative checksums, at most `max_bytes` of chunk data
  // per call; a per-shard cursor (shards visited in index order, sorted
  // keys within each shard) makes successive calls cover the whole store.
  // Three phases so no chunk data moves while any shard mutex is held:
  // snapshot a candidate batch (one shard mutex at a time), VerifyChunk
  // each replica benefactor-locally (no locks — only the verdict crosses
  // the network), then quarantine confirmed mismatches (shard mutex,
  // re-validating that no write or repair raced the verification).
  struct VerifyResult {
    uint64_t chunks_checked = 0;   // distinct keys visited
    uint64_t bytes_checked = 0;    // chunk bytes read + checksummed
    uint64_t corrupt_found = 0;    // replicas quarantined
    uint64_t skipped = 0;          // mismatches dropped: raced a write/repair
    bool wrapped = false;          // cursor passed the end of the keyspace
    // Quarantined keys that still have a verified survivor — hand these to
    // the repair queue for re-replication.
    std::vector<ChunkKey> quarantined;
  };
  VerifyResult VerifyScrub(sim::VirtualClock& clock, uint64_t max_bytes);

  // A reader saw a checksum mismatch on (key, bid): quarantine that
  // replica (strip it from the list, drop its data and space) and, when a
  // survivor remains, queue a repair.  Never called with a shard mutex
  // held.  The quarantine's WAL append charges `clock`.
  void ReportCorrupt(sim::VirtualClock& clock, const ChunkKey& key, int bid);

  // Corrupt replicas detected (read path + scrub, cumulative) and corrupt
  // chunks healed back to full replication by the repair engine.
  uint64_t corrupt_detected() const { return corrupt_detected_.value(); }
  uint64_t corrupt_repaired() const { return corrupt_repaired_.value(); }
  // Test hook: the authoritative checksum recorded for `key`, if any.
  bool LookupChecksum(const ChunkKey& key, uint32_t* crc) const;

  // Chunks that lost every replica to failures (cumulative).  An
  // erasure-coded chunk counts as lost when fewer than k fragments
  // survive — below that no reconstruction exists.
  uint64_t lost_chunks() const { return lost_chunks_.value(); }

  // --- erasure-coding accounting ---
  // Reads served by k-of-(k+m) reconstruction instead of the plain data
  // fragments (client-reported), fragments rebuilt by the repair engine,
  // and parity bytes written by clients (the redundancy overhead the
  // space/bandwidth reports attribute to EC).
  uint64_t ec_degraded_reads() const { return ec_degraded_reads_.value(); }
  uint64_t ec_fragments_repaired() const {
    return ec_fragments_repaired_.value();
  }
  uint64_t ec_parity_bytes() const { return ec_parity_bytes_.value(); }
  void NoteEcDegradedRead() { ec_degraded_reads_.Add(1); }
  void NoteEcParityBytes(uint64_t bytes) { ec_parity_bytes_.Add(bytes); }

  // --- background maintenance hooks ---
  // AggregateStore attaches its MaintenanceService here; the manager
  // forwards client-side signals to it.  Detached (nullptr), both signal
  // hooks are no-ops and the store behaves exactly as before.
  void AttachMaintenance(MaintenanceService* service);
  // A client saw a replica write fail (degraded write): hand the chunk to
  // the background repair queue.  Never called with a shard mutex held.
  void ReportDegraded(const ChunkKey& key, int64_t now_ns);
  // Cheap pacing hook invoked on client metadata round-trips: lets the
  // maintenance worker's schedule catch up to foreground virtual time.
  void MaintenanceTick(int64_t now_ns);

  // Decommission a benefactor for maintenance/upgrade (the paper's
  // "aggregation ... allows for ... easy system hardware upgrades or
  // re-configuration"): a driver over the repair engine, like
  // RepairReplication.  It marks the benefactor retiring (one ascending
  // pass over the shard mutexes, metadata only), then plans, copies and
  // commits a replacement for every copy it holds, re-scanning for a
  // bounded number of rounds (which also catches copy-on-write versions
  // made meanwhile).  No shard mutex is held across a copy, and a chunk
  // with a write in flight is not moved until the write completes.  The
  // benefactor is killed only once no list names it; otherwise the drain
  // returns an error (OutOfSpace when no target could be reserved,
  // Unavailable when commits kept losing to writes), the benefactor stays
  // alive and retiring, and a retry finishes the drain.  Returns the
  // number of replicas (EC: fragments) recreated.
  StatusOr<uint64_t> Decommission(sim::VirtualClock& clock, int id);

  // --- namespace ---

  StatusOr<FileId> CreateFile(sim::VirtualClock& clock,
                              const std::string& name);
  StatusOr<FileId> LookupFile(sim::VirtualClock& clock,
                              const std::string& name);
  StatusOr<FileInfo> Stat(sim::VirtualClock& clock, FileId id);
  Status Unlink(sim::VirtualClock& clock, FileId id);

  // Extend the file to at least `size` bytes, allocating chunk placements
  // per the configured stripe policy over alive benefactors
  // (posix_fallocate semantics: reservation only, no data transfer).
  // `client_node` is the allocating client's node, used by the
  // locality-aware policy (-1: unknown).
  Status Fallocate(sim::VirtualClock& clock, FileId id, uint64_t size,
                   int client_node = -1);

  // --- data-plane lookups ---

  // The read-resolve fast path: file table shared locks plus one atomic
  // replica-snapshot load per chunk — no shard mutex.  Locations of
  // `count` consecutive chunks starting at `first`, clamped at EOF.
  // Charges ONE metadata service op for the whole batch — the
  // control-plane saving behind the client's coalesced miss and
  // read-ahead paths.
  StatusOr<std::vector<ReadLocation>> GetReadLocations(
      sim::VirtualClock& clock, FileId id, uint32_t first, uint32_t count);
  StatusOr<ReadLocation> GetReadLocation(sim::VirtualClock& clock, FileId id,
                                         uint32_t chunk_index) {
    NVM_ASSIGN_OR_RETURN(auto locs,
                         GetReadLocations(clock, id, chunk_index, 1));
    return std::move(locs.front());
  }
  // Resolve the targets for writing a flush window (any set of distinct
  // chunk indices of one file) in ONE metadata service op, performing the
  // copy-on-write decision per chunk: a chunk shared with a checkpoint
  // gets a fresh version.  The window's COW swaps are journaled as one
  // WAL device write (a kCowSwap record each) before any slot moves.
  // Result order matches `indices`.  On error no slot has moved and no
  // write is left open; on success every returned location MUST be
  // completed (CompleteWrites) once the replica transfers finish (success
  // or failure) — the open prepare fences the repair engine off the chunk.
  StatusOr<std::vector<WriteLocation>> PrepareWriteBatch(
      sim::VirtualClock& clock, FileId id, std::span<const uint32_t> indices);
  StatusOr<WriteLocation> PrepareWrite(sim::VirtualClock& clock, FileId id,
                                       uint32_t chunk_index) {
    NVM_ASSIGN_OR_RETURN(auto locs,
                         PrepareWriteBatch(clock, id, {&chunk_index, 1}));
    return std::move(locs.front());
  }
  // The writes prepared for `locs` (a window, or a single chunk) have
  // finished moving data (or given up): drops each in-flight-writer fence
  // and moves the repair epoch, so a repair copy taken while a write was
  // in flight can never commit.  The involved shard set is locked once,
  // in ascending index order, and the whole window completes in that one
  // lock pass.  `crcs` (parallel to locs; may be empty) carries the
  // flush-time checksums, each becoming the chunk's authoritative one only
  // where `ok` (parallel; may be empty = all ok) says the data landed on
  // at least one replica; elsewhere the stale checksum is erased.  For an
  // erasure-coded window `frag_crcs` carries ec_fragments() positional
  // fragment checksums per loc, back to back, recorded alongside each
  // chunk's checksum.  One batched WAL record covers the durable checksum
  // transitions (set or erase) of the whole window, appended before any
  // in-memory mutation.
  void CompleteWrites(sim::VirtualClock& clock,
                      std::span<const WriteLocation> locs,
                      std::span<const uint32_t> crcs = {},
                      std::span<const char> ok = {},
                      std::span<const uint32_t> frag_crcs = {});

  // --- checkpoint support ---

  // Append all of `src`'s chunk refs to `dst` (incrementing refcounts) —
  // the zero-copy linking of an NVM variable into a checkpoint file.
  // Returns the chunk-aligned logical offset in `dst` where `src`'s data
  // now begins.
  StatusOr<uint64_t> LinkFileChunks(sim::VirtualClock& clock, FileId dst,
                                    FileId src);

  // Refcount of a chunk (test/diagnostic hook).
  uint32_t ChunkRefcount(const ChunkKey& key) const;

  uint64_t num_files() const;

  // --- crash consistency (store/recovery.cpp) ---

  // Serialise the whole metadata plane into the WAL's checkpoint store.
  // Takes ns_mu_ shared, every file mutex shared (FileId order) and every
  // shard mutex (ascending) for the serialisation instant: every WAL
  // append happens under one of those locks, so each record is either
  // fully reflected in the blob (seq <= covered) or entirely after it —
  // replay needs no idempotency.  No-op without a WAL.
  void Checkpoint(sim::VirtualClock& clock);

  // Cold-start recovery on a FRESH manager (no files, no chunks, no
  // client traffic yet): load the newest valid checkpoint, replay the WAL
  // records after it, then reconcile the result against the live
  // benefactor inventories — per-replica write-time {has_crc, crc}
  // metadata decides conflicts, so a chunk either comes back with bytes
  // that verify or is surfaced as lost (empty location list), never with
  // wrong bytes.  Charges the log reads and the per-benefactor inventory
  // round-trips to `clock`.  No-op without a WAL.
  RecoveryReport Recover(sim::VirtualClock& clock);

 private:
  // Repair data movement: a write run of one landing the whole
  // `image` of `key` (a chunk or one erasure fragment) on `to`, streamed
  // from `from_node` and admitted to QoS before the wire, storing `crc`
  // (when non-null) as the blob's checksum.  Charged to `clock` as
  // maintenance traffic.
  Status CopyWholeBlob(sim::VirtualClock& clock, int from_node,
                       Benefactor& to, const ChunkKey& key,
                       std::span<const uint8_t> image, const uint32_t* crc);

  // One chunk's single metadata home, shared (via shared_ptr) by every
  // file slot that references it — checkpoint links reference the same
  // handle, so publishing a replica list is one store here, not a scan
  // over every referencing file.  `key` is immutable: a COW creates a
  // fresh handle for the bumped version and swaps the file slot.
  //
  // `replicas` is the atomically-swapped immutable snapshot read by the
  // lock-free resolve path: STORES happen only under the owning shard's
  // mutex (PublishReplicasLocked), LOADS take no lock.  Every other field
  // is guarded by the owning shard's mutex.  The in-flight-writer fences
  // and reserved repair targets deliberately live in per-shard side maps,
  // NOT here: both must survive the chunk's last unref (a CompleteWrites
  // races an unlink; a planned repair target must stay scrub-exempt until
  // its commit), while epoch/checksum/corruption state dies with the
  // chunk.
  struct ChunkHandle {
    explicit ChunkHandle(const ChunkKey& k) : key(k) {
      // Never-null invariant: resolvers load without any lock, so even a
      // handle between construction and its first publish must carry a
      // (then empty) snapshot.
      replicas.store(std::make_shared<const std::vector<int>>(),
                     std::memory_order_relaxed);
    }
    const ChunkKey key;
    std::atomic<std::shared_ptr<const std::vector<int>>> replicas;
    uint32_t refcount = 0;       // referencing file slots
    uint64_t repair_epoch = 0;   // bumped on write prepare AND completion
    bool has_crc = false;        // authoritative checksum recorded?
    uint32_t crc = 0;
    // Erasure-coded chunk: the replica snapshot is the positional fragment
    // map (length k+m, -1 = missing) and `frag_crcs` (when has_crc) holds
    // the per-fragment authoritative checksums, parallel to it.
    bool ec = false;
    std::vector<uint32_t> frag_crcs;
    bool corrupt_pending = false;  // quarantined replica awaiting heal
    // Correlated-loss memory: benefactors whose replica of THIS chunk was
    // quarantined as corrupt or diverged during recovery.  The placement
    // engine (placement_avoid_suspected) refuses them as repair targets —
    // re-replicating onto the device that just lost the bytes would
    // re-correlate the failure.  Cleared when a completed write refreshes
    // the chunk's contents; volatile (not WAL-logged): after a restart
    // the conservative empty set only widens the target pool.
    std::vector<int> tainted;
  };

  // One slice of the chunk namespace: every key with shard_of(key) ==
  // this shard's index.  All members are guarded by `mu`.
  struct MetaShard {
    mutable std::mutex mu;
    std::unordered_map<ChunkKey, std::shared_ptr<ChunkHandle>, ChunkKeyHash>
        chunks;
    // Chunks with a prepared-but-uncompleted write.  While an entry exists
    // CommitRepair refuses to publish (requeues): the in-flight write
    // could still land bytes on a survivor that the copied targets would
    // miss.  Side map (not a handle field): the fence must survive an
    // unlink so the paired CompleteWrites still finds it.
    std::unordered_map<ChunkKey, uint32_t, ChunkKeyHash> inflight_writers;
    // Reserved targets of repair plans between PlanRepairs and
    // CommitRepair (duplicates possible when racing drivers plan the same
    // key).  The scrubber must not reap these as orphans: their chunk data
    // exists on the benefactor before the replica list names it.  Each
    // entry carries the bytes it reserved (a full chunk for a replica, one
    // fragment for an EC target) — the entry can outlive the chunk handle
    // (unlink racing a commit), so the undo cannot re-derive the amount.
    struct RepairTarget {
      int bid = -1;
      uint64_t bytes = 0;
    };
    std::unordered_map<ChunkKey, std::vector<RepairTarget>, ChunkKeyHash>
        repair_targets;
    // Resume point of the incremental verification sweep within this
    // shard (nullopt: restart from the shard's lowest key).
    std::optional<ChunkKey> verify_cursor;
  };

  struct FileMeta {
    // Guards size/chunks/stripe_cursor.  The resolve fast path holds it
    // shared; slot swaps (COW prepare) and extension hold it exclusive.
    // LinkFileChunks locks two files in FileId order.
    mutable std::shared_mutex mu;
    std::string name;  // immutable after create
    uint64_t size = 0;
    std::vector<std::shared_ptr<ChunkHandle>> chunks;
    // Next benefactor (registry index) for striping continuation.
    size_t stripe_cursor = 0;
    // Redundancy mode, fixed at the file's first Fallocate from the
    // store-wide config (journaled as a kRedundancy record when erasure):
    // a file never mixes replicated and erasure-coded chunks.
    bool ec = false;
    bool redundancy_decided = false;
  };

  size_t shard_of(const ChunkKey& key) const {
    return static_cast<size_t>(ChunkKeyHash{}(key)) % meta_shards_;
  }
  // Service lane of file- and name-addressed metadata ops.
  size_t FileLane(FileId id) const {
    return static_cast<size_t>(Mix64(id)) % meta_shards_;
  }
  size_t NameLane(const std::string& name) const {
    return static_cast<size_t>(Mix64(std::hash<std::string>{}(name))) %
           meta_shards_;
  }
  void ChargeOp(sim::VirtualClock& clock, size_t lane) {
    services_[lane]->Acquire(clock, config_.manager_op_ns);
  }
  // File table lookup; takes (and releases) ns_mu_ shared.
  std::shared_ptr<FileMeta> FindFile(FileId id) const;
  // Registry snapshot / bounds-checked lookup (reg_mu_ shared).
  std::vector<Benefactor*> SnapshotBenefactors() const;
  Benefactor* BenefactorAt(int id) const;
  // Publish a fresh immutable replica snapshot (owning shard mu held).
  static void PublishReplicasLocked(ChunkHandle& h, std::vector<int> replicas);
  // Drop one reference; frees the chunk on its benefactors at zero
  // (owning shard mu held).
  void UnrefChunkLocked(MetaShard& shard, ChunkHandle& h);
  // Decide how one slot of a write window is written (file mu held
  // exclusive, the slot's current and successor shards locked): the sole
  // owner writes in place (its repair epoch moves and its write fence
  // opens); a chunk shared with a checkpoint gets a copy-on-write plan —
  // the fresh version's key, `fresh_list` (its holders) and their space,
  // reserved, or all rolled back if a holder runs out.  A COW plan
  // publishes nothing: PrepareWriteBatch logs the window's swaps in one
  // WAL write and only then moves the slots.  `suspected` (may be null)
  // is the caller's SuspectedBenefactors() snapshot, taken before any
  // lock: with placement_avoid_suspected on, a COW drops dead or
  // suspected inherited holders (keeping at least one) instead of failing
  // the whole prepare on a dead holder's reservation.
  StatusOr<WriteLocation> PlanWriteSlotLocked(
      FileMeta& meta, uint32_t chunk_index, const std::vector<char>* suspected,
      std::shared_ptr<const std::vector<int>>& fresh_list);
  // Per-benefactor suspicion flags from the heartbeat detector, via the
  // maintenance hook (hook_mu_ shared; empty when detached).  Callers
  // snapshot ONCE per operation before taking any file or shard lock and
  // only when placement_avoid_suspected is on — the knob-off store never
  // touches hook_mu_ here.
  std::vector<char> SuspectedBenefactors() const;
  // Snapshot per-benefactor placement state for the engine.  `suspected`
  // may be null (no suspicion signal); wear fractions are read only when
  // placement_wear_weight > 0.  Called with the chunk's shard mutex held,
  // like the capacity reads it replaces.
  std::vector<PlacementCandidate> BuildPlacementCandidates(
      const std::vector<Benefactor*>& bens,
      const std::vector<char>* suspected) const;
  // Whether a chunk whose list (replicas, or EC positional map) is `list`
  // is short of full redundancy yet repairable: a dead or retiring holder,
  // an EC hole, or fewer replicas than the factor.  A lost chunk (empty
  // list, or fewer than k live fragments) is not — nothing can repair it.
  bool Degraded(bool ec, const std::vector<int>& list,
                const std::vector<Benefactor*>& bens) const;
  // Bytes one member of `key`'s location list reserves on its benefactor:
  // a full chunk for a replica, one fragment for an erasure-coded chunk.
  uint64_t ChunkResBytes(bool ec) const {
    return ec ? config_.ec_frag_bytes() : config_.chunk_bytes;
  }
  // Drop a reserved (and possibly partially written) repair target of an
  // abandoned plan (shard mu held).  `bytes` is the amount the plan
  // reserved on `bid` (chunk or fragment).  If a racing repair already
  // committed `bid` into the chunk's replica list, only this plan's
  // duplicate reservation is released — the data now belongs to the
  // published list.
  void UndoRepairTargetLocked(MetaShard& shard, const ChunkKey& key, int bid,
                              uint64_t bytes);
  // Shard-mutex-held core of CompleteWrites for one chunk.
  void CompleteWriteLocked(MetaShard& shard, const ChunkKey& key,
                           const uint32_t* crc = nullptr,
                           std::span<const uint32_t> frag_crcs = {});
  // True when (key, bid) is a reserved target of a repair plan whose
  // commit has not run yet (shard mu held).
  bool IsRepairTargetLocked(const MetaShard& shard, const ChunkKey& key,
                            int bid) const;
  // Strip the corrupt replica (key, bid): drop its data and space, publish
  // the shortened list, bump the repair epoch.  Returns false when bid is
  // no longer in the chunk's list (already quarantined or replaced) —
  // nothing new to learn.  Shard mu held.  The shortened list is logged
  // BEFORE the replica's data is dropped: the reverse order would leave a
  // crashed recovery believing the deleted replica still held the bytes.
  bool QuarantineReplicaLocked(sim::VirtualClock& clock, MetaShard& shard,
                               const ChunkKey& key, int bid);
  // Append `rec` to the WAL (charging `clock`) — no-op without a WAL.
  // Call sites hold the mutex that orders the mutation being logged
  // (ns_mu_, a file mu, or the owning shard mu); the WAL's own mutex is
  // innermost.
  void LogAppend(sim::VirtualClock& clock, WalRecord rec) {
    if (wal_ != nullptr) wal_->Append(clock, std::move(rec));
  }

  // --- recovery internals (store/recovery.cpp) ---

  // Serialise every file table and chunk handle into a checkpoint blob.
  // Caller holds ns_mu_ shared + every file mu shared + every shard mu.
  std::string EncodeCheckpointLocked() const;
  // Rebuild namespace/file/chunk state from a checkpoint blob (fresh
  // manager, no locks needed).  Returns false on a malformed blob (which
  // the slot CRC makes a code bug, not torn media).
  bool DecodeCheckpoint(const std::string& blob);
  // Apply one replayed WAL record (fresh manager, no locks needed).
  void ApplyWalRecord(const WalRecord& rec);
  // Post-replay reconciliation against the live benefactor inventories.
  void ReconcileWithBenefactors(sim::VirtualClock& clock,
                                RecoveryReport* report);

  net::Cluster& cluster_;
  const int manager_node_;
  const StoreConfig config_;
  const size_t meta_shards_;
  // Durable half of the metadata plane; owned by the AggregateStore (it
  // must survive KillManager).  Null = crash consistency off.
  WalStore* const wal_;
  // Per-shard metadata service lanes: the modelled manager CPU stops being
  // one serial timeline once meta_shards > 1.  Lane assignment must be
  // deterministic (file hash / key shard) so virtual-time results are
  // reproducible; with meta_shards == 1 everything lands on lane 0,
  // identical to the historic single `service_` resource.
  std::vector<std::unique_ptr<sim::Resource>> services_;

  // Benefactor registry: append-only after wiring.  Shared for the hot
  // reads (liveness, capacity), exclusive only for registration.
  mutable std::shared_mutex reg_mu_;
  std::vector<Benefactor*> benefactors_;

  // Namespace: never held across any other lock (see header comment).
  mutable std::shared_mutex ns_mu_;
  std::unordered_map<std::string, FileId> names_;
  std::unordered_map<FileId, std::shared_ptr<FileMeta>> files_;
  FileId next_file_id_ = 1;
  size_t stripe_cursor_ = 0;

  // The sharded chunk namespace.
  std::vector<MetaShard> shards_;

  // Serialises verification sweeps and guards the inter-shard cursor
  // position (which shard the next VerifyScrub call resumes at).
  mutable std::mutex verify_mu_;
  size_t verify_shard_ = 0;

  Counter lost_chunks_;
  Counter corrupt_detected_;
  Counter corrupt_repaired_;
  Counter ec_degraded_reads_;
  Counter ec_fragments_repaired_;
  Counter ec_parity_bytes_;
  // Guards the maintenance hook pointer: signal forwarding holds it
  // shared, attach/detach exclusive — so ~MaintenanceService's detach
  // waits out any client thread already inside a hook call.
  mutable std::shared_mutex hook_mu_;
  MaintenanceService* maintenance_ = nullptr;
};

}  // namespace nvm::store
