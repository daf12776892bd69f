// Benefactor process: contributes a node-local SSD partition to the
// aggregate store and serves chunk-granularity data-plane requests.
//
// Chunks are stored as individual buffers keyed by ChunkKey (the paper
// stores them as individual files on the benefactor's SSD).  Every data
// access charges the node's modelled SSD; space accounting enforces the
// contributed capacity; Kill()/Revive() support failure-injection tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "net/cluster.hpp"
#include "store/types.hpp"

namespace nvm::store {

class QosScheduler;

class Benefactor {
 public:
  Benefactor(int id, net::Node& node, uint64_t contributed_bytes,
             const StoreConfig& config);

  int id() const { return id_; }
  int node_id() const { return node_.id(); }
  uint64_t contributed_bytes() const { return contributed_bytes_; }
  uint64_t bytes_used() const;
  uint64_t bytes_free() const;
  size_t num_chunks() const;

  // --- control plane (invoked via the manager) ---

  // Reserve space for `count` chunks (posix_fallocate path).  No device
  // traffic: reservation only.
  Status ReserveChunks(uint64_t count);
  void ReleaseChunkReservation(uint64_t count);
  // Byte-granular reservation twin — erasure-coded fragments reserve
  // chunk_bytes/ec_k per stripe member, so the accounting unit is bytes.
  // ReserveChunks(n) is exactly ReserveBytes(n * chunk_bytes); replicated
  // arithmetic is unchanged.
  Status ReserveBytes(uint64_t bytes);
  void ReleaseBytes(uint64_t bytes);

  // Attach the store-wide QoS scheduler.  Every data-plane request below
  // carries a TenantId; before booking device or wire time the benefactor
  // asks the scheduler for an admission floor on its SSD lane and its
  // node's NIC lane (a no-op when `qos` is off or no scheduler is
  // attached).
  void AttachQos(QosScheduler* qos) { qos_ = qos; }

  // --- data plane (invoked by StoreClient after a location lookup) ---

  // Every stored blob is an item of the run RPCs below: a replica is
  // chunk_bytes, an erasure fragment ec_frag_bytes() (stored under the
  // chunk's plain ChunkKey — failure-domain spreading guarantees at most
  // one fragment of a stripe per benefactor).  An item's buffers are
  // sized to its blob, and every device, wire and checksum charge follows
  // that size.

  // Multi-chunk streamed read — the run RPC, and the only chunk read
  // there is.  One call is ONE request at this benefactor (one header, one
  // device queueing slot): each stored chunk is charged to the device on
  // `clock` (reads of a run serialise on the SSD channel), but only the
  // first pays the per-request read latency.  Chunk keys[i] is copied
  // straight into outs[i] (sized to the blob); with config.verify_reads the
  // copy checksums the bytes in the same pass (Crc32cCopy; CPU charged at
  // checksum_bw_gbps), so the bytes checked are exactly the bytes
  // delivered.  A chunk that was reserved but never written reads as
  // zeros without touching the device (the backing file is sparse) and is
  // reported `sparse`, so the client ships only a "no such chunk" marker;
  // a chunk deleted by QuarantineChunk and not written since fails the run
  // with NOT_FOUND instead (the reader's location is stale).
  // Each chunk is then handed to `sink` in request order, stamped with
  // its device (or verification) completion time.  If the benefactor dies
  // mid-run the whole run fails with UNAVAILABLE.  A chunk failing its
  // check fails the run with CORRUPT, and `clock` has then paid that
  // chunk's verification (the hash had to run to find the mismatch).
  // Either way the caller must discard every destination of the run (no
  // partial runs are surfaced; the failing chunk's destination holds
  // unspecified bytes).
  Status ReadChunkRun(sim::VirtualClock& clock, std::span<const ChunkKey> keys,
                      std::span<const std::span<uint8_t>> outs,
                      const ChunkRunSink& sink,
                      TenantId tenant = kTenantForeground);
  // A run of one; `*sparse` reports a hole.
  Status ReadChunk(sim::VirtualClock& clock, const ChunkKey& key,
                   std::span<uint8_t> out, bool* sparse = nullptr,
                   TenantId tenant = kTenantForeground) {
    return ReadChunkRun(clock, {&key, 1}, {&out, 1}, NoteSparse(sparse),
                        tenant);
  }

  // Scrub support: re-read the stored chunk off the device, recompute its
  // CRC32C (both charged to `clock`) and compare against the manager's
  // authoritative `expected_crc`.  A never-written chunk reports
  // `*sparse` and verifies trivially; a mismatch returns CORRUPT.  The
  // chunk bytes never cross the network — verification is benefactor-
  // local against the shipped expected value.
  Status VerifyChunk(sim::VirtualClock& clock, const ChunkKey& key,
                     uint32_t expected_crc, bool* sparse = nullptr,
                     TenantId tenant = kTenantMaintenance);

  // Multi-chunk streamed write — the write-side run RPC, and the only
  // chunk write there is.  One call is ONE request at this benefactor (one
  // header, one device queueing slot).  The sender streams each item's
  // messages via `send` (clone instructions as kControl, dirty pages as
  // kPayload; the first payload also carries the run header) and admits
  // each payload before it goes on the wire: the NIC pipelines them in
  // order while the device serialises on `clock`, and only the run's
  // first read and first program pay the per-request latencies.  Each
  // item lands only its dirty pages on the stored chunk (materialising it
  // if absent) and only those are charged to the device — the
  // write-optimisation path of Table VII.  A copy-on-write item
  // (`needs_clone`) instead lands as ONE read of the shared version's
  // blob and ONE program of the fresh version's: the shared bytes with
  // the dirty pages merged in, both sized to the blob.  An item's crc is
  // stored verbatim when its dirty set covers the whole blob.  A partial
  // copy-on-write item's crc is that of the merged blob: the benefactor
  // derives the merged checksum from the base's recorded one
  // (Crc32cUpdate over the dirty pages), and unless they agree nothing
  // lands and the item fails with CORRUPT (a missing or stale base, or
  // rot under a dirty page).  Any other partial item makes the benefactor
  // checksum the merged image, charging the checksum CPU cost, after
  // verifying a checksummed base; `stored_crc` returns what was stored —
  // the value the caller must hand the manager as authoritative.  If the
  // benefactor dies mid-run the whole run fails with UNAVAILABLE, and an
  // item whose base fails its checksum fails it with CORRUPT; either way
  // the caller must treat every item as unwritten on this replica.
  Status WriteChunkRun(sim::VirtualClock& clock,
                       std::span<const ChunkWriteItem> items,
                       const ChunkRunSend& send,
                       TenantId tenant = kTenantForeground);
  // A run of one whose pages are already here (no wire, no admission).
  Status WritePages(sim::VirtualClock& clock, const ChunkKey& key,
                    const Bitmap& dirty_pages, std::span<const uint8_t> data,
                    const uint32_t* crc = nullptr,
                    uint32_t* stored_crc = nullptr,
                    TenantId tenant = kTenantForeground) {
    const ChunkWriteItem item =
        MakeWriteItem(key, dirty_pages, data, crc, stored_crc);
    return WriteChunkRun(clock, {&item, 1}, LocalRunSend, tenant);
  }

  // Drop the chunk (refcount reached zero at the manager).
  Status DeleteChunk(const ChunkKey& key);
  // Drop the chunk as corrupt (Manager quarantine) and remember it: other
  // clients' location caches may still name this copy, so until a write
  // lands the key again a read of it fails with NOT_FOUND instead of
  // serving the hole as zeros.
  void QuarantineChunk(const ChunkKey& key);

  // --- liveness / failure injection ---
  // Atomic: polled by the maintenance worker's heartbeat sweeps while
  // client threads report failures.
  bool alive() const { return alive_.load(std::memory_order_acquire); }
  void Kill() { alive_.store(false, std::memory_order_release); }
  // Back in service: alive, and no longer retiring.
  void Revive() {
    retiring_.store(false, std::memory_order_release);
    alive_.store(true, std::memory_order_release);
  }
  // A retiring benefactor is being drained (Manager::Decommission): it
  // keeps serving the copies it holds, but placement never picks it and
  // its copies do not count toward a chunk's redundancy.  Lives here, not
  // in the manager, so it survives a manager crash like `alive` does.
  bool retiring() const { return retiring_.load(std::memory_order_acquire); }
  void Retire() { retiring_.store(true, std::memory_order_release); }
  // Die after `n` more chunks have been read off the device — lets tests
  // crash a benefactor in the middle of a read run.  0 disarms.
  void KillAfterReads(uint64_t n) {
    kill_after_reads_.store(n, std::memory_order_relaxed);
  }
  // Die after `n` more chunks have been programmed — lets tests crash a
  // benefactor in the middle of a write run or flush.  0 disarms.
  void KillAfterWrites(uint64_t n) {
    kill_after_writes_.store(n, std::memory_order_relaxed);
  }
  // Silent-corruption injection: XOR `xor_mask` into byte `byte_offset` of
  // the stored chunk without updating its checksum — models an SSD bit
  // flip no layer observed.  No device traffic, no liveness change.
  Status CorruptChunk(const ChunkKey& key, uint64_t byte_offset,
                      uint8_t xor_mask);
  // Seeded background bit-rot model (the corruption twin of
  // KillAfterWrites): every `n` chunk programs on this benefactor flip one
  // random bit of one random stored chunk, deterministically from `seed`.
  // Recurring until disarmed with n = 0.
  void CorruptAfterWrites(uint64_t n, uint64_t seed);
  // Bits flipped by the bit-rot model so far.
  uint64_t bitrot_flips() const { return bitrot_flips_.value(); }

  sim::SsdDevice& ssd() { return node_.ssd(); }

  // Bytes actually written to / read from this benefactor's device by
  // store traffic (excludes unrelated users of the same SSD).
  uint64_t data_bytes_in() const { return data_bytes_in_.value(); }
  uint64_t data_bytes_out() const { return data_bytes_out_.value(); }
  // Read-plane requests served: every ReadChunkRun counts once — the
  // "request header + queueing slot" unit the run RPC amortises across a
  // batch.
  uint64_t read_requests() const { return read_requests_.value(); }
  // Write-plane requests served: every WriteChunkRun counts once — the
  // unit the write run RPC amortises across a window.
  uint64_t write_requests() const { return write_requests_.value(); }
  // Scrub verification requests served (kept out of read_requests so the
  // request-amortisation accounting of the run RPCs stays undisturbed).
  uint64_t verify_requests() const { return verify_requests_.value(); }

  // Introspection for invariant tests: the exact chunk set stored here.
  bool HasChunk(const ChunkKey& key) const;
  std::vector<ChunkKey> StoredChunkKeys() const;
  // Invariant-test hook: CRC32C recomputed over the stored bytes of `key`
  // right now (no device or CPU charge).  False when the chunk is absent.
  bool StoredContentCrc(const ChunkKey& key, uint32_t* crc) const;
  // Recovery hook: the checksum RECORDED with the chunk at write time
  // (never recomputed — a replica whose write-time crc diverges from the
  // manager's authoritative one belongs to a different write generation,
  // which is exactly what cold-start reconciliation must detect; content
  // rot against a matching recorded crc stays the scrubber's business).
  // Returns false when the chunk is absent (reserved-but-sparse).
  bool StoredChunkCrc(const ChunkKey& key, bool* has_crc, uint32_t* crc) const;

 // QoS admission for one chunk-sized transfer: estimate the device
  // service time for `ssd_bytes`, ask the scheduler for a start floor on
  // this benefactor's SSD lane and this node's NIC lane (`wire_bytes` on
  // the wire), and advance `clock` to it.  No-op when qos is off.
  //
  // Callers that ship chunk data to this benefactor MUST admit before
  // booking the wire transfer: admission is the request's entry gate, and
  // bytes sent ahead of it would occupy the NIC in front of tenants the
  // scheduler is protecting.  WriteChunkRun therefore does NOT admit
  // internally (a write run's `send` admits each payload); the read run
  // admits itself (its payload crosses the wire after the device read,
  // behind the admission point).
  void AdmitTransfer(sim::VirtualClock& clock, TenantId tenant,
                     uint64_t ssd_bytes, bool is_write, uint64_t wire_bytes);

 private:
  struct StoredChunk {
    // The blob's `size` bytes.  A copy-on-write version shares its base's
    // buffer until either is written — host memory only: the device still
    // programs the fresh version whole.  Writers go through Mutable().
    std::shared_ptr<uint8_t[]> bytes;
    uint64_t size = 0;
    uint64_t ssd_offset = 0;  // position in the device address space
    // Checksum recorded at write time (never recomputed on rot — that is
    // the point: verification compares stored bytes against it).
    bool has_crc = false;
    uint32_t crc = 0;

    std::span<const uint8_t> data() const { return {bytes.get(), size}; }
    // The blob's own bytes: a fresh `blob`-sized buffer when absent or
    // shared, holding the old contents when `keep` (else unspecified).
    uint8_t* Mutable(uint64_t blob, bool keep = true) {
      if (bytes == nullptr || bytes.use_count() > 1) {
        auto fresh = std::make_shared_for_overwrite<uint8_t[]>(blob);
        if (keep && bytes != nullptr) {
          std::memcpy(fresh.get(), bytes.get(), blob);
        }
        bytes = std::move(fresh);
        size = blob;
      }
      return bytes.get();
    }
  };

  // A stored blob copied out for a read (CopyOutLocked).
  struct CopyOut {
    uint64_t offset = 0;    // device offset of the stored blob
    bool verified = false;  // hashed against its recorded checksum
    bool intact = true;     // the check passed (or was not made)
  };
  // True for the two stored-blob sizes: a chunk and an erasure fragment.
  bool IsBlobSize(uint64_t bytes) const {
    return bytes == config_.chunk_bytes || bytes == config_.ec_frag_bytes();
  }
  // Copy `chunk` into `out` (out.size() == the blob's size), hashing it in
  // the same pass when reads verify and the chunk has a checksum.  Caller
  // holds mutex_; charges nothing.
  CopyOut CopyOutLocked(const StoredChunk& chunk,
                        std::span<uint8_t> out) const;
  // Assign a device offset for a newly materialised chunk.
  uint64_t AllocateOffset();
  Status EnsureAlive() const;
  // Tick the KillAfterReads countdown after a data chunk left the device.
  void MaybeKillAfterRead();
  // Tick the KillAfterWrites countdown after a chunk's pages were
  // programmed.
  void MaybeKillAfterWrite();
  // Tick the bit-rot countdown after a chunk's pages were programmed,
  // flipping a random stored bit when it fires.
  void MaybeCorruptAfterWrite();
  // Outcome of MergeDirtyPages.
  struct MergeResult {
    uint64_t offset = 0;    // device offset of the stored chunk
    uint64_t bytes = 0;     // bytes to program: dirty pages, or the blob
    bool corrupt = false;   // nothing landed: the base failed its check
  };
  // The merge step of WriteChunkRun: land the item's dirty pages on its
  // base — the stored image of `key` (a fresh zero image when absent), or
  // for a copy-on-write item the stored image of `clone_from` (zeros when
  // absent), copied under `key` — and record the checksum.  An item crc
  // is stored verbatim for a full image and, for a partial copy-on-write
  // item, only once the checksum derived from the base's is equal to it;
  // otherwise nothing lands and `corrupt` is reported.  Any other partial
  // merge onto a checksummed base first verifies the base (a mismatch
  // merges nothing and reports `corrupt`) and then checksums the merged
  // image — derived from the verified base crc and the dirty pages alone
  // (Crc32cUpdate) when few pages are dirty.  Charges the modelled
  // checksum CPU on `clock` whatever the host did: one blob hash for the
  // base verification, one for a merged image it checksums, and the old
  // and new dirty pages for a derivation against the item's crc.
  MergeResult MergeDirtyPages(sim::VirtualClock& clock,
                              const ChunkWriteItem& item);
  // Drop `key`'s stored blob, recycling its device offset (mutex_ held).
  void DeleteChunkLocked(const ChunkKey& key);
  const int id_;
  net::Node& node_;
  const uint64_t contributed_bytes_;
  const StoreConfig config_;
  QosScheduler* qos_ = nullptr;  // store-owned; attached after construction

  mutable std::mutex mutex_;
  std::unordered_map<ChunkKey, StoredChunk, ChunkKeyHash> chunks_;
  // Keys deleted by QuarantineChunk and not written since.
  std::unordered_set<ChunkKey, ChunkKeyHash> quarantined_;
  // Space accounting is a lone atomic (CAS-bounded by the contribution):
  // reservations are taken on the manager's metadata hot paths (write
  // prepare COW, repair planning, fallocate) and read by every capacity-
  // aware placement decision and status report — none of which should
  // contend with the data-plane mutex_ below.  Byte-granular because
  // erasure fragments reserve chunk_bytes/ec_k each; replicated chunks
  // reserve whole chunk_bytes multiples exactly as before.
  std::atomic<uint64_t> reserved_bytes_{0};
  uint64_t next_offset_ = 0;
  std::vector<uint64_t> free_offsets_;
  std::atomic<bool> alive_{true};
  std::atomic<bool> retiring_{false};
  std::atomic<uint64_t> kill_after_reads_{0};
  std::atomic<uint64_t> kill_after_writes_{0};
  // Bit-rot model state (mutex_-guarded: firing picks a stored chunk).
  uint64_t corrupt_period_ = 0;     // 0 = disarmed
  uint64_t corrupt_countdown_ = 0;  // programs until the next flip
  uint64_t corrupt_rng_ = 0;        // deterministic splitmix64 walk
  Counter data_bytes_in_;
  Counter data_bytes_out_;
  Counter read_requests_;
  Counter write_requests_;
  Counter verify_requests_;  // scrub VerifyChunk calls served
  Counter bitrot_flips_;
};

}  // namespace nvm::store
