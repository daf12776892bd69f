// Client-side stub for the aggregate NVM store.
//
// One StoreClient lives on each compute node (inside the fuselite mount).
// Control-plane calls go to the manager (charging the metadata round-trip
// on the modelled network); data-plane transfers go directly to the owning
// benefactor — the paper's two-step "ask the manager, then fetch from the
// benefactor" protocol.  Failed benefactors are reported back to the
// manager and reads fall over to surviving replicas.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "store/manager.hpp"

namespace nvm::store {

class QosScheduler;

class StoreClient {
 public:
  // `qos` (may be null) is the store-wide scheduler: the client stamps its
  // TenantId on every benefactor request and records per-tenant read/write
  // latencies against it.
  StoreClient(net::Cluster& cluster, Manager& manager, int local_node,
              QosScheduler* qos = nullptr);

  int local_node() const { return local_node_; }
  const StoreConfig& config() const { return manager_.config(); }

  // The tenant this client's traffic is accounted (and admission-
  // scheduled) as.  Defaults to kTenantForeground; one client serves one
  // tenant at a time (a mount is a tenant's view of the store).
  void SetTenant(TenantId tenant) { tenant_ = tenant; }
  TenantId tenant() const { return tenant_; }

  // All operations charge modelled time to the explicit `clock` — callers
  // that issue background transfers (read-ahead) pass a detached clock so
  // the foreground process does not pay for the prefetch.

  // --- control plane ---
  StatusOr<FileId> Create(sim::VirtualClock& clock, const std::string& name);
  StatusOr<FileId> Open(sim::VirtualClock& clock, const std::string& name);
  StatusOr<FileInfo> Stat(sim::VirtualClock& clock, FileId id);
  Status Fallocate(sim::VirtualClock& clock, FileId id, uint64_t size);
  Status Unlink(sim::VirtualClock& clock, FileId id);
  StatusOr<uint64_t> LinkFileChunks(sim::VirtualClock& clock, FileId dst,
                                    FileId src);

  // --- data plane ---
  //
  // Every replica and every erasure fragment moves inside a run RPC
  // (Benefactor::ReadChunkRun / WriteChunkRun): one request header and one
  // device queueing slot per run, at most config().max_run_chunks items
  // long.  The single-chunk calls are batches of one.

  // One element of a batched read.
  struct ChunkFetch {
    uint32_t index = 0;
    std::span<uint8_t> out;  // destination, sized chunk_bytes
    Status status;           // per-chunk outcome
    int64_t ready_at = 0;    // virtual completion time of the transfer
  };

  // Batched fetch of several chunks of one file.  The locations of the
  // whole index span are resolved with at most one metadata round-trip
  // (LookupReadMany).  The resolved chunks are grouped by the benefactors
  // a healthy read touches — a replicated chunk's primary, the k data-
  // fragment holders of an erasure stripe — and each group is fetched
  // with streamed ReadChunkRuns, items riding back-to-back on the wire
  // (net::StreamTransfer).  Each run uses its own detached clock branched
  // at the post-lookup time, so runs against distinct benefactors
  // overlap; runs are issued in order of their first fetch (with
  // max_run_chunks 1, in fetch order).  A replicated chunk that fails is
  // read again through the per-chunk failover path, which tries each
  // replica in turn with a run of one; a run of several that fails
  // (benefactor death mid-stream, a failed check) is discarded whole and
  // every chunk of it takes that path from the post-lookup time.  A
  // stripe left short of its k data fragments (a failed fragment, or a
  // discarded run) continues with the per-stripe degraded rounds; a
  // stripe missing a data fragment outright and a chunk beyond EOF take
  // the per-chunk path directly.  `clock` itself advances only past the
  // metadata lookup; callers consume the per-chunk `ready_at` completion
  // times.  Returns non-OK only if the batched lookup fails outright;
  // per-chunk failures (EOF, dead replicas) land in fetches[i].status.
  Status ReadChunks(sim::VirtualClock& clock, FileId id,
                    std::span<ChunkFetch> fetches);
  // Fetch a full chunk into `out` (sized chunk_bytes): a batch of one,
  // with `clock` advanced to its completion.
  Status ReadChunk(sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
                   std::span<uint8_t> out) {
    ChunkFetch fetch{chunk_index, out};
    NVM_RETURN_IF_ERROR(ReadChunks(clock, id, {&fetch, 1}));
    clock.AdvanceTo(fetch.ready_at);
    return fetch.status;
  }

  // Resolve read locations for `count` consecutive chunks starting at
  // `first` with at most one metadata round-trip (none when all are
  // already location-cached).  The resolved range is clamped at EOF.
  Status LookupReadMany(sim::VirtualClock& clock, FileId id, uint32_t first,
                        uint32_t count);

  // One element of a batched write-back.
  struct ChunkWrite {
    uint32_t index = 0;
    const Bitmap* dirty = nullptr;       // pages to flush (may be all-set)
    std::span<const uint8_t> image;      // full chunk image, sized chunk_bytes
    // Pages of `image` whose contents are known (null: only the dirty
    // ones).  An erasure stripe whose image is wholly valid is encoded
    // from it as is; otherwise its flush reads the current bytes first.
    const Bitmap* valid = nullptr;
    Status status;                       // per-chunk outcome
    int64_t ready_at = 0;                // virtual completion time
  };

  // Batched write-back of the dirty pages of several cached chunk images
  // of one file — the write-side mirror of ReadChunks.  The whole window
  // is COW-resolved in ONE metadata round-trip (Manager::PrepareWriteBatch),
  // grouped by benefactor (every replica holder gets the chunk) and
  // flushed with streamed WriteChunkRuns — dirty pages riding back-to-back
  // on the wire, each admitted to QoS before it is sent.  Runs use clocks
  // forked at the post-prepare time so runs against distinct benefactors
  // — and replicas of the same chunk — overlap, and the caller pays
  // max(replica times), not their sum.  A run of several that fails
  // (benefactor death mid-stream) is discarded whole and every item is
  // retried in a run of its own against that benefactor.  A chunk that
  // reached ≥1 replica is a (possibly degraded) success; the location
  // cache is updated only after a replica holds the data.  The caller
  // joins at the max, then the window's completion is recorded (with a
  // WAL, logged — and then every ready_at is that commit time).
  // Erasure-coded stores write full stripes: the stripes whose images are
  // not wholly valid are first read in one batched ReadChunks (the
  // read-modify-write), every stripe is encoded and checksummed on the
  // writer's clock, and the k+m fragments of the window then go out like
  // replicas — one run per fragment holder after the one prepare.  A
  // stripe that landed at least k fragments is a (possibly degraded)
  // success; below k it failed, and its completion records no checksum.
  // Returns non-OK only if the batched prepare fails outright; per-chunk
  // outcomes land in writes[i].status.
  Status WriteChunks(sim::VirtualClock& clock, FileId id,
                     std::span<ChunkWrite> writes);
  // Flush the dirty pages of one cached chunk image: a batch of one.
  Status WriteChunkPages(sim::VirtualClock& clock, FileId id,
                         uint32_t chunk_index, const Bitmap& dirty_pages,
                         std::span<const uint8_t> chunk_image) {
    ChunkWrite write{chunk_index, &dirty_pages, chunk_image};
    NVM_RETURN_IF_ERROR(WriteChunks(clock, id, {&write, 1}));
    return write.status;
  }

  // Data-plane traffic observed by this client (the "to SSD" column of the
  // paper's traffic tables).
  uint64_t bytes_fetched() const { return bytes_fetched_.value(); }
  uint64_t bytes_flushed() const { return bytes_flushed_.value(); }
  // Metadata round-trips this client issued to the manager (control-plane
  // cost; the batched read path exists to keep this flat).
  uint64_t meta_round_trips() const { return meta_rtts_.value(); }
  // Benefactor read-run RPCs issued.
  uint64_t run_rpcs() const { return run_rpcs_.value(); }
  // Benefactor write-run RPCs issued.
  uint64_t write_run_rpcs() const { return write_run_rpcs_.value(); }
  // Writes that succeeded on ≥1 but not all replicas (failed benefactors
  // were MarkDead'd; re-replication is the manager's repair job).
  uint64_t degraded_writes() const { return degraded_writes_.value(); }
  // Reads that hit a checksum-mismatch (CORRUPT) reply and fell over to
  // another replica; the bad copy was reported for quarantine + repair.
  uint64_t corrupt_failovers() const { return corrupt_failovers_.value(); }
  // Erasure-coded reads that could not be served from the k data fragments
  // alone and reconstructed the chunk from a k-subset including parity.
  uint64_t ec_degraded_reads() const { return ec_degraded_reads_.value(); }
  void ResetCounters();

 private:
  struct LocKey {
    FileId file;
    uint32_t index;
    bool operator==(const LocKey&) const = default;
  };
  struct LocKeyHash {
    size_t operator()(const LocKey& k) const {
      return static_cast<size_t>(HashPair64(k.file, k.index));
    }
  };

  // Charge the metadata round-trip to the manager node.
  void ChargeMetaRoundTrip(sim::VirtualClock& clock);
  // Un-instrumented bodies of the public data-plane calls.  The public
  // wrappers record per-tenant end-to-end latency; internal re-entries
  // (the EC read-modify-write) use the inner bodies directly so a single
  // logical operation is recorded exactly once.
  Status ReadChunksInner(sim::VirtualClock& clock, FileId id,
                         std::span<ChunkFetch> fetches);
  Status WriteChunksInner(sim::VirtualClock& clock, FileId id,
                          std::span<ChunkWrite> writes);
  // Chunk locations are immutable until a COW bumps the version, so the
  // client caches read locations after the first manager lookup (the
  // paper's FUSE client keeps the same mapping state).  Returns the
  // locations of `count` chunks from `first`: from the cache when all are
  // there and `refresh` is off, else from one manager round-trip (clamped
  // at EOF) that refreshes the cache.
  StatusOr<std::vector<ReadLocation>> ResolveReads(sim::VirtualClock& clock,
                                                   FileId id, uint32_t first,
                                                   uint32_t count,
                                                   bool refresh);
  void InvalidateLocation(FileId id, uint32_t chunk_index);
  // The per-chunk read path: replica failover.  Resolves the chunk (the
  // cached location, a fresh one on the retry — or straight away with
  // `refresh`) and reads it with a run of one from each replica in turn
  // until one serves it; an erasure stripe goes through ReadStripe.
  // Leaves `clock` at the chunk's arrival.
  Status ReadFailover(sim::VirtualClock& clock, FileId id,
                      uint32_t chunk_index, std::span<uint8_t> out,
                      bool refresh = false);
  // One streamed ReadChunkRun against `benefactor`: keys[i] is copied
  // straight into outs[i] (a chunk or a fragment) and ready_at[i]
  // receives its arrival time here.  All-or-nothing: on failure the
  // caller must re-read every item of the run (whatever the run left in
  // their destinations is superseded) — no fetched-bytes traffic is
  // committed for a failed run.
  Status ReadRun(sim::VirtualClock& clock, int benefactor,
                 std::span<const ChunkKey> keys,
                 std::span<const std::span<uint8_t>> outs,
                 std::span<int64_t> ready_at);
  // One streamed WriteChunkRun against `benefactor`.  All-or-nothing: on
  // failure the caller retries every item — nothing a failed run streamed
  // counts.
  Status WriteRun(sim::VirtualClock& clock, int benefactor,
                  std::span<const ChunkWriteItem> items);

  // Progress of one erasure stripe read: the fragments in hand (data in
  // the caller's buffer, parity in `parity`) and the positions tried.
  struct StripeRead {
    StripeRead() = default;
    explicit StripeRead(const StoreConfig& cfg)
        : have(cfg.ec_fragments(), 0),
          tried(cfg.ec_fragments(), 0),
          parity(cfg.ec_m),
          last(Unavailable("fewer than k fragments readable")) {}
    std::vector<char> have;
    std::vector<char> tried;
    std::vector<std::vector<uint8_t>> parity;
    size_t good = 0;
    bool saw_corrupt = false;
    int64_t settled = 0;  // when the last requested fragment settled
    Status last;          // the latest failure
  };
  // Record the outcome `s` of fetching fragment `pos` of `loc` (arrived at
  // `ready_at` when OK): a dead holder is marked dead, a corrupt fragment
  // reported for quarantine, both charged on `clock`.
  void SettleFragment(sim::VirtualClock& clock, const ReadLocation& loc,
                      size_t pos, const Status& s, int64_t ready_at,
                      StripeRead& stripe);
  // The per-stripe degraded rounds: until k fragments are in hand, fetch
  // the next untried live fragments (data first, then parity) in
  // parallel — runs of one on clocks forked at the round start, joined at
  // the max — then reconstruct any missing data fragment, a degraded
  // read.  Fails only when fewer than k fragments of the stripe are
  // readable.
  Status ReadStripe(sim::VirtualClock& clock, FileId id, uint32_t chunk_index,
                    const ReadLocation& loc, std::span<uint8_t> out,
                    StripeRead& stripe);

  // One stripe of an erasure-coded flush window, ready to send: k data
  // fragments viewing the image (or `merged`, the read-modify-write
  // result), then m parity fragments.
  struct EncodedStripe {
    std::unique_ptr<uint8_t[]> merged;
    std::vector<std::vector<uint8_t>> parity;
    std::vector<std::span<const uint8_t>> frags;
  };
  // Read-modify-write, encode and checksum the stripes of an erasure-
  // coded window, charging `clock`.  Stripes whose fetch failed get that
  // status and leave `active`; the result is parallel to what remains.
  // With integrity on, each stripe's image checksum is appended to `crcs`
  // and its positional fragment checksums to `frag_crcs`.
  std::vector<EncodedStripe> EncodeStripes(
      sim::VirtualClock& clock, FileId id, std::span<ChunkWrite> writes,
      std::vector<size_t>& active, std::vector<std::optional<uint32_t>>& crcs,
      std::vector<uint32_t>& frag_crcs);

  net::Cluster& cluster_;
  Manager& manager_;
  const int local_node_;
  QosScheduler* qos_ = nullptr;
  TenantId tenant_ = kTenantForeground;
  Counter bytes_fetched_;
  Counter bytes_flushed_;
  Counter meta_rtts_;
  Counter run_rpcs_;
  Counter write_run_rpcs_;
  Counter degraded_writes_;
  Counter corrupt_failovers_;
  Counter ec_degraded_reads_;
  std::mutex loc_mutex_;
  std::unordered_map<LocKey, ReadLocation, LocKeyHash> loc_cache_;
};

}  // namespace nvm::store
