#include "store/benefactor.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <tuple>

#include "common/checksum.hpp"
#include "store/qos.hpp"

namespace nvm::store {

Benefactor::Benefactor(int id, net::Node& node, uint64_t contributed_bytes,
                       const StoreConfig& config)
    : id_(id),
      node_(node),
      contributed_bytes_(contributed_bytes),
      config_(config) {
  NVM_CHECK(node.has_ssd(), "benefactor requires an SSD on node %d",
            node.id());
}

uint64_t Benefactor::bytes_used() const {
  return reserved_bytes_.load(std::memory_order_relaxed);
}

uint64_t Benefactor::bytes_free() const {
  return contributed_bytes_ - bytes_used();
}

size_t Benefactor::num_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.size();
}

Status Benefactor::EnsureAlive() const {
  if (!alive_) {
    return Unavailable("benefactor " + std::to_string(id_) + " is down");
  }
  return OkStatus();
}

void Benefactor::AdmitTransfer(sim::VirtualClock& clock, TenantId tenant,
                               uint64_t ssd_bytes, bool is_write,
                               uint64_t wire_bytes) {
  if (qos_ == nullptr || !qos_->enabled()) return;
  const sim::DeviceProfile& p = node_.ssd().profile();
  const int64_t service = sim::TransferNs(
      ssd_bytes, is_write ? p.write_bw_mbps : p.read_bw_mbps,
      is_write ? p.write_latency_ns : p.read_latency_ns);
  const int64_t start = qos_->AdmitChunk(id_, node_.id(), tenant, service,
                                         wire_bytes, clock.now());
  if (start > clock.now()) clock.AdvanceTo(start);
}

Status Benefactor::ReserveChunks(uint64_t count) {
  return ReserveBytes(count * config_.chunk_bytes);
}

void Benefactor::ReleaseChunkReservation(uint64_t count) {
  ReleaseBytes(count * config_.chunk_bytes);
}

Status Benefactor::ReserveBytes(uint64_t bytes) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  // CAS loop bounded by the contribution: concurrent reservers (write
  // preparers, repair planners on different metadata shards) race here
  // instead of on a mutex, and a loser of the capacity check fails cleanly.
  uint64_t cur = reserved_bytes_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + bytes > contributed_bytes_) {
      return OutOfSpace("benefactor " + std::to_string(id_) +
                        ": reservation exceeds contribution of " +
                        FormatBytes(contributed_bytes_));
    }
    if (reserved_bytes_.compare_exchange_weak(cur, cur + bytes,
                                              std::memory_order_relaxed)) {
      return OkStatus();
    }
  }
}

void Benefactor::ReleaseBytes(uint64_t bytes) {
  const uint64_t prev =
      reserved_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  NVM_CHECK(prev >= bytes);
}

uint64_t Benefactor::AllocateOffset() {
  if (!free_offsets_.empty()) {
    const uint64_t off = free_offsets_.back();
    free_offsets_.pop_back();
    return off;
  }
  const uint64_t off = next_offset_;
  next_offset_ += config_.chunk_bytes;
  return off;
}

void Benefactor::MaybeKillAfterRead() {
  uint64_t n = kill_after_reads_.load(std::memory_order_relaxed);
  while (n > 0 &&
         !kill_after_reads_.compare_exchange_weak(n, n - 1,
                                                  std::memory_order_relaxed)) {
  }
  if (n == 1) alive_ = false;
}

void Benefactor::MaybeKillAfterWrite() {
  uint64_t n = kill_after_writes_.load(std::memory_order_relaxed);
  while (n > 0 &&
         !kill_after_writes_.compare_exchange_weak(
             n, n - 1, std::memory_order_relaxed)) {
  }
  if (n == 1) alive_ = false;
}

void Benefactor::CorruptAfterWrites(uint64_t n, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  corrupt_period_ = n;
  corrupt_countdown_ = n;
  corrupt_rng_ = seed;
}

void Benefactor::MaybeCorruptAfterWrite() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (corrupt_period_ == 0) return;
  if (--corrupt_countdown_ > 0) return;
  corrupt_countdown_ = corrupt_period_;
  if (chunks_.empty()) return;
  // Deterministic victim pick: walk the rng over the sorted key set so a
  // given seed flips the same bits regardless of hash-map iteration order.
  std::vector<ChunkKey> keys;
  keys.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) keys.push_back(key);
  std::sort(keys.begin(), keys.end(), [](const ChunkKey& a, const ChunkKey& b) {
    return std::tie(a.origin_file, a.index, a.version) <
           std::tie(b.origin_file, b.index, b.version);
  });
  auto next = [this] {
    corrupt_rng_ = Mix64(corrupt_rng_ + 0x9e3779b97f4a7c15ULL);
    return corrupt_rng_;
  };
  StoredChunk& victim = chunks_[keys[next() % keys.size()]];
  const uint64_t byte = next() % victim.size;
  victim.Mutable(victim.size)[byte] ^= static_cast<uint8_t>(1u << (next() % 8));
  bitrot_flips_.Add(1);
}

Status Benefactor::CorruptChunk(const ChunkKey& key, uint64_t byte_offset,
                                uint8_t xor_mask) {
  if (xor_mask == 0) {
    return InvalidArgument("CorruptChunk: empty mask");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return NotFound("no stored chunk " + key.ToString() + " to corrupt");
  }
  if (byte_offset >= it->second.size) {
    return InvalidArgument("CorruptChunk: offset past stored blob");
  }
  it->second.Mutable(it->second.size)[byte_offset] ^= xor_mask;
  bitrot_flips_.Add(1);
  return OkStatus();
}

Benefactor::CopyOut Benefactor::CopyOutLocked(const StoredChunk& chunk,
                                              std::span<uint8_t> out) const {
  NVM_CHECK(chunk.size == out.size(), "stored blob is %zu bytes, read "
            "asks for %zu", chunk.size, out.size());
  CopyOut copy;
  copy.offset = chunk.ssd_offset;
  copy.verified = config_.verify_reads && chunk.has_crc;
  if (copy.verified) {
    // One pass: the bytes hashed are exactly the bytes delivered.
    copy.intact =
        Crc32cCopy(out.data(), chunk.data().data(), out.size()) == chunk.crc;
  } else {
    std::memcpy(out.data(), chunk.data().data(), out.size());
  }
  return copy;
}

Status Benefactor::ReadChunkRun(sim::VirtualClock& clock,
                                std::span<const ChunkKey> keys,
                                std::span<const std::span<uint8_t>> outs,
                                const ChunkRunSink& sink, TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  NVM_CHECK(outs.size() == keys.size());
  read_requests_.Add(1);
  bool first_data_chunk = true;
  // The checksum engine pipelines with the device stream: chunk i is
  // verified while chunk i+1 streams off the device, so only the tail
  // verification extends the run (`clock` tracks the device timeline,
  // `verify_done_ns` the engine).
  int64_t verify_done_ns = clock.now();
  bool verified_any = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    // A crash between chunks takes down the rest of the run: the caller
    // sees one UNAVAILABLE for the whole run and must discard whatever it
    // already received.
    NVM_RETURN_IF_ERROR(EnsureAlive());
    const ChunkKey& key = keys[i];
    const std::span<uint8_t> out = outs[i];
    NVM_CHECK(IsBlobSize(out.size()));
    ChunkRunItem item;
    item.key = key;
    std::optional<CopyOut> copy;
    bool quarantined = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = chunks_.find(key);
      if (it != chunks_.end()) {
        copy = CopyOutLocked(it->second, out);
      } else {
        quarantined = quarantined_.contains(key);
      }
    }
    if (quarantined) {
      // The copy was stripped as corrupt, but the reader's location still
      // names it: its absence is not a hole, and zeros would be wrong
      // bytes.  The caller fails over and drops the stale location.
      return NotFound("benefactor " + std::to_string(id_) + ": " +
                      key.ToString() + " was quarantined here");
    }
    if (!copy) {
      // Sparse chunk: the stream carries only the "no such chunk" marker,
      // no device access (the backing file has a hole here) — unless the
      // benefactor died since the check above: a retired one drops its
      // bytes right after Kill(), and a miss then must not read as zeros.
      NVM_RETURN_IF_ERROR(EnsureAlive());
      std::memset(out.data(), 0, out.size());
      item.sparse = true;
      item.ready_at = clock.now();
      NVM_RETURN_IF_ERROR(sink(item));
      continue;
    }
    // The run occupies one device queueing slot: the first stored chunk
    // pays the per-request read latency, the rest stream at bandwidth.
    // QoS admits chunk-by-chunk, so a throttled tenant's long run leaves
    // gaps other tenants backfill instead of one multi-millisecond hog.
    AdmitTransfer(clock, tenant, out.size(), /*is_write=*/false, out.size());
    node_.ssd().ChargeRead(clock, copy->offset, out.size(), first_data_chunk);
    first_data_chunk = false;
    data_bytes_out_.Add(out.size());
    // Verify before the chunk enters the reply stream; a mismatch aborts
    // the whole run (like a mid-run death, but with CORRUPT) once the
    // check that found it is done, and the caller falls over to another
    // replica.
    if (copy->verified) {
      verify_done_ns = std::max(verify_done_ns, clock.now()) +
                       config_.checksum_ns(out.size());
      verified_any = true;
      if (!copy->intact) {
        clock.AdvanceTo(verify_done_ns);
        return Corrupt("benefactor " + std::to_string(id_) +
                       ": checksum mismatch on " + key.ToString() +
                       " mid-run");
      }
      item.ready_at = verify_done_ns;
    } else {
      item.ready_at = clock.now();
    }
    NVM_RETURN_IF_ERROR(sink(item));
    MaybeKillAfterRead();
  }
  // The run itself is not complete until the last chunk clears the engine.
  if (verified_any && verify_done_ns > clock.now()) {
    clock.Advance(verify_done_ns - clock.now());
  }
  return OkStatus();
}

Benefactor::MergeResult Benefactor::MergeDirtyPages(
    sim::VirtualClock& clock, const ChunkWriteItem& item) {
  MergeResult result;
  const Bitmap& dirty = *item.dirty;
  const std::span<const uint8_t> data = item.data;
  const uint64_t blob = data.size();
  const uint64_t page = config_.page_bytes;
  const size_t dirty_pages = dirty.PopCount();
  const bool full_image = dirty_pages == dirty.size();
  bool verified_base = false;
  bool hashed_merge = false;
  bool certified = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(item.key);
    // The image the dirty pages land on: the stored one in place, the
    // shared version's for a copy-on-write item (absent: a hole, zeros).
    const StoredChunk* base = nullptr;
    if (item.needs_clone) {
      auto src = chunks_.find(item.clone_from);
      if (src != chunks_.end()) base = &src->second;
    } else if (it != chunks_.end()) {
      base = &it->second;
    }
    NVM_CHECK(base == nullptr || base->size == blob,
              "blob size changed under %s", item.key.ToString().c_str());
    if (item.needs_clone && item.has_crc && !full_image) {
      // The client's checksum covers the merged blob it expects: derive
      // the merged one from the base's recorded checksum and the dirty
      // pages alone (no rehash of the base), and land nothing unless they
      // agree — a missing or stale base, or rot under a dirty page, fails
      // the item so the client resends the blob whole.
      certified = base != nullptr && base->has_crc;
      if (certified) {
        uint32_t derived = base->crc;
        dirty.ForEachSet([&](size_t p) {
          derived = Crc32cUpdate(derived, blob, p * page,
                                 base->data().data() + p * page,
                                 data.data() + p * page, page);
        });
        certified = derived == item.crc;
      }
      // The old and the new dirty pages were hashed.
      clock.Advance(config_.checksum_ns(2 * dirty_pages * page));
      if (!certified) {
        result.corrupt = true;
        return result;
      }
    } else if (config_.integrity() && base != nullptr && base->has_crc &&
               dirty_pages > 0 && !full_image) {
      // Partial-dirty merge onto an existing image: verify the base first.
      // Recomputing the merged checksum over unverified clean pages would
      // launder bit rot into a fresh, matching checksum — the one state no
      // scrub could ever catch.
      verified_base = true;
      if (Crc32c(base->data().data(), blob) != base->crc) {
        result.corrupt = true;
        clock.Advance(config_.checksum_ns(blob));
        return result;
      }
    }

    if (it == chunks_.end()) {
      StoredChunk chunk;
      chunk.ssd_offset = AllocateOffset();
      it = chunks_.emplace(item.key, std::move(chunk)).first;
    }
    // A landed write supersedes any quarantine of the key here.
    quarantined_.erase(item.key);
    StoredChunk& chunk = it->second;
    if (item.needs_clone && !full_image) {
      // The fresh version starts as the base (its bytes and recorded
      // checksum) and is programmed whole below.
      if (base != nullptr) {
        chunk.bytes = base->bytes;
        chunk.size = blob;
      } else {
        std::memset(chunk.Mutable(blob, /*keep=*/false), 0, blob);
      }
      chunk.has_crc = base != nullptr && base->has_crc;
      chunk.crc = base != nullptr ? base->crc : 0;
    } else if (chunk.bytes == nullptr && !full_image) {
      // A fresh chunk reads as zeros outside its dirty pages; a full-image
      // write overwrites every byte below, so it skips the zero-fill.
      std::memset(chunk.Mutable(blob, /*keep=*/false), 0, blob);
    }
    result.offset = chunk.ssd_offset;
    // Past half the chunk, hashing the dirty pages twice (old and new
    // bytes) costs more than rehashing the merged image once.
    const bool derive = verified_base && 2 * dirty_pages <= dirty.size();
    uint32_t merged_crc = chunk.crc;
    if (full_image) {
      std::memcpy(chunk.Mutable(blob, /*keep=*/false), data.data(), blob);
    } else if (dirty_pages > 0) {
      uint8_t* bytes = chunk.Mutable(blob);
      dirty.ForEachSet([&](size_t p) {
        const uint64_t off = p * page;
        if (derive) {
          merged_crc = Crc32cUpdate(merged_crc, blob, off, bytes + off,
                                    data.data() + off, page);
        }
        std::memcpy(bytes + off, data.data() + off, page);
      });
    }
    result.bytes = item.needs_clone ? blob : dirty_pages * page;
    if (config_.integrity() && dirty_pages > 0) {
      if (item.has_crc && (full_image || certified)) {
        // A full image, or a certified merge: the client already computed
        // (and paid for) the checksum of exactly these bytes — store it
        // verbatim.
        chunk.crc = item.crc;
      } else {
        // The stored image is a merge of old and new pages, so the
        // checksum must cover the merged result.
        chunk.crc = derive ? merged_crc : Crc32c(chunk.data().data(), blob);
        hashed_merge = true;
      }
      chunk.has_crc = true;
    }
    if (item.stored_crc != nullptr && chunk.has_crc) {
      *item.stored_crc = chunk.crc;
    }
  }
  if (verified_base) clock.Advance(config_.checksum_ns(blob));
  if (hashed_merge) clock.Advance(config_.checksum_ns(blob));
  return result;
}

Status Benefactor::VerifyChunk(sim::VirtualClock& clock, const ChunkKey& key,
                               uint32_t expected_crc, bool* sparse,
                               TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  verify_requests_.Add(1);
  if (sparse != nullptr) *sparse = false;
  uint64_t bytes = 0;
  uint64_t offset = 0;
  bool intact = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      // Reserved-but-never-written: nothing stored, nothing to rot.
      if (sparse != nullptr) *sparse = true;
      return OkStatus();
    }
    // Hashed in place: the verdict is all that leaves the lock.
    const std::span<const uint8_t> data = it->second.data();
    bytes = data.size();
    offset = it->second.ssd_offset;
    intact = Crc32c(data.data(), data.size()) == expected_crc;
  }
  // The verification read hits the device like any other read, but the
  // bytes never leave the node: only the verdict crosses the network.
  // Charged for the stored blob's actual size — a full chunk for
  // replicated data, one fragment for erasure-coded data.
  AdmitTransfer(clock, tenant, bytes, /*is_write=*/false, /*wire_bytes=*/0);
  node_.ssd().ChargeRead(clock, offset, bytes);
  clock.Advance(config_.checksum_ns(bytes));
  if (!intact) {
    return Corrupt("benefactor " + std::to_string(id_) +
                   ": scrub checksum mismatch on " + key.ToString());
  }
  return OkStatus();
}

Status Benefactor::WriteChunkRun(sim::VirtualClock& clock,
                                 std::span<const ChunkWriteItem> items,
                                 const ChunkRunSend& send, TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  write_requests_.Add(1);
  const int64_t t0 = clock.now();
  // The run occupies one device queueing slot: the first read pays the
  // per-request read latency, the first program the write latency, and
  // the rest stream at bandwidth.
  bool first_read = true;
  bool first_program = true;
  for (const ChunkWriteItem& item : items) {
    // A crash between chunks takes down the rest of the run: the caller
    // sees one UNAVAILABLE for the whole run and must treat every item as
    // unwritten on this replica.
    NVM_RETURN_IF_ERROR(EnsureAlive());
    NVM_CHECK(item.dirty != nullptr);
    const uint64_t blob = item.data.size();
    NVM_CHECK(IsBlobSize(blob));
    NVM_CHECK(item.dirty->size() * config_.page_bytes == blob);
    const uint64_t dirty_bytes = item.dirty->PopCount() * config_.page_bytes;

    if (item.needs_clone) {
      // The clone instruction is its own control message; the shared
      // version's blob is read off the device as soon as it arrives,
      // while the dirty pages stream in behind it.
      const int64_t instr_at =
          send(RunMsg::kControl, t0, config_.meta_request_bytes);
      clock.AdvanceTo(instr_at);
      std::optional<uint64_t> src_offset;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto src = chunks_.find(item.clone_from);
        if (src != chunks_.end()) src_offset = src->second.ssd_offset;
      }
      if (src_offset) {  // a hole reads as zeros without the device
        AdmitTransfer(clock, tenant, blob, /*is_write=*/false,
                      /*wire_bytes=*/0);
        node_.ssd().ChargeRead(clock, *src_offset, blob, first_read);
        first_read = false;
      }
    }

    // Dirty pages stream from the run's start: the client has them all
    // in hand at t0.
    const int64_t arrive = send(RunMsg::kPayload, t0, dirty_bytes);
    clock.AdvanceTo(arrive);

    const MergeResult merge = MergeDirtyPages(clock, item);
    if (merge.corrupt) {
      // The whole run aborts (the stream protocol has no per-item status);
      // the caller retries each item in a run of its own, where the
      // corrupt replica is reported (or the fragment resent whole) and
      // the healthy items still land.
      return Corrupt("benefactor " + std::to_string(id_) +
                     ": pre-image checksum mismatch merging into " +
                     item.key.ToString() + " mid-run");
    }
    if (merge.bytes > 0) {
      // No admission for the payload here: `send` admitted it before it
      // went on the wire (see AdmitTransfer's contract).  A copy-on-write
      // item programs its whole blob, so the clean remainder is admitted
      // now.
      if (item.needs_clone) {
        AdmitTransfer(clock, tenant, blob - dirty_bytes, /*is_write=*/true,
                      /*wire_bytes=*/0);
      }
      node_.ssd().ChargeWrite(clock, merge.offset, merge.bytes, first_program);
      first_program = false;
      data_bytes_in_.Add(merge.bytes);
      MaybeKillAfterWrite();
      MaybeCorruptAfterWrite();
    }
  }
  return OkStatus();
}

bool Benefactor::HasChunk(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.contains(key);
}

std::vector<ChunkKey> Benefactor::StoredChunkKeys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ChunkKey> keys;
  keys.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) keys.push_back(key);
  return keys;
}

bool Benefactor::StoredContentCrc(const ChunkKey& key, uint32_t* crc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return false;
  *crc = Crc32c(it->second.data().data(), it->second.data().size());
  return true;
}

bool Benefactor::StoredChunkCrc(const ChunkKey& key, bool* has_crc,
                                uint32_t* crc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return false;
  *has_crc = it->second.has_crc;
  *crc = it->second.crc;
  return true;
}

Status Benefactor::DeleteChunk(const ChunkKey& key) {
  // Deletion is allowed even on a dead benefactor: the manager is cleaning
  // up its metadata and the data is already unreachable.
  std::lock_guard<std::mutex> lock(mutex_);
  DeleteChunkLocked(key);
  return OkStatus();
}

void Benefactor::QuarantineChunk(const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  DeleteChunkLocked(key);
  quarantined_.insert(key);
}

void Benefactor::DeleteChunkLocked(const ChunkKey& key) {
  auto it = chunks_.find(key);
  if (it != chunks_.end()) {
    free_offsets_.push_back(it->second.ssd_offset);
    chunks_.erase(it);
  }
}

}  // namespace nvm::store
