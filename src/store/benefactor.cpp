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
  const uint64_t byte = next() % victim.data.size();
  victim.data[byte] ^= static_cast<uint8_t>(1u << (next() % 8));
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
  if (byte_offset >= it->second.data.size()) {
    return InvalidArgument("CorruptChunk: offset past stored blob");
  }
  it->second.data[byte_offset] ^= xor_mask;
  bitrot_flips_.Add(1);
  return OkStatus();
}

Benefactor::CopyOut Benefactor::CopyOutLocked(const StoredChunk& chunk,
                                              std::span<uint8_t> out) const {
  NVM_CHECK(chunk.data.size() == out.size(), "stored blob is %zu bytes, read "
            "asks for %zu", chunk.data.size(), out.size());
  CopyOut copy;
  copy.offset = chunk.ssd_offset;
  copy.verified = config_.verify_reads && chunk.has_crc;
  if (copy.verified) {
    // One pass: the bytes hashed are exactly the bytes delivered.
    copy.intact =
        Crc32cCopy(out.data(), chunk.data.data(), out.size()) == chunk.crc;
  } else {
    std::memcpy(out.data(), chunk.data.data(), out.size());
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
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = chunks_.find(key);
      if (it != chunks_.end()) copy = CopyOutLocked(it->second, out);
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
    sim::VirtualClock& clock, const ChunkKey& key, const Bitmap& dirty,
    std::span<const uint8_t> data, const uint32_t* crc, uint32_t* stored_crc) {
  MergeResult result;
  const uint64_t blob = data.size();
  const size_t dirty_pages = dirty.PopCount();
  const bool full_image = dirty_pages == dirty.size();
  bool verified_base = false;
  bool hashed_merge = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      StoredChunk chunk;
      // A fresh chunk reads as zeros outside its dirty pages; a full-image
      // write overwrites every byte below, so it skips the zero-fill.
      if (!full_image) chunk.data.assign(blob, 0);
      chunk.ssd_offset = AllocateOffset();
      it = chunks_.emplace(key, std::move(chunk)).first;
    } else {
      NVM_CHECK(it->second.data.size() == blob,
                "blob size changed under %s", key.ToString().c_str());
    }
    StoredChunk& chunk = it->second;
    if (config_.integrity() && chunk.has_crc && dirty_pages > 0 &&
        !full_image) {
      // Partial-dirty merge onto an existing image: verify the base first.
      // Recomputing the merged checksum over unverified clean pages would
      // launder bit rot into a fresh, matching checksum — the one state no
      // scrub could ever catch.
      verified_base = true;
      result.base_corrupt =
          Crc32c(chunk.data.data(), chunk.data.size()) != chunk.crc;
    }
    if (!result.base_corrupt) {
      result.offset = chunk.ssd_offset;
      // Past half the chunk, hashing the dirty pages twice (old and new
      // bytes) costs more than rehashing the merged image once.
      const bool derive = verified_base && 2 * dirty_pages <= dirty.size();
      uint32_t merged_crc = chunk.crc;
      if (full_image) {
        chunk.data.assign(data.begin(), data.end());
      } else {
        dirty.ForEachSet([&](size_t page) {
          const uint64_t off = page * config_.page_bytes;
          if (derive) {
            merged_crc = Crc32cUpdate(merged_crc, chunk.data.size(), off,
                                      chunk.data.data() + off,
                                      data.data() + off, config_.page_bytes);
          }
          std::memcpy(chunk.data.data() + off, data.data() + off,
                      config_.page_bytes);
        });
      }
      result.pages_written = dirty_pages;
      if (config_.integrity() && dirty_pages > 0) {
        if (crc != nullptr && full_image) {
          // Full-image write: the client already computed (and paid for)
          // the checksum of exactly these bytes — store it verbatim.
          chunk.crc = *crc;
        } else {
          // The stored image is a merge of old and new pages, so the
          // checksum must cover the merged result.
          chunk.crc = derive ? merged_crc
                             : Crc32c(chunk.data.data(), chunk.data.size());
          hashed_merge = true;
        }
        chunk.has_crc = true;
      }
      if (stored_crc != nullptr && chunk.has_crc) *stored_crc = chunk.crc;
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
    const std::vector<uint8_t>& data = it->second.data;
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
  bool first_data_chunk = true;
  for (const ChunkWriteItem& item : items) {
    // A crash between chunks takes down the rest of the run: the caller
    // sees one UNAVAILABLE for the whole run and must treat every item as
    // unwritten on this replica.
    NVM_RETURN_IF_ERROR(EnsureAlive());
    NVM_CHECK(item.dirty != nullptr);
    NVM_CHECK(IsBlobSize(item.data.size()));
    NVM_CHECK(item.dirty->size() * config_.page_bytes == item.data.size());

    if (item.needs_clone) {
      // The clone instruction is its own control message; the local copy
      // must complete before the dirty pages can land on the fresh version.
      const int64_t instr_at =
          send(RunMsg::kControl, t0, config_.meta_request_bytes);
      clock.AdvanceTo(instr_at);
      NVM_RETURN_IF_ERROR(
          CloneChunk(clock, item.clone_from, item.key, tenant));
    }

    const uint64_t dirty_bytes = item.dirty->PopCount() * config_.page_bytes;
    // Dirty pages stream from the run's start (the client has them all in
    // hand at t0); a post-clone payload can only start once the clone has
    // been instructed and applied.
    const int64_t arrive = send(RunMsg::kPayload,
                                item.needs_clone ? clock.now() : t0,
                                dirty_bytes);
    clock.AdvanceTo(arrive);

    const MergeResult merge =
        MergeDirtyPages(clock, item.key, *item.dirty, item.data,
                        item.has_crc ? &item.crc : nullptr, item.stored_crc);
    if (merge.base_corrupt) {
      // The whole run aborts (the stream protocol has no per-item status);
      // the caller retries each item in a run of its own, where the
      // corrupt replica is reported and the healthy items still land.
      return Corrupt("benefactor " + std::to_string(id_) +
                     ": pre-image checksum mismatch merging into " +
                     item.key.ToString() + " mid-run");
    }
    if (merge.pages_written > 0) {
      const uint64_t bytes = merge.pages_written * config_.page_bytes;
      // The run occupies one device queueing slot: the first programmed
      // chunk pays the per-request write latency, the rest stream at
      // bandwidth.  No admission here: `send` admitted the payload before
      // it went on the wire (see AdmitTransfer's contract).
      node_.ssd().ChargeWrite(clock, merge.offset, bytes, first_data_chunk);
      first_data_chunk = false;
      data_bytes_in_.Add(bytes);
      MaybeKillAfterWrite();
      MaybeCorruptAfterWrite();
    }
  }
  return OkStatus();
}

Status Benefactor::CloneChunk(sim::VirtualClock& clock, const ChunkKey& from,
                              const ChunkKey& to, TenantId tenant) {
  NVM_RETURN_IF_ERROR(EnsureAlive());
  uint64_t src_offset = 0;
  uint64_t dst_offset = 0;
  bool materialised = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chunks_.find(from);
    if (it != chunks_.end()) {
      StoredChunk clone;
      clone.data = it->second.data;
      clone.ssd_offset = AllocateOffset();
      // The clone inherits the source's checksum: a local copy of bytes
      // whose crc is already known needs no recompute (any rot in the
      // source propagates and is caught by the clone's verification).
      clone.has_crc = it->second.has_crc;
      clone.crc = it->second.crc;
      src_offset = it->second.ssd_offset;
      dst_offset = clone.ssd_offset;
      chunks_.emplace(to, std::move(clone));
      materialised = true;
    }
    // Cloning a sparse (never-written) chunk needs no data movement: the
    // clone is sparse too.
  }
  if (materialised) {
    AdmitTransfer(clock, tenant, config_.chunk_bytes, /*is_write=*/false,
                  /*wire_bytes=*/0);
    node_.ssd().ChargeRead(clock, src_offset, config_.chunk_bytes);
    AdmitTransfer(clock, tenant, config_.chunk_bytes, /*is_write=*/true,
                  /*wire_bytes=*/0);
    node_.ssd().ChargeWrite(clock, dst_offset, config_.chunk_bytes);
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
  *crc = Crc32c(it->second.data.data(), it->second.data.size());
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
  auto it = chunks_.find(key);
  if (it != chunks_.end()) {
    free_offsets_.push_back(it->second.ssd_offset);
    chunks_.erase(it);
  }
  return OkStatus();
}

}  // namespace nvm::store
