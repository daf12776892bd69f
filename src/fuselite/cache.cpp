#include "fuselite/cache.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>

#include "common/log.hpp"

namespace nvm::fuselite {

namespace {
// Upper bound on one batched fetch, independent of cache size: keeps a
// single huge read from monopolising the daemon lanes and the NICs.
constexpr uint32_t kMaxBatchChunks = 32;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

ChunkCache::ChunkCache(store::StoreClient& client, FuseliteConfig config)
    : client_(client), config_(config) {
  capacity_chunks_ =
      std::max<uint64_t>(1, config_.cache_bytes / chunk_bytes());
  const size_t shards = RoundUpPow2(std::max<size_t>(1, config_.cache_shards));
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  const int lanes = std::max(1, config_.daemon_threads);
  for (int i = 0; i < lanes; ++i) {
    daemons_.push_back(std::make_unique<sim::Resource>(
        "fuse-daemon" + std::to_string(i)));
  }
}

void ChunkCache::SetAdvice(store::FileId file, AccessAdvice advice) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (advice == AccessAdvice::kNormal) {
    advice_.erase(file);
  } else {
    advice_[file] = advice;
  }
}

AccessAdvice ChunkCache::advice(store::FileId file) const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto it = advice_.find(file);
  return it == advice_.end() ? AccessAdvice::kNormal : it->second;
}

std::vector<size_t> ChunkCache::ShardOccupancy() const {
  std::vector<size_t> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mutex);
    out.push_back(sh->slots.size());
  }
  return out;
}

uint32_t ChunkCache::readahead_window(store::FileId file) const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto it = streams_.find(file);
  if (it == streams_.end() || it->second.empty()) return 0;
  const StreamState* best = &it->second[0];
  for (const auto& s : it->second) {
    if (s.last_use > best->last_use) best = &s;
  }
  return best->window;
}

ChunkCache::Slot ChunkCache::NewSlot() const {
  Slot slot;
  slot.data = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes());
  slot.dirty = Bitmap(chunk_bytes() / page_bytes());
  slot.valid = Bitmap(chunk_bytes() / page_bytes());
  return slot;
}

void ChunkCache::LinkLocked(Shard& sh, const SlotKey& key, Slot& slot) {
  const uint64_t tick = lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  sh.lru.push_front({key, tick});
  slot.lru_it = sh.lru.begin();
  sh.oldest_tick.store(sh.lru.back().second, std::memory_order_relaxed);
}

void ChunkCache::TouchLocked(Shard& sh, Slot& slot) {
  slot.lru_it->second = lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  sh.lru.splice(sh.lru.begin(), sh.lru, slot.lru_it);
  sh.oldest_tick.store(sh.lru.back().second, std::memory_order_relaxed);
}

void ChunkCache::UnlinkLocked(Shard& sh, Slot& slot) {
  sh.lru.erase(slot.lru_it);
  sh.oldest_tick.store(sh.lru.empty() ? ~0ULL : sh.lru.back().second,
                       std::memory_order_relaxed);
}

bool ChunkCache::EraseSlotLocked(Shard& sh, SlotMap::iterator& it) {
  if (it->second.in_flight) return false;
  UnlinkLocked(sh, it->second);
  if (it->second.ra_pending) {
    ra_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  it = sh.slots.erase(it);
  resident_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

int64_t ChunkCache::ScheduleOnDaemon(int64_t t0, int64_t duration_ns) {
  if (duration_ns <= 0) return t0;
  auto& lane = *daemons_[daemon_rr_.fetch_add(1, std::memory_order_relaxed) %
                         daemons_.size()];
  return lane.Schedule(t0, duration_ns) + duration_ns;
}

void ChunkCache::SerializeOnDaemon(sim::VirtualClock& clock, int64_t t0) {
  // The operation's device/network reservations stay where they were made;
  // the *caller* additionally queues on one of the daemon's worker lanes
  // for the operation's duration, which is what throttles concurrent
  // processes of one node.
  clock.AdvanceTo(ScheduleOnDaemon(t0, clock.now() - t0));
}

Status ChunkCache::FlushFileWindow(sim::VirtualClock& clock,
                                   store::FileId file,
                                   std::span<const uint32_t> indices,
                                   bool background) {
  if (indices.empty()) return OkStatus();
  // Lock every involved shard in ascending shard-index order.  Every other
  // code path holds at most one shard lock at a time, so this total order
  // cannot cycle.
  std::vector<size_t> shard_idx;
  shard_idx.reserve(indices.size());
  for (uint32_t index : indices) {
    shard_idx.push_back(HashPair64(file, index) & shard_mask_);
  }
  std::sort(shard_idx.begin(), shard_idx.end());
  shard_idx.erase(std::unique(shard_idx.begin(), shard_idx.end()),
                  shard_idx.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shard_idx.size());
  for (size_t si : shard_idx) locks.emplace_back(shards_[si]->mutex);

  // Re-find the slots (the caller peeked without holding all the locks):
  // clean and evicted ones are skipped.  `whole` is reserved up front so
  // the all-set bitmaps the ablation path points into never relocate.
  struct Entry {
    Slot* slot;
    size_t pages;  // pages submitted for this chunk
  };
  std::vector<Entry> entries;
  std::vector<store::StoreClient::ChunkWrite> writes;
  std::vector<Bitmap> whole;
  entries.reserve(indices.size());
  writes.reserve(indices.size());
  whole.reserve(indices.size());
  for (uint32_t index : indices) {
    const SlotKey key{file, index};
    Shard& sh = shard_for(key);
    auto it = sh.slots.find(key);
    if (it == sh.slots.end() || it->second.dirty.None()) continue;
    store::StoreClient::ChunkWrite w;
    w.index = index;
    if (config_.dirty_page_writeback) {
      w.dirty = &it->second.dirty;
    } else {
      // Ablation / Table VII "w/o optimisation": ship the whole chunk.
      whole.emplace_back(it->second.dirty.size());
      whole.back().SetAll();
      w.dirty = &whole.back();
    }
    w.image = bytes(it->second);
    w.valid = &it->second.valid;
    writes.push_back(w);
    entries.push_back({&it->second, w.dirty->PopCount()});
  }
  if (writes.empty()) return OkStatus();

  // Background (eviction-driven) write-back runs on a detached clock —
  // the modelled kernel-writeback thread — so the evicting process keeps
  // going while the devices absorb the write.
  sim::VirtualClock detached(clock.now());
  sim::VirtualClock& wclock = background ? detached : clock;
  const int64_t t0 = wclock.now();
  // A failed batched prepare leaves every slot dirty and no traffic
  // counted — failed flushes must not inflate store_bytes_flushed().
  NVM_RETURN_IF_ERROR(client_.WriteChunks(wclock, file, writes));

  Status first = OkStatus();
  uint64_t flushed = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    if (!writes[i].status.ok()) {
      // The store never acknowledged this chunk: the pages stay dirty
      // (the cache copy is still the only one) and nothing is counted.
      if (first.ok()) first = writes[i].status;
      continue;
    }
    ++traffic_.flushed_chunks;
    traffic_.flushed_pages += entries[i].pages;
    entries[i].slot->dirty.ClearAll();
    ++flushed;
  }
  if (flushed >= 2) {
    ++traffic_.flush_batches;
    traffic_.flush_batched_chunks += flushed;
  }
  if (&wclock == &clock) SerializeOnDaemon(wclock, t0);
  return first;
}

Status ChunkCache::ReserveResidency(sim::VirtualClock& clock, size_t count) {
  resident_.fetch_add(count, std::memory_order_relaxed);
  while (resident_.load(std::memory_order_relaxed) > capacity_chunks_) {
    // Evict from the shard whose LRU tail is globally oldest.  Under
    // concurrency the relaxed scan is a heuristic; single-threaded it
    // reproduces the old global LRU exactly.
    Shard* victim = nullptr;
    uint64_t best = ~0ULL;
    for (const auto& sh : shards_) {
      const uint64_t t = sh->oldest_tick.load(std::memory_order_relaxed);
      if (t < best) {
        best = t;
        victim = sh.get();
      }
    }
    if (victim == nullptr) break;  // nothing resident to evict
    store::FileId flush_file = store::kInvalidFileId;
    std::vector<uint32_t> flush_indices;
    {
      std::lock_guard<std::mutex> lock(victim->mutex);
      if (victim->lru.empty()) continue;  // raced with another evictor
      const SlotKey key = victim->lru.back().first;
      auto it = victim->slots.find(key);
      NVM_CHECK(it != victim->slots.end());
      if (it->second.dirty.None()) {
        // Clean victim: evict immediately (the LRU holds no in-flight
        // slot, so the erase cannot be refused).
        NVM_CHECK(EraseSlotLocked(*victim, it));
        ++traffic_.evictions;
        continue;
      }
      // Dirty victim: coalesce it with the other dirty chunks of the same
      // file living in this shard into one write-back window, so eviction
      // pressure drains in batched runs instead of chunk-sized writes.  The
      // victim leads, then the lowest other indices: the window depends on
      // which chunks are dirty, never on the slot map's iteration order.
      flush_file = key.file;
      flush_indices.push_back(key.index);
      for (const auto& [skey, slot] : victim->slots) {
        if (skey.file != flush_file || skey.index == key.index) continue;
        if (slot.dirty.None()) continue;
        flush_indices.push_back(skey.index);
      }
      std::sort(flush_indices.begin() + 1, flush_indices.end());
      if (flush_indices.size() > kMaxBatchChunks) {
        flush_indices.resize(kMaxBatchChunks);
      }
    }
    // Write back outside the victim's lock (the window locks its shards
    // itself); the victim is clean on the next sweep and evicts then.  A
    // total write-back failure (no replicas reached) still wedges the
    // reservation — the dirty data has nowhere else to live — but a
    // degraded write that reached one replica is a success and no longer
    // blocks eviction.
    NVM_RETURN_IF_ERROR(FlushFileWindow(clock, flush_file, flush_indices,
                                        /*background=*/true));
  }
  return OkStatus();
}

bool ChunkCache::PageNeed::CoveredBy(const Bitmap& valid) const {
  if (ends_only) return valid.Test(first) && valid.Test(last);
  for (size_t p = first; p <= last; ++p) {
    if (!valid.Test(p)) return false;
  }
  return true;
}

StatusOr<ChunkCache::Slot*> ChunkCache::AcquireLocked(
    std::unique_lock<std::mutex>& lk, Shard& sh, sim::VirtualClock& clock,
    const SlotKey& key, const PageNeed& need, uint32_t run) {
  for (;;) {
    auto it = sh.slots.end();
    sh.landed.wait(lk, [&] {
      it = sh.slots.find(key);
      return it == sh.slots.end() || !it->second.in_flight;
    });
    Slot* slot = it == sh.slots.end() ? nullptr : &it->second;
    if (slot != nullptr) {
      // A chunk still arriving (read-ahead, or a later member of a batch)
      // costs the reader the remainder of its transfer.
      clock.AdvanceTo(slot->ready_at);
      if (slot->fresh_fetch) {
        slot->fresh_fetch = false;  // the miss that paid for the fetch
      } else {
        ++traffic_.hit_chunks;
      }
      if (slot->ra_pending) {
        slot->ra_pending = false;
        ra_pending_.fetch_sub(1, std::memory_order_relaxed);
      }
      TouchLocked(sh, *slot);
      if (need.CoveredBy(slot->valid)) return slot;
    } else if (need.first > need.last) {
      // Make room before inserting.  Eviction may target any shard
      // (including this one), so the shard lock is dropped around it.
      lk.unlock();
      Status reserved = ReserveResidency(clock, 1);
      lk.lock();
      if (!reserved.ok()) {
        resident_.fetch_sub(1, std::memory_order_relaxed);
        return reserved;
      }
      if (sh.slots.contains(key)) {
        // Another thread materialised the slot meanwhile: use that one.
        resident_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      Slot& created = sh.slots.emplace(key, NewSlot()).first->second;
      created.ready_at = clock.now();
      LinkLocked(sh, key, created);
      return &created;
    }
    lk.unlock();
    const Status filled = FetchRun(clock, key.file, key.index,
                                   slot == nullptr ? run : 1,
                                   /*prefetch=*/false);
    lk.lock();
    NVM_RETURN_IF_ERROR(filled);
  }
}

Status ChunkCache::FetchRun(sim::VirtualClock& clock, store::FileId file,
                            uint32_t first, uint32_t count, bool prefetch) {
  count = static_cast<uint32_t>(std::min<uint64_t>(
      count, std::min<uint64_t>(capacity_chunks_, kMaxBatchChunks)));
  std::array<Slot*, kMaxBatchChunks> claims{};
  std::array<store::StoreClient::ChunkFetch, kMaxBatchChunks> fetches;
  std::unique_ptr<uint8_t[]> scratch;  // claims[0] when it is partly valid
  std::array<uint32_t, kMaxBatchChunks> absent{};
  size_t n = 0;
  size_t n_absent = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const SlotKey key{file, first + i};
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mutex);
    auto it = sh.slots.find(key);
    if (it == sh.slots.end()) {
      absent[n_absent++] = key.index;
    } else if (!prefetch && i == 0 && !it->second.in_flight &&
               !it->second.valid.All()) {
      // A partly valid slot: the chunk lands through scratch, so local
      // pages are never clobbered.
      UnlinkLocked(sh, it->second);
      it->second.in_flight = true;
      claims[0] = &it->second;
      scratch = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes());
      fetches[0].index = key.index;
      fetches[0].out = {scratch.get(), chunk_bytes()};
      n = 1;
    } else if (!prefetch) {
      break;
    }
  }

  // Read-ahead runs entirely on a detached clock: the application keeps
  // computing while the chunks are in flight and only pays the residual
  // wait on arrival (ready_at handling in AcquireLocked).  A foreground
  // fill charges the metadata lookup to the caller; a batch detaches only
  // the data transfers, which the reader then drains chunk by chunk.
  sim::VirtualClock detached(clock.now());
  sim::VirtualClock& bclock = prefetch ? detached : clock;
  // Make room for the absent chunks first, as a page cache allocates its
  // pages before inserting them, then insert each as an in-flight slot
  // unless another fill claimed it meanwhile.  Only then is the store
  // read, so no write can slip in between a fill's read and its landing.
  Status status =
      n_absent > 0 ? ReserveResidency(bclock, n_absent) : OkStatus();
  for (size_t j = 0; j < n_absent; ++j) {
    const SlotKey key{file, absent[j]};
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (!status.ok() || sh.slots.contains(key)) {
      resident_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    Slot& slot = sh.slots.emplace(key, NewSlot()).first->second;
    slot.in_flight = true;
    claims[n] = &slot;
    fetches[n].index = key.index;
    fetches[n].out = bytes(slot);
    ++n;
  }
  if (n == 0) return prefetch ? OkStatus() : status;
  const std::span<store::StoreClient::ChunkFetch> batch(fetches.data(), n);
  const int64_t t0 = bclock.now();
  if (status.ok()) status = client_.ReadChunks(bclock, file, batch);
  if (!status.ok()) {
    for (auto& f : batch) f.status = status;
  }
  if (fill_hook_) fill_hook_(file, fetches[0].index, prefetch);

  // A foreground fill of one holds a daemon lane from the start of its
  // lookup to its arrival.  A batch (and all read-ahead) books only each
  // chunk's marginal completion time — the NICs already model transfer
  // queueing, and whole-batch charges would grow quadratically — in
  // arrival order, which per-benefactor streams make differ from array
  // order.
  const bool single = !prefetch && n == 1;
  std::array<uint32_t, kMaxBatchChunks> arrival{};
  for (uint32_t i = 0; i < n; ++i) arrival[i] = i;
  std::sort(arrival.begin(), arrival.begin() + n,  // stable, no buffer
            [&](uint32_t a, uint32_t b) {
              return std::pair(fetches[a].ready_at, a) <
                     std::pair(fetches[b].ready_at, b);
            });
  int64_t prev_done = bclock.now();
  uint64_t landed = 0;
  Status first_error = OkStatus();
  for (size_t k = 0; k < n; ++k) {
    const auto& f = fetches[arrival[k]];
    const bool merge = arrival[k] == 0 && scratch != nullptr;
    int64_t ready = 0;
    if (single) {
      clock.AdvanceTo(f.ready_at);
      if (f.status.ok()) SerializeOnDaemon(clock, t0);
      ready = clock.now();
    } else if (f.status.ok()) {
      const int64_t marginal = std::max<int64_t>(0, f.ready_at - prev_done);
      ready = ScheduleOnDaemon(f.ready_at - marginal, marginal);
      prev_done = std::max(prev_done, f.ready_at);
    }
    const SlotKey key{file, f.index};
    Shard& sh = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(sh.mutex);
      Slot& slot = *claims[arrival[k]];
      slot.in_flight = false;
      if (!f.status.ok()) {
        if (first_error.ok()) first_error = f.status;
        if (merge) {
          LinkLocked(sh, key, slot);  // back as it was, still partly valid
        } else {
          sh.slots.erase(key);
          resident_.fetch_sub(1, std::memory_order_relaxed);
        }
      } else {
        if (merge) {
          for (size_t p = 0; p < slot.valid.size(); ++p) {
            if (slot.valid.Test(p)) continue;
            std::memcpy(slot.data.get() + p * page_bytes(),
                        scratch.get() + p * page_bytes(), page_bytes());
            slot.valid.Set(p);
          }
        } else {
          slot.valid.SetAll();
        }
        slot.ready_at = std::max(slot.ready_at, ready);
        slot.fresh_fetch = !prefetch;
        slot.ra_pending = prefetch;
        LinkLocked(sh, key, slot);
        if (prefetch) {
          ++traffic_.prefetched_chunks;
          ra_pending_.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++traffic_.fetched_chunks;
        }
        ++landed;
      }
    }
    sh.landed.notify_all();
  }
  if (!single && landed > 0) {
    ++traffic_.batch_fetches;
    traffic_.batched_chunks += landed;
  }
  // Read-ahead past EOF or into an unavailable store just leaves the
  // chunks absent.
  return prefetch ? OkStatus() : first_error;
}

ChunkCache::PrefetchPlan ChunkCache::UpdateStreams(store::FileId file,
                                                   uint64_t pos, uint64_t n,
                                                   uint32_t index) {
  PrefetchPlan plan;
  std::lock_guard<std::mutex> lock(stream_mutex_);
  auto adv = AccessAdvice::kNormal;
  if (auto ait = advice_.find(file); ait != advice_.end()) adv = ait->second;
  auto& streams = streams_[file];
  ++stream_tick_;
  // A read continuing where one of the file's tracked streams ended
  // advances that stream and may trigger the next read-ahead batch.
  for (auto& s : streams) {
    if (s.next_offset != pos) continue;
    s.next_offset = pos + n;
    s.last_use = stream_tick_;
    if (adv == AccessAdvice::kStreamOnce && index > 0 &&
        (pos + n) % chunk_bytes() == 0) {
      // The previous chunk has been fully consumed and will not be
      // touched again: drop it immediately (evict-behind).
      plan.evict_behind = true;
    }
    if (!config_.readahead) return plan;
    // Kernel-style ramp: each batch doubles the window up to the advice
    // cap, and reaching the start of the previously issued batch (the
    // marker) triggers the next one.  The ahead-limit keeps the pipeline
    // from running more than `cap` chunks past the consumer.
    const uint32_t cap = ReadaheadCap(adv);
    if (s.ra_head == 0 || index >= s.ra_marker) {
      // Scale the batch to the global read-ahead budget: speculative
      // chunks nobody has consumed yet may fill at most half the cache,
      // or concurrent streams evict each other's windows before use.
      // Every live stream always gets at least one chunk ahead (the old
      // fixed prefetch) — a stream starved to zero would fall back to
      // full-cost foreground misses, which is worse than over-budget.
      const size_t pending = ra_pending_.load(std::memory_order_relaxed);
      const size_t budget_total = std::max<size_t>(1, capacity_chunks_ / 2);
      const auto budget = static_cast<uint32_t>(
          pending < budget_total ? budget_total - pending : 0);
      const uint32_t allowed = std::max(1u, std::min(s.window, budget));
      const uint32_t start = std::max(s.ra_head, index + 1);
      const uint32_t end = std::min(start + allowed, index + 1 + cap);
      if (end > start) {
        plan.start = start;
        plan.count = end - start;
        s.ra_marker = start;
        s.ra_head = end;
        s.window = std::min(s.window * 2, cap);
      }
    }
    return plan;
  }
  // New stream: remember it (replacing the least recently used slot when
  // the table is full) with a fresh 1-chunk read-ahead window.
  if (streams.size() < kMaxStreams) {
    streams.push_back({pos + n, stream_tick_, 1, 0, 0});
  } else {
    auto* lru = &streams[0];
    for (auto& s : streams) {
      if (s.last_use < lru->last_use) lru = &s;
    }
    *lru = {pos + n, stream_tick_, 1, 0, 0};
  }
  return plan;
}

uint32_t ChunkCache::ReadaheadCap(AccessAdvice advice) const {
  const uint32_t base = std::max<uint32_t>(1, config_.readahead_max_chunks);
  switch (advice) {
    case AccessAdvice::kWriteOnceReadMany:
      // The variable will be streamed repeatedly: run the pipeline twice
      // as deep.
      return base * 2;
    case AccessAdvice::kStreamOnce:
      // Evict-behind keeps the footprint tiny; a deep window would just
      // re-grow it, so stay one chunk ahead like the old fixed prefetch.
      return 1;
    default:
      return base;
  }
}

Status ChunkCache::Read(sim::VirtualClock& clock, store::FileId file,
                        uint64_t offset, std::span<uint8_t> out) {
  clock.Advance(config_.per_op_software_ns);
  traffic_.app_bytes_read += out.size();
  const uint64_t end_chunk =
      (offset + out.size() + chunk_bytes() - 1) / chunk_bytes();

  uint64_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const auto index = static_cast<uint32_t>(pos / chunk_bytes());
    const uint64_t within = pos % chunk_bytes();
    const uint64_t n =
        std::min<uint64_t>(chunk_bytes() - within, out.size() - done);
    const SlotKey key{file, index};

    // A miss fills the run of absent chunks the rest of this read spans
    // with one metadata round-trip and overlapped transfers.
    const auto run = static_cast<uint32_t>(
        std::min<uint64_t>(kMaxBatchChunks, end_chunk - index));
    Shard& sh = shard_for(key);
    std::unique_lock<std::mutex> lk(sh.mutex);
    NVM_ASSIGN_OR_RETURN(
        Slot * slot,
        AcquireLocked(lk, sh, clock, key,
                      {within / page_bytes(), (within + n - 1) / page_bytes()},
                      run));
    std::memcpy(out.data() + done, slot->data.get() + within, n);
    lk.unlock();

    const PrefetchPlan plan = UpdateStreams(file, pos, n, index);
    if (plan.count > 0) {
      NVM_RETURN_IF_ERROR(
          FetchRun(clock, file, plan.start, plan.count, /*prefetch=*/true));
    }
    if (plan.evict_behind) {
      const SlotKey prev{file, index - 1};
      Shard& psh = shard_for(prev);
      std::lock_guard<std::mutex> plock(psh.mutex);
      auto pit = psh.slots.find(prev);
      if (pit != psh.slots.end() && pit->second.dirty.None() &&
          EraseSlotLocked(psh, pit)) {
        ++traffic_.evictions;
      }
    }
    done += n;
  }
  return OkStatus();
}

Status ChunkCache::Write(sim::VirtualClock& clock, store::FileId file,
                         uint64_t offset, std::span<const uint8_t> in) {
  clock.Advance(config_.per_op_software_ns);
  traffic_.app_bytes_written += in.size();

  uint64_t done = 0;
  while (done < in.size()) {
    const uint64_t pos = offset + done;
    const auto index = static_cast<uint32_t>(pos / chunk_bytes());
    const uint64_t within = pos % chunk_bytes();
    const uint64_t n =
        std::min<uint64_t>(chunk_bytes() - within, in.size() - done);
    const SlotKey key{file, index};
    const size_t first_page = within / page_bytes();
    const size_t last_page = (within + n - 1) / page_bytes();
    // Partially covered head/tail pages need their old contents first
    // (read-modify-write); fully covered pages are written blind.  The
    // chunk-granular baseline (Table VII "w/o optimisation") dirties the
    // whole chunk, so all of it must be valid before any modification.
    const bool head = within % page_bytes() != 0;
    const bool tail = (within + n) % page_bytes() != 0;
    PageNeed need;
    if (!config_.dirty_page_writeback) {
      need = {0, chunk_bytes() / page_bytes() - 1};
    } else if (head || tail) {
      need = {head ? first_page : last_page, tail ? last_page : first_page,
              /*ends_only=*/true};
    }
    Shard& sh = shard_for(key);
    std::unique_lock<std::mutex> lk(sh.mutex);
    NVM_ASSIGN_OR_RETURN(Slot * slot,
                         AcquireLocked(lk, sh, clock, key, need, /*run=*/1));
    std::memcpy(slot->data.get() + within, in.data() + done, n);
    for (size_t p = first_page; p <= last_page; ++p) {
      slot->dirty.Set(p);
      slot->valid.Set(p);
    }

    done += n;
  }
  return OkStatus();
}

Status ChunkCache::Flush(sim::VirtualClock& clock, store::FileId file) {
  // Snapshot the dirty set with short per-shard peeks, then write each
  // file's chunks back in batched windows.  std::map keeps the file order
  // (and with the sort below, the window contents) deterministic.
  std::map<store::FileId, std::vector<uint32_t>> dirty;
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mutex);
    for (auto& [key, slot] : shp->slots) {
      if (file != store::kInvalidFileId && key.file != file) continue;
      if (slot.dirty.None()) continue;
      dirty[key.file].push_back(key.index);
    }
  }
  Status first = OkStatus();
  for (auto& [fid, indices] : dirty) {
    std::sort(indices.begin(), indices.end());
    for (size_t i = 0; i < indices.size(); i += kMaxBatchChunks) {
      const size_t n = std::min<size_t>(kMaxBatchChunks, indices.size() - i);
      Status s = FlushFileWindow(
          clock, fid, std::span<const uint32_t>(indices).subspan(i, n),
          /*background=*/false);
      if (first.ok() && !s.ok()) first = s;
    }
  }
  return first;
}

Status ChunkCache::Drop(sim::VirtualClock& clock, store::FileId file) {
  // Best-effort write-back of the file's dirty chunks, in batched windows.
  const Status flushed = Flush(clock, file);
  if (!flushed.ok()) {
    NVM_WLOG("write-back failed while dropping file %llu: %s",
             static_cast<unsigned long long>(file), flushed.message().c_str());
  }

  for (const auto& shp : shards_) {
    std::unique_lock<std::mutex> lk(shp->mutex);
    // A fill in flight lands before its slot can go.
    shp->landed.wait(lk, [&] {
      return std::none_of(shp->slots.begin(), shp->slots.end(),
                          [&](const auto& e) {
                            return e.first.file == file && e.second.in_flight;
                          });
    });
    for (auto it = shp->slots.begin(); it != shp->slots.end();) {
      if (it->first.file != file) {
        ++it;
        continue;
      }
      if (it->second.dirty.Any()) {
        // Drop destroys the slot either way (ssdfree / invalidate), and
        // Sync() is the durability barrier that already surfaced this
        // error.  Losing dirty data here is the documented consequence of
        // an unreplicated benefactor failure; wedging the drop would just
        // leak the slot.
        ++traffic_.dropped_dirty;
        NVM_WLOG("dropping dirty chunk %u of file %llu after failed "
                 "write-back",
                 it->first.index,
                 static_cast<unsigned long long>(it->first.file));
      }
      NVM_CHECK(EraseSlotLocked(*shp, it));
    }
  }
  std::lock_guard<std::mutex> lock(stream_mutex_);
  streams_.erase(file);
  return OkStatus();
}

}  // namespace nvm::fuselite
