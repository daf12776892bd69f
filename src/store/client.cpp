#include "store/client.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "store/erasure.hpp"
#include "store/qos.hpp"

namespace nvm::store {

namespace {
// Position of `benefactor` in a replica list or positional fragment map.
size_t FragmentPos(const std::vector<int>& holders, int benefactor) {
  const auto it = std::find(holders.begin(), holders.end(), benefactor);
  NVM_CHECK(it != holders.end());
  return static_cast<size_t>(it - holders.begin());
}
}  // namespace

StoreClient::StoreClient(net::Cluster& cluster, Manager& manager,
                         int local_node, QosScheduler* qos)
    : cluster_(cluster),
      manager_(manager),
      local_node_(local_node),
      qos_(qos) {}

void StoreClient::ChargeMetaRoundTrip(sim::VirtualClock& clock) {
  const StoreConfig& cfg = manager_.config();
  meta_rtts_.Add(1);
  cluster_.network().Transfer(clock, local_node_, manager_.node_id(),
                              cfg.meta_request_bytes);
  cluster_.network().Transfer(clock, manager_.node_id(), local_node_,
                              cfg.meta_response_bytes);
  // Every manager contact also paces the background maintenance worker:
  // its heartbeat/scrub schedule follows foreground virtual time.
  manager_.MaintenanceTick(clock.now());
}

StatusOr<FileId> StoreClient::Create(sim::VirtualClock& clock,
                                     const std::string& name) {
  ChargeMetaRoundTrip(clock);
  return manager_.CreateFile(clock, name);
}

StatusOr<FileId> StoreClient::Open(sim::VirtualClock& clock,
                                   const std::string& name) {
  ChargeMetaRoundTrip(clock);
  return manager_.LookupFile(clock, name);
}

StatusOr<FileInfo> StoreClient::Stat(sim::VirtualClock& clock, FileId id) {
  ChargeMetaRoundTrip(clock);
  return manager_.Stat(clock, id);
}

Status StoreClient::Fallocate(sim::VirtualClock& clock, FileId id,
                              uint64_t size) {
  ChargeMetaRoundTrip(clock);
  return manager_.Fallocate(clock, id, size, local_node_);
}

Status StoreClient::Unlink(sim::VirtualClock& clock, FileId id) {
  ChargeMetaRoundTrip(clock);
  return manager_.Unlink(clock, id);
}

StatusOr<uint64_t> StoreClient::LinkFileChunks(sim::VirtualClock& clock,
                                               FileId dst, FileId src) {
  ChargeMetaRoundTrip(clock);
  return manager_.LinkFileChunks(clock, dst, src);
}

StatusOr<std::vector<ReadLocation>> StoreClient::ResolveReads(
    sim::VirtualClock& clock, FileId id, uint32_t first, uint32_t count,
    bool refresh) {
  if (!refresh) {
    std::vector<ReadLocation> cached;
    cached.reserve(count);
    std::lock_guard<std::mutex> lock(loc_mutex_);
    for (uint32_t i = 0; i < count; ++i) {
      auto it = loc_cache_.find(LocKey{id, first + i});
      if (it == loc_cache_.end()) break;
      cached.push_back(it->second);
    }
    if (cached.size() == count) return cached;
  }
  ChargeMetaRoundTrip(clock);
  NVM_ASSIGN_OR_RETURN(std::vector<ReadLocation> locs,
                       manager_.GetReadLocations(clock, id, first, count));
  std::lock_guard<std::mutex> lock(loc_mutex_);
  for (uint32_t i = 0; i < locs.size(); ++i) {
    loc_cache_[LocKey{id, first + i}] = locs[i];
  }
  return locs;
}

Status StoreClient::LookupReadMany(sim::VirtualClock& clock, FileId id,
                                   uint32_t first, uint32_t count) {
  return ResolveReads(clock, id, first, count, /*refresh=*/false).status();
}

void StoreClient::InvalidateLocation(FileId id, uint32_t chunk_index) {
  std::lock_guard<std::mutex> lock(loc_mutex_);
  loc_cache_.erase(LocKey{id, chunk_index});
}

Status StoreClient::ReadFailover(sim::VirtualClock& clock, FileId id,
                                 uint32_t chunk_index, std::span<uint8_t> out,
                                 bool refresh) {
  NVM_CHECK(out.size() == manager_.config().chunk_bytes);
  for (int attempt = refresh ? 1 : 0; attempt < 2; ++attempt) {
    // Second attempt forces a fresh manager lookup (the cached location
    // may be stale after a COW or a benefactor failure).
    NVM_ASSIGN_OR_RETURN(
        std::vector<ReadLocation> resolved,
        ResolveReads(clock, id, chunk_index, 1, /*refresh=*/attempt > 0));
    const ReadLocation& loc = resolved.front();

    if (loc.ec) {
      StripeRead stripe(manager_.config());
      Status s = ReadStripe(clock, id, chunk_index, loc, out, stripe);
      if (s.ok()) return s;
      // Below k readable fragments on this resolution: quarantines and
      // MarkDeads already went to the manager, so a fresh lookup may see
      // a repaired stripe.
      InvalidateLocation(id, chunk_index);
      if (attempt > 0) return s;
      continue;
    }

    Status last = Unavailable("no replicas");
    for (int bid : loc.benefactors) {
      int64_t ready_at = 0;
      Status s = ReadRun(clock, bid, {&loc.key, 1}, {&out, 1}, {&ready_at, 1});
      if (s.ok()) {
        clock.AdvanceTo(ready_at);
        return OkStatus();
      }
      last = s;
      if (s.code() == ErrorCode::kUnavailable) {
        manager_.MarkDead(bid);
        NVM_WLOG("benefactor %d unavailable reading %s; trying next replica",
                 bid, loc.key.ToString().c_str());
      } else if (s.code() == ErrorCode::kCorrupt) {
        // The replica failed its checksum: treat it like a dead copy.
        // ReportCorrupt quarantines it at the manager (strips the replica,
        // queues a repair from a verified survivor); the cached location
        // now names a stripped replica, so drop it before the next read
        // resolves afresh.
        corrupt_failovers_.Add(1);
        manager_.ReportCorrupt(clock, loc.key, bid);
        InvalidateLocation(id, chunk_index);
        NVM_WLOG("benefactor %d served corrupt %s; trying next replica",
                 bid, loc.key.ToString().c_str());
      }
    }
    InvalidateLocation(id, chunk_index);
    if (attempt > 0) return last;
  }
  return Unavailable("no replicas");
}

void StoreClient::SettleFragment(sim::VirtualClock& clock,
                                 const ReadLocation& loc, size_t pos,
                                 const Status& s, int64_t ready_at,
                                 StripeRead& stripe) {
  const int bid = loc.benefactors[pos];
  stripe.tried[pos] = 1;
  if (s.ok()) {
    stripe.have[pos] = 1;
    ++stripe.good;
    stripe.settled = std::max(stripe.settled, ready_at);
    return;
  }
  stripe.last = s;
  if (s.code() == ErrorCode::kUnavailable) {
    manager_.MarkDead(bid);
    NVM_WLOG("benefactor %d unavailable reading fragment %zu of %s; "
             "falling over to parity",
             bid, pos, loc.key.ToString().c_str());
  } else if (s.code() == ErrorCode::kCorrupt) {
    // The fragment failed its checksum: rot surfaces as CORRUPT, never as
    // wrong bytes in the assembled chunk.  Quarantine it and reconstruct
    // from the survivors.
    stripe.saw_corrupt = true;
    corrupt_failovers_.Add(1);
    manager_.ReportCorrupt(clock, loc.key, bid);
    NVM_WLOG("benefactor %d served corrupt fragment %zu of %s; "
             "falling over to parity",
             bid, pos, loc.key.ToString().c_str());
  }
  stripe.settled = std::max(stripe.settled, clock.now());
}

Status StoreClient::ReadStripe(sim::VirtualClock& clock, FileId id,
                               uint32_t chunk_index, const ReadLocation& loc,
                               std::span<uint8_t> out, StripeRead& stripe) {
  const StoreConfig& cfg = manager_.config();
  const size_t k = cfg.ec_k;
  const size_t nf = cfg.ec_fragments();
  const uint64_t fb = cfg.ec_frag_bytes();
  if (loc.benefactors.size() != nf) {
    return Unavailable("erasure stripe lost");  // durably below k survivors
  }

  // Live positions not yet tried, in preference order: data fragments
  // first (the systematic fast path), parity fills in for holes and
  // failures.
  std::vector<size_t> candidates;
  candidates.reserve(nf);
  for (size_t pos = 0; pos < nf; ++pos) {
    if (loc.benefactors[pos] >= 0 && !stripe.tried[pos]) {
      candidates.push_back(pos);
    }
  }

  // Each round issues the (k - good) outstanding fetches in parallel —
  // runs of one on clocks forked at the round start, joined at the max —
  // and failures discovered at the join pull the next candidates in a
  // follow-up round.  Data fragments land straight in their slice of
  // `out`; only parity gets a buffer of its own.
  size_t next = 0;
  while (stripe.good < k && next < candidates.size()) {
    const int64_t round_start = clock.now();
    stripe.settled = round_start;
    const size_t want = std::min(candidates.size(), next + (k - stripe.good));
    for (; next < want; ++next) {
      const size_t pos = candidates[next];
      std::span<uint8_t> dst;
      if (pos < k) {
        dst = out.subspan(pos * fb, fb);
      } else {
        stripe.parity[pos - k].resize(fb);
        dst = stripe.parity[pos - k];
      }
      sim::VirtualClock frag_clock(round_start);
      int64_t ready_at = 0;
      const Status s = ReadRun(frag_clock, loc.benefactors[pos],
                               {&loc.key, 1}, {&dst, 1}, {&ready_at, 1});
      SettleFragment(frag_clock, loc, pos, s, ready_at, stripe);
    }
    clock.AdvanceTo(stripe.settled);
  }
  if (stripe.saw_corrupt) {
    // The quarantine punched a hole this cached location still names.
    InvalidateLocation(id, chunk_index);
  }
  if (stripe.good < k) return stripe.last;

  if (std::all_of(stripe.have.begin(), stripe.have.begin() + k,
                  [](char h) { return h != 0; })) {
    return OkStatus();
  }
  // Degraded read: any k of the k+m fragments reconstruct the chunk.  The
  // matrix solve is charged as one chunk through the encode engine.
  ec_degraded_reads_.Add(1);
  manager_.NoteEcDegradedRead();
  clock.Advance(cfg.ec_encode_ns(cfg.chunk_bytes));
  std::vector<std::vector<uint8_t>> frags(nf);
  for (size_t pos = 0; pos < nf; ++pos) {
    if (!stripe.have[pos]) continue;
    if (pos < k) {
      const auto slice = out.subspan(pos * fb, fb);
      frags[pos].assign(slice.begin(), slice.end());
    } else {
      frags[pos] = std::move(stripe.parity[pos - k]);
    }
  }
  ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  NVM_CHECK(codec.Reconstruct(frags),
            "k fragments must reconstruct the stripe");
  for (size_t pos = 0; pos < k; ++pos) {
    if (!stripe.have[pos]) {
      std::memcpy(out.data() + pos * fb, frags[pos].data(), fb);
    }
  }
  return OkStatus();
}

Status StoreClient::ReadRun(sim::VirtualClock& clock, int benefactor,
                            std::span<const ChunkKey> keys,
                            std::span<const std::span<uint8_t>> outs,
                            std::span<int64_t> ready_at) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(benefactor);
  NVM_CHECK(b != nullptr);
  run_rpcs_.Add(1);

  // One request header covers the whole run.
  cluster_.network().Transfer(clock, local_node_, b->node_id(),
                              cfg.meta_request_bytes);

  // The reply is one stream: each item is pushed as soon as it leaves the
  // device and rides back-to-back behind its predecessor on the NICs.
  net::StreamTransfer reply(cluster_.network(), b->node_id(), local_node_);
  size_t next = 0;
  uint64_t data_bytes = 0;
  Status streamed = b->ReadChunkRun(
      clock, keys, outs,
      [&](const ChunkRunItem& item) -> Status {
        const uint64_t bytes = outs[next].size();
        // A hole costs only the "no such chunk" marker in the stream.
        ready_at[next++] = reply.Push(
            item.ready_at, item.sparse ? cfg.meta_response_bytes : bytes);
        if (!item.sparse) data_bytes += bytes;
        return OkStatus();
      },
      tenant_);
  if (!streamed.ok()) return streamed;
  bytes_fetched_.Add(data_bytes);
  return OkStatus();
}

Status StoreClient::ReadChunks(sim::VirtualClock& clock, FileId id,
                               std::span<ChunkFetch> fetches) {
  const int64_t t_entry = clock.now();
  Status s = ReadChunksInner(clock, id, fetches);
  if (s.ok() && qos_ != nullptr) {
    for (const ChunkFetch& f : fetches) {
      if (f.status.ok()) qos_->RecordRead(tenant_, f.ready_at - t_entry);
    }
  }
  return s;
}

Status StoreClient::ReadChunksInner(sim::VirtualClock& clock, FileId id,
                                    std::span<ChunkFetch> fetches) {
  if (fetches.empty()) return OkStatus();
  const StoreConfig& cfg = manager_.config();
  const size_t k = cfg.ec_k;
  const uint64_t fb = cfg.ec_frag_bytes();
  uint32_t lo = fetches[0].index;
  uint32_t hi = fetches[0].index;
  for (const ChunkFetch& f : fetches) {
    lo = std::min(lo, f.index);
    hi = std::max(hi, f.index);
  }
  // One control-plane hop covers the whole span (present chunks included —
  // the extra locations just warm the cache).  The span is clamped at EOF.
  NVM_ASSIGN_OR_RETURN(std::vector<ReadLocation> span,
                       ResolveReads(clock, id, lo, hi - lo + 1,
                                    /*refresh=*/false));
  const int64_t t0 = clock.now();

  // Every transfer branches off the post-lookup time: requests to
  // distinct benefactors overlap, and shared NICs/devices serialise
  // naturally through their modelled resources.  A chunk beyond EOF takes
  // the per-chunk path, which reports the usual per-chunk error, and so
  // does a stripe missing a data fragment (a hole, or a lost stripe): its
  // degraded rounds start from parity straight away.
  std::vector<ReadLocation> locs(fetches.size());
  std::vector<StripeRead> stripes;
  for (size_t i = 0; i < fetches.size(); ++i) {
    const uint32_t at = fetches[i].index - lo;
    if (at < span.size()) {
      const ReadLocation& loc = span[at];
      if (!loc.ec) {
        locs[i] = loc;
      } else if (loc.benefactors.size() == cfg.ec_fragments() &&
                 std::all_of(loc.benefactors.begin(),
                             loc.benefactors.begin() + k,
                             [](int b) { return b >= 0; })) {
        if (stripes.empty()) stripes.resize(fetches.size());
        stripes[i] = StripeRead(cfg);
        stripes[i].settled = t0;
        locs[i] = loc;
      }
    }
    if (!locs[i].benefactors.empty()) continue;
    sim::VirtualClock detached(t0);
    fetches[i].status =
        ReadFailover(detached, id, fetches[i].index, fetches[i].out);
    fetches[i].ready_at = detached.now();
  }

  // One streamed run per benefactor (split at max_run_chunks) — a
  // replicated chunk's primary, each data-fragment holder of a stripe —
  // each on its own clock branched at the post-lookup time.  A fragment
  // lands straight in its slice of the chunk's buffer.
  std::vector<ChunkKey> keys;
  std::vector<std::span<uint8_t>> outs;
  std::vector<int64_t> ready;
  for (const BenefactorRun& run :
       Manager::GroupReadsByBenefactor(locs, k, cfg.max_run_chunks)) {
    sim::VirtualClock run_clock(t0);
    const size_t first = run.items.front();
    if (run.items.size() == 1 && !locs[first].ec) {
      // A replica's run of one is the failover path's first attempt: a
      // failure moves on to the next replica, with nothing to discard.
      ChunkFetch& f = fetches[first];
      f.status = ReadFailover(run_clock, id, f.index, f.out);
      f.ready_at = run_clock.now();
      continue;
    }
    keys.clear();
    outs.clear();
    for (size_t idx : run.items) {
      keys.push_back(locs[idx].key);
      outs.push_back(
          locs[idx].ec
              ? fetches[idx].out.subspan(
                    FragmentPos(locs[idx].benefactors, run.benefactor) * fb,
                    fb)
              : fetches[idx].out);
    }
    ready.assign(run.items.size(), 0);
    const Status s = ReadRun(run_clock, run.benefactor, keys, outs, ready);
    if (s.ok() || run.items.size() == 1) {
      // A fragment's run of one is its fetch in its stripe's first round.
      for (size_t n = 0; n < run.items.size(); ++n) {
        const size_t idx = run.items[n];
        if (locs[idx].ec) {
          SettleFragment(run_clock, locs[idx],
                         FragmentPos(locs[idx].benefactors, run.benefactor),
                         s, ready[n], stripes[idx]);
        } else {
          fetches[idx].status = OkStatus();
          fetches[idx].ready_at = ready[n];
        }
      }
      continue;
    }
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(run.benefactor);
      NVM_WLOG(
          "benefactor %d failed mid-run (%zu chunks); discarding the run "
          "and falling back to per-chunk reads",
          run.benefactor, run.items.size());
    }
    // The run failed as a whole: nothing it streamed counts.  A replicated
    // chunk is re-read through the per-chunk path, which refreshes stale
    // locations and falls over to surviving replicas.  A fragment stays
    // untried: its stripe's degraded rounds re-read it in a run of its own
    // once the failed run is over, so only a fragment that really fails
    // sends its stripe to parity.
    for (size_t idx : run.items) {
      if (locs[idx].ec) {
        stripes[idx].settled =
            std::max(stripes[idx].settled, run_clock.now());
        continue;
      }
      sim::VirtualClock fallback(t0);
      fetches[idx].status =
          ReadFailover(fallback, id, fetches[idx].index, fetches[idx].out);
      fetches[idx].ready_at = fallback.now();
    }
  }

  // A stripe whose k data fragments all arrived is done; one left short
  // continues with the per-stripe degraded rounds from the moment its
  // last fragment settled, then with a fresh lookup.
  for (size_t i = 0; i < stripes.size(); ++i) {
    if (!locs[i].ec) continue;
    StripeRead& stripe = stripes[i];
    ChunkFetch& f = fetches[i];
    sim::VirtualClock rounds(stripe.settled);
    f.status = ReadStripe(rounds, id, f.index, locs[i], f.out, stripe);
    if (!f.status.ok()) {
      InvalidateLocation(id, f.index);
      f.status = ReadFailover(rounds, id, f.index, f.out, /*refresh=*/true);
    }
    f.ready_at = rounds.now();
  }
  return OkStatus();
}

Status StoreClient::WriteRun(sim::VirtualClock& clock, int benefactor,
                             std::span<const ChunkWriteItem> items) {
  const StoreConfig& cfg = manager_.config();
  Benefactor* b = manager_.benefactor(benefactor);
  NVM_CHECK(b != nullptr);
  write_run_rpcs_.Add(1);

  // The request is one stream: the first payload also carries the run
  // header; clone instructions ride as their own control messages.  Each
  // payload is admitted before it goes on the wire — the scheduler gates
  // the request before its bytes occupy the benefactor's NIC.
  net::StreamTransfer stream(cluster_.network(), local_node_, b->node_id());
  bool header_sent = false;
  const ChunkRunSend send = [&](RunMsg kind, int64_t earliest,
                                uint64_t bytes) -> int64_t {
    if (kind == RunMsg::kPayload) {
      const uint64_t payload = bytes;
      if (!header_sent) {
        header_sent = true;
        bytes += cfg.meta_request_bytes;
      }
      sim::VirtualClock gate(earliest);
      b->AdmitTransfer(gate, tenant_, payload, /*is_write=*/true, bytes);
      earliest = gate.now();
    }
    return stream.Push(earliest, bytes);
  };
  NVM_RETURN_IF_ERROR(b->WriteChunkRun(clock, items, send, tenant_));
  // One response acknowledges the whole run.
  cluster_.network().Transfer(clock, b->node_id(), local_node_,
                              cfg.meta_response_bytes);
  return OkStatus();
}

Status StoreClient::WriteChunks(sim::VirtualClock& clock, FileId id,
                                std::span<ChunkWrite> writes) {
  const int64_t t_entry = clock.now();
  Status s = WriteChunksInner(clock, id, writes);
  if (s.ok() && qos_ != nullptr) {
    for (const ChunkWrite& w : writes) {
      if (w.status.ok() && w.dirty != nullptr && !w.dirty->None()) {
        qos_->RecordWrite(tenant_, w.ready_at - t_entry);
      }
    }
  }
  return s;
}

std::vector<StoreClient::EncodedStripe> StoreClient::EncodeStripes(
    sim::VirtualClock& clock, FileId id, std::span<ChunkWrite> writes,
    std::vector<size_t>& active, std::vector<std::optional<uint32_t>>& crcs,
    std::vector<uint32_t>& frag_crcs) {
  const StoreConfig& cfg = manager_.config();
  const size_t k = cfg.ec_k;
  const size_t nf = cfg.ec_fragments();
  const uint64_t fb = cfg.ec_frag_bytes();

  // Full-stripe discipline: fragments are rewritten whole, so a stripe
  // whose image is not wholly known first reads the chunk's current bytes
  // (degraded-capable) and overlays the dirty pages — the erasure
  // read-modify-write penalty.  One batched read fetches every such stripe
  // of the window; an image whose every page is valid (dirty, or clean
  // and cached) needs no fetch.
  std::vector<EncodedStripe> fetched(active.size());
  std::vector<ChunkFetch> fetches;
  std::vector<size_t> fetched_at;  // window position of each fetch
  for (size_t j = 0; j < active.size(); ++j) {
    const ChunkWrite& w = writes[active[j]];
    if (w.dirty->All() || (w.valid != nullptr && w.valid->All())) continue;
    fetched[j].merged =
        std::make_unique_for_overwrite<uint8_t[]>(cfg.chunk_bytes);
    fetches.push_back(
        ChunkFetch{w.index, {fetched[j].merged.get(), cfg.chunk_bytes}});
    fetched_at.push_back(j);
  }
  if (!fetches.empty()) {
    const Status looked_up = ReadChunksInner(clock, id, fetches);
    int64_t arrived = clock.now();
    for (const ChunkFetch& f : fetches) {
      if (looked_up.ok()) arrived = std::max(arrived, f.ready_at);
    }
    clock.AdvanceTo(arrived);
    for (size_t n = 0; n < fetches.size(); ++n) {
      ChunkWrite& w = writes[active[fetched_at[n]]];
      // A stripe whose current bytes are unknown is not written.
      w.status = looked_up.ok() ? fetches[n].status : looked_up;
      w.ready_at = clock.now();
      w.dirty->ForEachSet([&](size_t p) {
        std::memcpy(fetched[fetched_at[n]].merged.get() + p * cfg.page_bytes,
                    w.image.data() + p * cfg.page_bytes, cfg.page_bytes);
      });
    }
  }

  // Encode k data + m parity fragments per stripe (the matrix math is
  // real; the CPU cost is one chunk through the encode engine) and
  // checksum each fragment — the positional checksums are what degraded
  // reads and repair verify survivors against.  Data fragments are views
  // of the image itself; only parity is materialised.  The data fragments
  // tile the image in order, so the full-image checksum follows from
  // theirs (Crc32cCombine) without hashing the image again; the modelled
  // charge still covers the image and every fragment.
  const bool with_crc = cfg.integrity();
  std::vector<EncodedStripe> stripes;
  stripes.reserve(active.size());
  ErasureCodec codec(cfg.ec_k, cfg.ec_m);
  for (size_t j = 0; j < active.size(); ++j) {
    if (!writes[active[j]].status.ok()) continue;  // its fetch failed
    EncodedStripe& st = stripes.emplace_back(std::move(fetched[j]));
    active[stripes.size() - 1] = active[j];
    const std::span<const uint8_t> full =
        st.merged ? std::span<const uint8_t>(st.merged.get(), cfg.chunk_bytes)
                  : writes[active[j]].image;
    st.frags = codec.DataFragments(full);
    st.parity = codec.EncodeParity(st.frags);
    st.frags.insert(st.frags.end(), st.parity.begin(), st.parity.end());
    clock.Advance(cfg.ec_encode_ns(cfg.chunk_bytes));
    if (!with_crc) continue;
    const size_t first = frag_crcs.size();
    uint32_t crc = 0;
    for (std::span<const uint8_t> f : st.frags) {
      frag_crcs.push_back(Crc32c(f.data(), f.size()));
    }
    for (size_t i = 0; i < k; ++i) {
      crc = Crc32cCombine(crc, frag_crcs[first + i], fb);
    }
    crcs.push_back(crc);
    clock.Advance(cfg.checksum_ns(cfg.chunk_bytes) + cfg.checksum_ns(nf * fb));
  }
  active.resize(stripes.size());
  return stripes;
}

Status StoreClient::WriteChunksInner(sim::VirtualClock& clock, FileId id,
                                     std::span<ChunkWrite> writes) {
  if (writes.empty()) return OkStatus();
  const StoreConfig& cfg = manager_.config();

  // Clean entries are done before they start.
  std::vector<size_t> active;
  active.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    NVM_CHECK(writes[i].dirty != nullptr);
    NVM_CHECK(writes[i].image.size() == cfg.chunk_bytes);
    writes[i].status = OkStatus();
    writes[i].ready_at = clock.now();
    if (!writes[i].dirty->None()) active.push_back(i);
  }
  if (active.empty()) return OkStatus();

  // Flush-time checksums for the whole window, charged to the writer
  // before the metadata round-trip.  A replicated item consumes its
  // checksum only on a full-image write — replicas store it verbatim — so
  // a partial item skips the host hash (and carries no value): its
  // authority is the CRC the replica stores after merging, and the
  // unfaulted pages of the image are unspecified.  Every item is charged.
  // An erasure-coded window instead encodes every stripe up front, with
  // its fragment checksums and the image checksum they combine into.
  const bool with_crc = cfg.integrity();
  std::vector<std::optional<uint32_t>> crcs;
  std::vector<EncodedStripe> stripes;
  std::vector<uint32_t> frag_crcs;  // ec_fragments() per stripe
  if (cfg.ec()) {
    stripes = EncodeStripes(clock, id, writes, active, crcs, frag_crcs);
    if (active.empty()) return OkStatus();
  } else if (with_crc) {
    crcs.resize(active.size());
    for (size_t j = 0; j < active.size(); ++j) {
      const ChunkWrite& w = writes[active[j]];
      if (w.dirty->All()) crcs[j] = Crc32c(w.image.data(), cfg.chunk_bytes);
    }
    clock.Advance(cfg.checksum_ns(active.size() * cfg.chunk_bytes));
  }

  // One metadata round-trip COW-resolves the whole window.
  ChargeMetaRoundTrip(clock);
  std::vector<uint32_t> indices;
  indices.reserve(active.size());
  for (size_t i : active) indices.push_back(writes[i].index);
  auto prepared = manager_.PrepareWriteBatch(clock, id, indices);
  if (!prepared.ok()) {
    for (size_t i : active) writes[i].status = prepared.status();
    return prepared.status();
  }
  const std::vector<WriteLocation>& locs = *prepared;  // parallel to active
  NVM_CHECK(std::all_of(
                locs.begin(), locs.end(),
                [&](const WriteLocation& l) { return l.ec == cfg.ec(); }),
            "window prepared outside the store's redundancy mode");
  const int64_t t0 = clock.now();

  // Per-item outcomes across all runs: the replicas (or fragments) that
  // landed, and when.
  std::vector<size_t> landed_count(active.size(), 0);
  std::vector<uint64_t> parity_bytes(active.size(), 0);
  std::vector<char> corrupt_replica(active.size(), 0);
  std::vector<Status> last_err(active.size(), OkStatus());
  std::vector<int64_t> done(active.size(), t0);
  // Authoritative checksums to record at CompleteWrites.  A stripe's is
  // the client's image checksum.  A replicated item's is the CRC the
  // first successful replica actually stored (the client's value on a
  // full-image write; on a partial-dirty merge it can legitimately differ
  // from the client image when clean pages were never faulted in).
  std::vector<uint32_t> authority(with_crc ? active.size() : 0, 0);
  std::vector<uint32_t> stored(authority.size(), 0);
  const auto landed = [&](size_t j, int bid, int64_t at) {
    const WriteLocation& loc = locs[j];
    if (landed_count[j] == 0 && with_crc) {
      authority[j] = loc.ec ? *crcs[j] : stored[j];
    }
    ++landed_count[j];
    if (loc.ec) {
      bytes_flushed_.Add(cfg.ec_frag_bytes());
      if (FragmentPos(loc.benefactors, bid) >= cfg.ec_k) {
        parity_bytes[j] += cfg.ec_frag_bytes();
      }
    } else {
      bytes_flushed_.Add(writes[active[j]].dirty->PopCount() * cfg.page_bytes);
    }
    done[j] = std::max(done[j], at);
  };
  const auto failed = [&](size_t j, int bid, const Status& s,
                          sim::VirtualClock& at) {
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(bid);
      NVM_WLOG("benefactor %d unavailable writing %s; continuing with "
               "surviving replicas",
               bid, locs[j].key.ToString().c_str());
    } else if (s.code() == ErrorCode::kCorrupt) {
      // The replica's base image failed the pre-merge verification — the
      // write never landed there.  Quarantine it; repair rebuilds it from
      // a replica that did take the write.
      corrupt_replica[j] = true;
      manager_.ReportCorrupt(at, locs[j].key, bid);
      NVM_WLOG("benefactor %d rejected merge into corrupt %s; replica "
               "quarantined",
               bid, locs[j].key.ToString().c_str());
    }
    last_err[j] = s;
  };

  // What item `j` sends `bid`: its dirty pages (cloning first when the
  // chunk is shared with a checkpoint), or the whole fragment of the
  // stripe that benefactor holds.
  Bitmap fragment_pages(cfg.ec_frag_bytes() / cfg.page_bytes);
  fragment_pages.SetAll();
  std::vector<ChunkWriteItem> items;
  const auto write_run = [&](sim::VirtualClock& run_clock, int bid,
                             std::span<const size_t> run_items) {
    items.clear();
    for (size_t j : run_items) {
      const WriteLocation& loc = locs[j];
      if (loc.ec) {
        const size_t pos = FragmentPos(loc.benefactors, bid);
        items.push_back(MakeWriteItem(
            loc.key, fragment_pages, stripes[j].frags[pos],
            with_crc ? &frag_crcs[j * cfg.ec_fragments() + pos] : nullptr));
        continue;
      }
      const ChunkWrite& w = writes[active[j]];
      ChunkWriteItem item = MakeWriteItem(
          loc.key, *w.dirty, w.image,
          with_crc && crcs[j] ? &*crcs[j] : nullptr,
          with_crc ? &stored[j] : nullptr);
      item.needs_clone = loc.needs_clone;
      item.clone_from = loc.clone_from;
      items.push_back(item);
    }
    return WriteRun(run_clock, bid, items);
  };

  // One streamed run per benefactor (split at max_run_chunks) — every
  // replica or fragment holder gets its own run — each on a clock forked
  // at the post-prepare time, so runs (and with them the replicas or
  // fragments of each chunk) overlap.
  for (const BenefactorRun& run :
       Manager::GroupByBenefactor(locs, cfg.max_run_chunks)) {
    sim::VirtualClock run_clock(t0);
    Status s = write_run(run_clock, run.benefactor, run.items);
    if (s.ok()) {
      for (size_t j : run.items) landed(j, run.benefactor, run_clock.now());
      continue;
    }
    if (run.items.size() == 1) {
      // A run of one is this replica's (or fragment's) only attempt.
      failed(run.items.front(), run.benefactor, s, run_clock);
      continue;
    }
    if (s.code() == ErrorCode::kUnavailable) {
      manager_.MarkDead(run.benefactor);
      NVM_WLOG(
          "benefactor %d failed mid write run (%zu chunks); discarding the "
          "run and retrying per chunk",
          run.benefactor, run.items.size());
    }
    // The run failed as a whole: nothing it streamed counts.  Retry every
    // item in a run of its own against the same benefactor (its other
    // replicas and fragments are covered by their own runs); a dead
    // benefactor fails fast here.
    for (size_t j : run.items) {
      sim::VirtualClock fallback(t0);
      Status rs = write_run(fallback, run.benefactor, {&j, 1});
      if (rs.ok()) {
        landed(j, run.benefactor, fallback.now());
      } else {
        failed(j, run.benefactor, rs, fallback);
      }
    }
  }

  // Every attempt is over: join, then close the prepared window in one
  // lock pass (lifts the repair fences, moves the epochs; with a WAL, logs
  // the completion record that attests the writes) before reporting any
  // degraded chunks to the repair queue.  A replicated chunk is written
  // once a replica holds it; a stripe once k fragments do — below that it
  // is not reconstructible, so its completion records no checksum and
  // recovery rolls the uncommitted stripe back rather than ever assembling
  // mixed-generation fragments.  Checksums are recorded only for chunks
  // that were written.
  int64_t joined = t0;
  std::vector<char> wrote(active.size(), 0);
  uint64_t parity_written = 0;
  for (size_t j = 0; j < active.size(); ++j) {
    wrote[j] = landed_count[j] >= (locs[j].ec ? cfg.ec_k : 1) ? 1 : 0;
    if (wrote[j]) parity_written += parity_bytes[j];
    joined = std::max(joined, done[j]);
  }
  clock.AdvanceTo(joined);
  manager_.CompleteWrites(clock, locs, authority, wrote, frag_crcs);
  if (parity_written > 0) manager_.NoteEcParityBytes(parity_written);
  // A logged completion is part of the write: nothing in the window is
  // done before its record is durable.
  const bool logged = clock.now() > joined;

  // Per-chunk verdicts and location-cache updates.
  for (size_t j = 0; j < active.size(); ++j) {
    ChunkWrite& w = writes[active[j]];
    const WriteLocation& loc = locs[j];
    if (!wrote[j]) {
      w.status = !last_err[j].ok() ? last_err[j]
                 : loc.ec          ? Unavailable("fewer than k fragments")
                                   : Unavailable("no replicas");
      InvalidateLocation(id, w.index);
    } else {
      // Holes count as missing members: a stripe short of a fragment is
      // as degraded as a chunk short of a replica.
      if (landed_count[j] < loc.benefactors.size()) {
        degraded_writes_.Add(1);
        // Degraded at the time this chunk's surviving writes completed.
        manager_.ReportDegraded(loc.key, done[j]);
      }
      if (corrupt_replica[j]) {
        // The quarantine stripped (and deleted) a replica this location
        // still names: force the next read through a fresh lookup rather
        // than let it hit the deleted copy and see sparse zeros.
        InvalidateLocation(id, w.index);
      } else {
        // The data is readable: NOW the read cache may point at the new
        // chunk version.
        std::lock_guard<std::mutex> lock(loc_mutex_);
        loc_cache_[LocKey{id, w.index}] =
            ReadLocation{loc.key, loc.benefactors, loc.ec};
      }
    }
    w.ready_at = logged ? clock.now() : done[j];
  }
  return OkStatus();
}

void StoreClient::ResetCounters() {
  bytes_fetched_.Reset();
  bytes_flushed_.Reset();
  meta_rtts_.Reset();
  run_rpcs_.Reset();
  write_run_rpcs_.Reset();
  degraded_writes_.Reset();
  corrupt_failovers_.Reset();
  ec_degraded_reads_.Reset();
}

}  // namespace nvm::store
