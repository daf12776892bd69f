#include "store/wal.hpp"

#include <algorithm>
#include <utility>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace nvm::store {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 payload_len + u32 payload crc

std::string EncodePayload(const WalRecord& rec) {
  std::string out;
  wire::PutU64(out, rec.seq);
  wire::PutU8(out, static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case WalRecordType::kCreateFile:
      wire::PutU64(out, rec.file_id);
      wire::PutString(out, rec.name);
      break;
    case WalRecordType::kExtend:
      wire::PutU64(out, rec.file_id);
      wire::PutU64(out, rec.size);
      wire::PutU32(out, static_cast<uint32_t>(rec.placements.size()));
      for (const WalPlacement& p : rec.placements) {
        wire::PutU32(out, p.slot);
        wire::PutKey(out, p.key);
        wire::PutReplicas(out, p.replicas);
      }
      break;
    case WalRecordType::kCowSwap:
      wire::PutU64(out, rec.file_id);
      wire::PutU32(out, rec.slot);
      wire::PutKey(out, rec.old_key);
      wire::PutKey(out, rec.key);
      wire::PutReplicas(out, rec.replicas);
      break;
    case WalRecordType::kComplete:
      wire::PutU32(out, static_cast<uint32_t>(rec.completions.size()));
      for (const WalCompletion& c : rec.completions) {
        wire::PutKey(out, c.key);
        wire::PutU8(out, c.has_crc ? 1 : 0);
        wire::PutU32(out, c.crc);
        wire::PutU32(out, static_cast<uint32_t>(c.frag_crcs.size()));
        for (uint32_t fc : c.frag_crcs) wire::PutU32(out, fc);
      }
      break;
    case WalRecordType::kReplicas:
      wire::PutKey(out, rec.key);
      wire::PutReplicas(out, rec.replicas);
      break;
    case WalRecordType::kUnlink:
      wire::PutU64(out, rec.file_id);
      break;
    case WalRecordType::kLink:
      wire::PutU64(out, rec.file_id);
      wire::PutU64(out, rec.src_file);
      break;
    case WalRecordType::kRedundancy:
      wire::PutU64(out, rec.file_id);
      wire::PutU8(out, rec.mode);
      break;
  }
  return out;
}

bool DecodePayload(const char* data, size_t n, WalRecord* rec) {
  wire::Reader r(data, n);
  rec->seq = r.U64();
  const uint8_t type = r.U8();
  if (type < static_cast<uint8_t>(WalRecordType::kCreateFile) ||
      type > static_cast<uint8_t>(WalRecordType::kRedundancy)) {
    return false;
  }
  rec->type = static_cast<WalRecordType>(type);
  switch (rec->type) {
    case WalRecordType::kCreateFile:
      rec->file_id = r.U64();
      rec->name = r.Str();
      break;
    case WalRecordType::kExtend: {
      rec->file_id = r.U64();
      rec->size = r.U64();
      const uint32_t count = r.U32();
      if (!r.ok || count > r.n) return false;
      rec->placements.resize(count);
      for (WalPlacement& p : rec->placements) {
        p.slot = r.U32();
        p.key = r.Key();
        p.replicas = r.Replicas();
      }
      break;
    }
    case WalRecordType::kCowSwap:
      rec->file_id = r.U64();
      rec->slot = r.U32();
      rec->old_key = r.Key();
      rec->key = r.Key();
      rec->replicas = r.Replicas();
      break;
    case WalRecordType::kComplete: {
      const uint32_t count = r.U32();
      if (!r.ok || count > r.n) return false;
      rec->completions.resize(count);
      for (WalCompletion& c : rec->completions) {
        c.key = r.Key();
        c.has_crc = r.U8() != 0;
        c.crc = r.U32();
        const uint32_t nfrag = r.U32();
        if (!r.ok || nfrag > r.n) return false;
        c.frag_crcs.resize(nfrag);
        for (uint32_t& fc : c.frag_crcs) fc = r.U32();
      }
      break;
    }
    case WalRecordType::kReplicas:
      rec->key = r.Key();
      rec->replicas = r.Replicas();
      break;
    case WalRecordType::kUnlink:
      rec->file_id = r.U64();
      break;
    case WalRecordType::kLink:
      rec->file_id = r.U64();
      rec->src_file = r.U64();
      break;
    case WalRecordType::kRedundancy:
      rec->file_id = r.U64();
      rec->mode = r.U8();
      break;
  }
  return r.ok;
}

std::string FrameRecord(const std::string& payload) {
  std::string framed;
  framed.reserve(kFrameHeaderBytes + payload.size());
  wire::PutU32(framed, static_cast<uint32_t>(payload.size()));
  wire::PutU32(framed, Crc32c(payload.data(), payload.size()));
  framed.append(payload);
  return framed;
}

}  // namespace

const sim::DeviceProfile& WalStore::ProfileFor(const std::string& name) {
  if (name == "fusionio") return sim::FusionIoDriveDuo();
  if (name == "ocz") return sim::OczRevoDrive();
  if (name == "dram") return sim::Ddr3_1600();
  return sim::IntelX25E();  // "x25e" and the default for unknown names
}

WalStore::WalStore(const StoreConfig& config)
    : config_(config),
      device_(std::make_unique<sim::SsdDevice>(
          "manager-wal", ProfileFor(config.wal_device),
          config.wal_device_wear_leveling)) {
  NVM_CHECK(config_.wal_segment_bytes >= 4_KiB,
            "wal_segment_bytes must hold at least one flash page of records");
}

void WalStore::Append(sim::VirtualClock& clock, WalRecord rec) {
  AppendGroup(clock, {&rec, 1});
}

void WalStore::AppendGroup(sim::VirtualClock& clock,
                           std::span<WalRecord> recs) {
  if (recs.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) {
    dropped_.Add(recs.size());
    return;
  }
  // Every record keeps its own frame, so the reader sees exactly the
  // records it would had each been appended alone; only the device sees
  // one write of their concatenation.
  uint64_t bytes = 0;
  for (WalRecord& rec : recs) {
    rec.seq = next_seq_++;
    const std::string framed = FrameRecord(EncodePayload(rec));
    appends_.Add(1);
    if (crash_countdown_ > 0 && --crash_countdown_ == 0) {
      // The crash lands mid-record: only a prefix of this frame reaches
      // the device (the records ahead of it in the group are whole),
      // which a reader sees as a torn tail (truncated length or failing
      // CRC).  Everything after this instant is frozen.
      const size_t torn = std::max<size_t>(1, framed.size() / 2);
      AppendBytesLocked(framed.substr(0, torn), rec.seq);
      bytes += torn;
      dropped_.Add(static_cast<uint64_t>(&recs.back() - &rec));
      FreezeLocked();
      break;
    }
    AppendBytesLocked(framed, rec.seq);
    bytes += framed.size();
  }
  device_->ChargeWrite(clock, append_offset_, bytes);
  append_offset_ += bytes;
}

void WalStore::AppendBytesLocked(const std::string& framed, uint64_t seq) {
  if (segments_.empty() ||
      segments_.back().bytes.size() >= config_.wal_segment_bytes) {
    Segment seg;
    seg.first_seq = seq;
    segments_.push_back(std::move(seg));
  }
  Segment& seg = segments_.back();
  if (seg.bytes.empty()) seg.first_seq = seq;
  seg.last_seq = seq;
  seg.bytes.append(framed);
}

uint64_t WalStore::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

void WalStore::WriteCheckpoint(sim::VirtualClock& clock, std::string blob,
                               uint64_t covered_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return;

  CheckpointSlot& slot = slots_[next_slot_];
  slot.present = true;
  slot.covered_seq = covered_seq;
  slot.crc = Crc32c(blob.data(), blob.size());
  slot.len = blob.size();

  if (crash_point_ == CrashPoint::kMidCheckpoint) {
    // Tear the blob halfway: the slot header says `len` bytes but only a
    // prefix landed, so recovery rejects this slot and falls back to the
    // other one (or to a full-log replay).
    const size_t torn = blob.size() / 2;
    slot.bytes = blob.substr(0, torn);
    device_->ChargeWrite(clock, append_offset_, std::max<size_t>(1, torn));
    append_offset_ += torn;
    FreezeLocked();
    return;
  }

  device_->ChargeWrite(clock, append_offset_, std::max<size_t>(1, blob.size()));
  append_offset_ += blob.size();
  slot.bytes = std::move(blob);
  next_slot_ ^= 1;
  checkpoints_.Add(1);

  // Checkpoint-supersedes-log: drop every segment fully covered by the
  // checkpoint.  The open segment is dropped too when covered — the next
  // append simply opens a fresh one.
  segments_.erase(
      std::remove_if(segments_.begin(), segments_.end(),
                     [covered_seq](const Segment& s) {
                       return !s.bytes.empty() && s.last_seq <= covered_seq;
                     }),
      segments_.end());
}

bool WalStore::SlotValid(const CheckpointSlot& s) const {
  return s.present && s.bytes.size() == s.len &&
         Crc32c(s.bytes.data(), s.bytes.size()) == s.crc;
}

WalStore::Replay WalStore::ReadForRecovery(sim::VirtualClock& clock) {
  std::lock_guard<std::mutex> lock(mu_);
  Replay out;

  // Read both checkpoint slots (we must inspect both to pick the newest
  // valid one) and take the best.
  uint64_t read_offset = 0;
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (!slots_[i].present) continue;
    device_->ChargeRead(clock, read_offset,
                        std::max<size_t>(1, slots_[i].bytes.size()));
    read_offset += slots_[i].bytes.size();
    if (!SlotValid(slots_[i])) continue;
    if (best < 0 || slots_[i].covered_seq > slots_[best].covered_seq) best = i;
  }
  if (best >= 0) {
    out.used_checkpoint = true;
    out.covered_seq = slots_[best].covered_seq;
    out.checkpoint = slots_[best].bytes;
  }

  // Scan the log: stop at the first truncated or CRC-failing record.  A
  // bad record in the middle of the log means everything after it is
  // untrustworthy too — ordering is what replay relies on — so the scan is
  // conservative and cuts the whole tail.
  for (const Segment& seg : segments_) {
    device_->ChargeRead(clock, read_offset,
                        std::max<size_t>(1, seg.bytes.size()));
    read_offset += seg.bytes.size();
    size_t pos = 0;
    while (pos < seg.bytes.size()) {
      if (seg.bytes.size() - pos < kFrameHeaderBytes) {
        out.torn_tail = true;
        return out;
      }
      wire::Reader hdr(seg.bytes.data() + pos, kFrameHeaderBytes);
      const uint32_t len = hdr.U32();
      const uint32_t crc = hdr.U32();
      if (seg.bytes.size() - pos - kFrameHeaderBytes < len) {
        out.torn_tail = true;
        return out;
      }
      const char* payload = seg.bytes.data() + pos + kFrameHeaderBytes;
      if (Crc32c(payload, len) != crc) {
        out.torn_tail = true;
        return out;
      }
      WalRecord rec;
      if (!DecodePayload(payload, len, &rec)) {
        out.torn_tail = true;
        return out;
      }
      if (rec.seq > out.covered_seq) out.records.push_back(std::move(rec));
      pos += kFrameHeaderBytes + len;
    }
  }
  return out;
}

void WalStore::Reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_.store(false, std::memory_order_release);
  crash_countdown_ = 0;
  crash_point_ = CrashPoint::kNone;

  // Re-derive the durable prefix exactly as ReadForRecovery does, then
  // physically truncate the torn tail so new appends continue after the
  // last durable record.
  uint64_t max_seq = 0;
  for (int i = 0; i < 2; ++i) {
    if (SlotValid(slots_[i])) {
      max_seq = std::max(max_seq, slots_[i].covered_seq);
    } else if (slots_[i].present) {
      // Torn checkpoint slot: discard it and make it the next overwrite
      // target so the surviving checkpoint is never clobbered first.
      slots_[i] = CheckpointSlot{};
      next_slot_ = i;
    }
  }

  bool cut = false;
  for (size_t si = 0; si < segments_.size() && !cut; ++si) {
    Segment& seg = segments_[si];
    size_t pos = 0;
    uint64_t seg_last = 0;
    bool any = false;
    while (pos < seg.bytes.size()) {
      if (seg.bytes.size() - pos < kFrameHeaderBytes) break;
      wire::Reader hdr(seg.bytes.data() + pos, kFrameHeaderBytes);
      const uint32_t len = hdr.U32();
      const uint32_t crc = hdr.U32();
      if (seg.bytes.size() - pos - kFrameHeaderBytes < len) break;
      const char* payload = seg.bytes.data() + pos + kFrameHeaderBytes;
      if (Crc32c(payload, len) != crc) break;
      WalRecord rec;
      if (!DecodePayload(payload, len, &rec)) break;
      seg_last = rec.seq;
      any = true;
      pos += kFrameHeaderBytes + len;
    }
    if (pos < seg.bytes.size()) {
      // Torn inside this segment: keep the valid prefix, drop the rest of
      // the log.
      seg.bytes.resize(pos);
      if (any) seg.last_seq = seg_last;
      segments_.resize(seg.bytes.empty() ? si : si + 1);
      cut = true;
    } else if (any) {
      seg.last_seq = seg_last;
    }
    if (any) max_seq = std::max(max_seq, seg_last);
  }
  next_seq_ = max_seq + 1;
  last_reopen_truncated_ = cut;
}

bool WalStore::last_reopen_truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_reopen_truncated_;
}

void WalStore::CrashAfterAppends(uint64_t n, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n == 0) {
    crash_countdown_ = 0;
    return;
  }
  if (seed != 0) {
    SplitMix64 sm(seed);
    crash_countdown_ = 1 + sm.Next() % n;
  } else {
    crash_countdown_ = n;
  }
}

void WalStore::CrashAtPoint(CrashPoint point) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_point_ = point;
}

void WalStore::TriggerPoint(CrashPoint point) {
  std::lock_guard<std::mutex> lock(mu_);
  // kMidCheckpoint fires inside WriteCheckpoint so the slot tears; the
  // other named points freeze right here.
  if (crash_point_ == point && point != CrashPoint::kMidCheckpoint) {
    FreezeLocked();
  }
}

void WalStore::FreezeLocked() {
  crash_point_ = CrashPoint::kNone;
  crash_countdown_ = 0;
  crashed_.store(true, std::memory_order_release);
}

size_t WalStore::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

uint64_t WalStore::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Segment& seg : segments_) total += seg.bytes.size();
  return total;
}

void WalStore::TruncateTailBytes(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (n > 0 && !segments_.empty()) {
    Segment& seg = segments_.back();
    const uint64_t cut = std::min<uint64_t>(n, seg.bytes.size());
    seg.bytes.resize(seg.bytes.size() - cut);
    n -= cut;
    if (seg.bytes.empty()) segments_.pop_back();
  }
}

void WalStore::CorruptLogByte(uint64_t back, uint8_t xor_mask) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (back < it->bytes.size()) {
      it->bytes[it->bytes.size() - 1 - back] =
          static_cast<char>(it->bytes[it->bytes.size() - 1 - back] ^ xor_mask);
      return;
    }
    back -= it->bytes.size();
  }
}

}  // namespace nvm::store
