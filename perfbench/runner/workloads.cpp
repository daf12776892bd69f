#include "runner/workloads.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "net/cluster.hpp"
#include "workloads/testbed.hpp"

namespace perfbench {
namespace {

using nvm::NvmRegion;
using nvm::operator""_KiB;
using nvm::operator""_MiB;
using nvm::workloads::Testbed;
using nvm::workloads::TestbedOptions;

// Set-up traffic is tagged with its own QoS tenant so the store's latency
// histograms, read for the foreground tenant, cover the measured phase only.
constexpr nvm::store::TenantId kPreloadTenant = 2;
constexpr size_t kMaxErrors = 5;

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return nvm::SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL)).Next();
}

// Failures of one rank; merged into the PassResult after the ranks join.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
  }
  // Count one call; false (and a failure) if it returned non-OK.
  bool Check(const nvm::Status& s, const char* what) {
    ++attempted;
    if (s.ok()) return true;
    Fail(std::string(what) + ": " + s.ToString());
    return false;
  }
  // Count one comparison against the host shadow; `what` and `at` name the
  // compared bytes (the message is built only on a mismatch).
  void Expect(bool equal, const char* what, uint64_t at) {
    ++attempted;
    if (!equal) {
      Fail(std::string("wrong bytes: ") + what + " " + std::to_string(at));
    }
  }
  void MergeInto(PassResult& r) const {
    r.attempted += attempted;
    r.failed += failed;
    for (const auto& e : errors) {
      if (r.errors.size() < kMaxErrors) r.errors.push_back(e);
    }
  }
};

void SetTenant(Testbed& tb, const std::vector<int>& nodes,
               nvm::store::TenantId tenant) {
  for (int n : nodes) tb.runtime(n).mount().client().SetTenant(tenant);
}

// Write `bytes` into a fresh region through its file (a full-page write
// needs no fetch, unlike a page fault) and make it durable.
nvm::Status Preload(NvmRegion* region, std::span<const uint8_t> bytes,
                    uint64_t piece) {
  for (uint64_t off = 0; off < bytes.size(); off += piece) {
    const uint64_t n = std::min<uint64_t>(piece, bytes.size() - off);
    NVM_RETURN_IF_ERROR(region->file().Write(off, bytes.subspan(off, n)));
  }
  return region->file().Sync();
}

// Read a file back through another node's chunk cache, which holds none
// of it: the bytes come from the benefactors, so this checks what the
// store persisted rather than what the writer's node still has cached.
nvm::Status ReadFromStore(Testbed& tb, int via_node, nvm::store::FileId file,
                          uint64_t offset, std::span<uint8_t> out) {
  return tb.runtime(via_node).mount().cache().Read(nvm::sim::CurrentClock(),
                                                   file, offset, out);
}

// Measured-phase bookends shared by every workload.
struct Phase {
  const Probe& probe;
  Counters before;
  HostClock::time_point host_start;

  explicit Phase(const Probe& p)
      : probe(p), before(p.Take()), host_start(HostClock::now()) {}

  void Finish(Testbed& tb, PassResult& r) const {
    r.host_s = SecondsSince(host_start);
    r.delta = probe.Take() - before;
    for (const auto& t : tb.store().qos().Snapshot().tenants) {
      if (t.id != nvm::store::kTenantForeground) continue;
      r.store_read_p50_ns = t.read_p50_ns;
      r.store_read_p99_ns = t.read_p99_ns;
      r.store_write_p50_ns = t.write_p50_ns;
      r.store_write_p99_ns = t.write_p99_ns;
    }
  }
};

// A fresh execution context per pass, so every pass starts at virtual
// time 0 whatever the previous pass left on this thread's clock.
class PassContext {
 public:
  PassContext() { nvm::sim::SetCurrentContext(&ctx_); }
  ~PassContext() { nvm::sim::SetCurrentContext(nullptr); }
  PassContext(const PassContext&) = delete;
  PassContext& operator=(const PassContext&) = delete;
  nvm::sim::VirtualClock& clock() { return ctx_.clock; }

 private:
  nvm::sim::ExecutionContext ctx_;
};

// ---------------------------------------------------------------------------
// stream_triad: 4 ranks, one per compute node, c = a + s*b block by block
// over each rank's own three NVM arrays; benefactors remote, replication 1.
// ---------------------------------------------------------------------------

constexpr int kTriadRanks = 4;
constexpr uint64_t kTriadBlockElems = 8192;  // 64 KiB of doubles: one chunk

// Array contents are small integers, so a + s*b is exact in double and the
// check can demand equality.
double TriadValue(uint64_t seed, int rank, int array, uint64_t i) {
  const uint64_t h = Mix(Mix(seed, static_cast<uint64_t>(rank * 2 + array)), i);
  return static_cast<double>(h & 1023);
}

PassResult RunStreamTriad(const PassOptions& o) {
  const bool tiny = o.size == Size::kTiny;
  // Full size: every array is 64 MiB, 32x the 2 MiB chunk cache and 16x
  // the 4 MiB page pool of its node.
  const uint64_t array_bytes = tiny ? 1_MiB : 64_MiB;
  const uint64_t n = array_bytes / sizeof(double);
  const uint64_t blocks = n / kTriadBlockElems;
  const double scalar = static_cast<double>(1 + o.seed % 7);

  PassResult r;
  PassContext pass_ctx;
  const auto setup_start = HostClock::now();
  TestbedOptions to;
  to.compute_nodes = kTriadRanks;
  to.benefactors = kTriadRanks;
  to.remote_benefactors = true;
  to.contribution_bytes = 2 * 3 * array_bytes;  // per benefactor, with slack
  auto tb = std::make_unique<Testbed>(to);
  const uint64_t chunk_bytes = to.store.chunk_bytes;

  std::vector<int> nodes(kTriadRanks);
  for (int i = 0; i < kTriadRanks; ++i) nodes[static_cast<size_t>(i)] = i;
  NvmRegion* arrays[kTriadRanks][3] = {};
  Outcome setup_outcome;
  for (int rank = 0; rank < kTriadRanks; ++rank) {
    for (int a = 0; a < 3; ++a) {
      auto region = tb->runtime(rank).SsdMalloc(array_bytes);
      if (!setup_outcome.Check(region.status(), "ssdmalloc")) {
        setup_outcome.MergeInto(r);
        return r;
      }
      arrays[rank][a] = *region;
    }
  }

  // Preload a and b in parallel, one thread per rank (c starts as zeros).
  SetTenant(*tb, nodes, kPreloadTenant);
  std::vector<Outcome> outcomes(kTriadRanks);
  const int64_t setup_end = tb->cluster().RunProcesses(
      nodes, [&](nvm::net::ProcessEnv& env) {
        Outcome& out = outcomes[static_cast<size_t>(env.rank)];
        std::vector<double> buf(n);
        for (int a = 0; a < 2; ++a) {
          for (uint64_t i = 0; i < n; ++i) {
            buf[i] = TriadValue(o.seed, env.rank, a, i);
          }
          out.Check(Preload(arrays[env.rank][a],
                            {reinterpret_cast<const uint8_t*>(buf.data()),
                             array_bytes},
                            chunk_bytes),
                    "preload");
        }
      });
  SetTenant(*tb, nodes, nvm::store::kTenantForeground);
  for (const auto& out : outcomes) out.MergeInto(r);
  r.op_stream_digest = Mix(Mix(o.seed, n), blocks);
  r.setup_s = SecondsSince(setup_start);
  if (r.failed > 0) return r;

  // Measured phase: one TRIAD sweep per rank, then Sync of c.
  Probe probe(*tb, nodes);
  const auto trace_origin = HostClock::now();
  if (o.trace) {
    for (int rank = 0; rank < kTriadRanks; ++rank) {
      r.tracers.push_back(
          std::make_unique<RankTracer>(rank, trace_origin, nullptr));
    }
  }
  std::vector<std::vector<int64_t>> lat(kTriadRanks);
  outcomes.assign(kTriadRanks, Outcome{});
  Phase phase(probe);
  const int64_t end = tb->cluster().RunProcesses(
      nodes, [&](nvm::net::ProcessEnv& env) {
        const auto rank = static_cast<size_t>(env.rank);
        auto& clock = *env.clock;
        clock.AdvanceTo(setup_end);
        RankTracer* tr = o.trace ? r.tracers[rank].get() : nullptr;
        Outcome& out = outcomes[rank];
        auto& dram = env.node().dram();
        const auto& cpu = env.cluster->cpu();
        NvmRegion* const* arr = arrays[env.rank];
        lat[rank].reserve(blocks);
        for (uint64_t b = 0; b < blocks; ++b) {
          const uint64_t first = b * kTriadBlockElems;
          const uint64_t bytes = kTriadBlockElems * sizeof(double);
          const int64_t v0 = clock.now();
          ScopedSpan step(tr, OpKind::kStep, clock);
          auto pin = [&](int a, OpKind kind) {
            ScopedSpan s(tr, kind, clock);
            return arr[a]->Pin(first * sizeof(double), bytes,
                               kind == OpKind::kWrite);
          };
          auto pa = pin(0, OpKind::kRead);
          auto pb = pin(1, OpKind::kRead);
          auto pc = pin(2, OpKind::kWrite);
          const bool ok = out.Check(pa.status(), "pin a") &
                          out.Check(pb.status(), "pin b") &
                          out.Check(pc.status(), "pin c");
          if (!ok) continue;
          const auto* va = reinterpret_cast<const double*>(pa->data());
          const auto* vb = reinterpret_cast<const double*>(pb->data());
          auto* vc = reinterpret_cast<double*>(pc->data());
          bool same = true;
          for (uint64_t j = 0; j < kTriadBlockElems; ++j) {
            same &= va[j] == TriadValue(o.seed, env.rank, 0, first + j);
            same &= vb[j] == TriadValue(o.seed, env.rank, 1, first + j);
            vc[j] = va[j] + scalar * vb[j];
          }
          out.Expect(same, "a/b block", b);
          // As in the paper's STREAM runs, mapped-in pages are DRAM pages:
          // the kernel's stream traffic and flops are charged too.
          dram.ChargeRead(clock, 2 * bytes);
          dram.ChargeWrite(clock, bytes);
          cpu.ChargeFlops(clock, 2 * kTriadBlockElems);
          pa->Release();
          pb->Release();
          pc->Release();
          lat[rank].push_back(clock.now() - v0);
        }
        ScopedSpan s(tr, OpKind::kSync, clock);
        out.Check(arr[2]->Sync(), "sync c");
      });
  phase.Finish(*tb, r);
  r.modelled_ns = end - setup_end;
  for (auto& l : lat) r.op_ns.insert(r.op_ns.end(), l.begin(), l.end());
  for (const auto& out : outcomes) out.MergeInto(r);
  r.app_bytes_read = kTriadRanks * 2 * array_bytes;
  r.app_bytes_written = kTriadRanks * array_bytes;
  r.live_user_bytes = kTriadRanks * 3 * array_bytes;
  r.held_bytes = probe.HeldBytes();
  r.files = probe.Files();
  for (auto& ra : arrays) {
    for (NvmRegion* region : ra) {
      r.written_back_bytes += region->stats().bytes_written_back;
    }
  }

  // Check every final c through the spare nodes' caches (nodes 4..7 run
  // no rank), one thread per rank.
  outcomes.assign(kTriadRanks, Outcome{});
  std::vector<int> spare(kTriadRanks);
  for (int i = 0; i < kTriadRanks; ++i) {
    spare[static_cast<size_t>(i)] = kTriadRanks + i;
  }
  tb->cluster().RunProcesses(spare, [&](nvm::net::ProcessEnv& env) {
    Outcome& out = outcomes[static_cast<size_t>(env.rank)];
    std::vector<double> chunk(kTriadBlockElems);
    for (uint64_t b = 0; b < blocks; ++b) {
      const uint64_t first = b * kTriadBlockElems;
      if (!out.Check(ReadFromStore(*tb, env.node_id,
                                   arrays[env.rank][2]->file_id(),
                                   first * sizeof(double),
                                   {reinterpret_cast<uint8_t*>(chunk.data()),
                                    chunk.size() * sizeof(double)}),
                     "read back c")) {
        continue;
      }
      bool same = true;
      for (uint64_t j = 0; j < kTriadBlockElems; ++j) {
        same &= chunk[j] == TriadValue(o.seed, env.rank, 0, first + j) +
                                scalar *
                                    TriadValue(o.seed, env.rank, 1, first + j);
      }
      out.Expect(same, "final c block", b);
    }
  });
  for (const auto& out : outcomes) out.MergeInto(r);
  return r;
}

// ---------------------------------------------------------------------------
// random_update: 1 rank, 70% 4 KiB page reads / 30% 64-byte writes; 80% of
// ops in a hot set that fits the chunk cache, the rest uniform over a
// region 16x the cache; replication 2 with verified reads.
// ---------------------------------------------------------------------------

constexpr uint64_t kPage = 4_KiB;
constexpr uint64_t kSmallWrite = 64;

struct UpdateOp {
  bool write = false;
  uint64_t offset = 0;
  uint64_t payload = 0;  // index into the payload pool (writes)
};

PassResult RunRandomUpdate(const PassOptions& o) {
  const bool tiny = o.size == Size::kTiny;
  const uint64_t region_bytes = tiny ? 2_MiB : 32_MiB;
  const uint64_t hot_bytes = tiny ? 256_KiB : 1_MiB;
  const uint64_t num_ops = tiny ? 800 : 64000;

  PassResult r;
  PassContext pass_ctx;
  auto& clock = pass_ctx.clock();
  Outcome out;
  const auto setup_start = HostClock::now();
  TestbedOptions to;
  to.compute_nodes = 4;
  to.benefactors = 4;
  to.remote_benefactors = true;
  to.store.replication = 2;
  auto tb = std::make_unique<Testbed>(to);
  const uint64_t chunk_bytes = to.store.chunk_bytes;
  const std::vector<int> nodes = {0};

  auto region_or = tb->runtime(0).SsdMalloc(region_bytes);
  if (!out.Check(region_or.status(), "ssdmalloc")) {
    out.MergeInto(r);
    return r;
  }
  NvmRegion* region = *region_or;
  nvm::Xoshiro256 rng(Mix(o.seed, 0x52414e44));
  std::vector<uint8_t> shadow(region_bytes);
  for (uint64_t i = 0; i < region_bytes; i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(shadow.data() + i, &v, 8);
  }
  SetTenant(*tb, nodes, kPreloadTenant);
  out.Check(Preload(region, shadow, chunk_bytes), "preload");
  SetTenant(*tb, nodes, nvm::store::kTenantForeground);

  // The op stream, generated here so its cost lands in set-up.
  const uint64_t pages = region_bytes / kPage;
  const uint64_t hot_pages = hot_bytes / kPage;
  const uint64_t hot_base =
      rng.NextBelow((region_bytes - hot_bytes) / chunk_bytes + 1) *
      (chunk_bytes / kPage);
  std::vector<UpdateOp> ops(num_ops);
  std::vector<uint8_t> payload;
  uint64_t digest = o.seed;
  for (auto& op : ops) {
    const bool hot = rng.NextDouble() < 0.8;
    const uint64_t page =
        hot ? hot_base + rng.NextBelow(hot_pages) : rng.NextBelow(pages);
    op.write = rng.NextDouble() < 0.3;
    op.offset = page * kPage;
    if (op.write) {
      op.offset += rng.NextBelow(kPage / kSmallWrite) * kSmallWrite;
      op.payload = payload.size();
      for (uint64_t i = 0; i < kSmallWrite; i += 8) {
        const uint64_t v = rng.Next();
        payload.insert(payload.end(), reinterpret_cast<const uint8_t*>(&v),
                       reinterpret_cast<const uint8_t*>(&v) + 8);
        digest = Mix(digest, v);
      }
    }
    digest = Mix(digest, op.offset * 2 + (op.write ? 1 : 0));
  }
  r.op_stream_digest = digest;
  r.setup_s = SecondsSince(setup_start);
  if (out.failed > 0) {
    out.MergeInto(r);
    return r;
  }

  Probe probe(*tb, nodes);
  RankTracer* tr = nullptr;
  if (o.trace) {
    r.tracers.push_back(
        std::make_unique<RankTracer>(0, HostClock::now(), &probe));
    tr = r.tracers.back().get();
  }
  std::vector<uint8_t> page_buf(kPage);
  r.op_ns.reserve(num_ops);
  const int64_t v_start = clock.now();
  Phase phase(probe);
  for (uint64_t i = 0; i < num_ops; ++i) {
    const UpdateOp& op = ops[i];
    const int64_t v0 = clock.now();
    ScopedSpan step(tr, OpKind::kStep, clock);
    if (op.write) {
      const std::span<const uint8_t> data(payload.data() + op.payload,
                                          kSmallWrite);
      nvm::Status s;
      {
        ScopedSpan span(tr, OpKind::kWrite, clock);
        s = region->Write(op.offset, data);
      }
      if (out.Check(s, "write")) {
        std::memcpy(shadow.data() + op.offset, data.data(), kSmallWrite);
      }
    } else {
      nvm::Status s;
      {
        ScopedSpan span(tr, OpKind::kRead, clock);
        s = region->Read(op.offset, page_buf);
      }
      if (out.Check(s, "read")) {
        out.Expect(std::memcmp(page_buf.data(), shadow.data() + op.offset,
                               kPage) == 0,
                   "page at", op.offset);
      }
    }
    r.op_ns.push_back(clock.now() - v0);
  }
  {
    ScopedSpan span(tr, OpKind::kSync, clock);
    out.Check(region->Sync(), "sync");
  }
  phase.Finish(*tb, r);
  r.modelled_ns = clock.now() - v_start;
  for (const UpdateOp& op : ops) {
    if (op.write) {
      r.app_bytes_written += kSmallWrite;
    } else {
      r.app_bytes_read += kPage;
    }
  }
  r.live_user_bytes = region_bytes;
  r.held_bytes = probe.HeldBytes();
  r.files = probe.Files();
  r.written_back_bytes = region->stats().bytes_written_back;

  // Everything the run wrote must now be in the store.
  std::vector<uint8_t> chunk(chunk_bytes);
  for (uint64_t off = 0; off < region_bytes; off += chunk_bytes) {
    if (!out.Check(ReadFromStore(*tb, 1, region->file_id(), off, chunk),
                   "read back")) {
      continue;
    }
    out.Expect(std::memcmp(chunk.data(), shadow.data() + off,
                           chunk_bytes) == 0,
               "stored chunk at", off);
  }
  out.MergeInto(r);
  return r;
}

// ---------------------------------------------------------------------------
// ckpt_ec: 1 rank, timestep loop.  Each step dirties scattered 256-byte
// spans of an NVM variable and a DRAM segment, syncs, checkpoints (COW
// link) and releases checkpoint t-2.  RS(4,2) over 6 remote benefactors,
// WAL on.  Ends with SsdRestart.
// ---------------------------------------------------------------------------

constexpr uint64_t kSpan = 256;
constexpr int kNvmSpansPerStep = 16;
constexpr int kDramSpansPerStep = 8;

std::string CkptName(int t) { return "/ckpt/t" + std::to_string(t); }

PassResult RunCkptEc(const PassOptions& o) {
  const bool tiny = o.size == Size::kTiny;
  const uint64_t var_bytes = tiny ? 1_MiB : 8_MiB;
  const uint64_t dram_bytes = tiny ? 64_KiB : 256_KiB;
  // An op is one timestep.  200 of them: p90 of the step and checkpoint
  // latencies has 20 samples beyond it.
  const int steps = tiny ? 12 : 200;

  PassResult r;
  PassContext pass_ctx;
  auto& clock = pass_ctx.clock();
  Outcome out;
  const auto setup_start = HostClock::now();
  TestbedOptions to;
  to.compute_nodes = 6;
  to.benefactors = 6;
  to.remote_benefactors = true;
  to.store.redundancy = nvm::store::RedundancyMode::kErasure;
  to.store.ec_k = 4;
  to.store.ec_m = 2;
  to.store.wal = true;
  auto tb = std::make_unique<Testbed>(to);
  const uint64_t chunk_bytes = to.store.chunk_bytes;
  auto& runtime = tb->runtime(0);
  const std::vector<int> nodes = {0};

  auto var_or = runtime.SsdMalloc(var_bytes);
  if (!out.Check(var_or.status(), "ssdmalloc")) {
    out.MergeInto(r);
    return r;
  }
  NvmRegion* var = *var_or;
  nvm::Xoshiro256 rng(Mix(o.seed, 0x434b5054));
  auto fill = [&rng](std::vector<uint8_t>& v) {
    for (uint64_t i = 0; i + 8 <= v.size(); i += 8) {
      const uint64_t x = rng.Next();
      std::memcpy(v.data() + i, &x, 8);
    }
  };
  std::vector<uint8_t> var_shadow(var_bytes), dram(dram_bytes);
  fill(var_shadow);
  fill(dram);
  SetTenant(*tb, nodes, kPreloadTenant);
  out.Check(Preload(var, var_shadow, chunk_bytes), "preload");
  SetTenant(*tb, nodes, nvm::store::kTenantForeground);

  // Op stream: per step, span offsets into the variable and the segment,
  // and the bytes each span receives.
  const int nvm_spans = steps * kNvmSpansPerStep;
  const int dram_spans = steps * kDramSpansPerStep;
  std::vector<uint64_t> nvm_off(static_cast<size_t>(nvm_spans));
  std::vector<uint64_t> dram_off(static_cast<size_t>(dram_spans));
  std::vector<uint8_t> span_bytes(
      static_cast<size_t>(nvm_spans + dram_spans) * kSpan);
  uint64_t digest = o.seed;
  for (auto& off : nvm_off) {
    off = rng.NextBelow(var_bytes / kSpan) * kSpan;
    digest = Mix(digest, off);
  }
  for (auto& off : dram_off) {
    off = rng.NextBelow(dram_bytes / kSpan) * kSpan;
    digest = Mix(digest, off);
  }
  fill(span_bytes);
  r.op_stream_digest = Mix(digest, span_bytes[0] | span_bytes.back() << 8);
  r.setup_s = SecondsSince(setup_start);
  if (out.failed > 0) {
    out.MergeInto(r);
    return r;
  }

  Probe probe(*tb, nodes);
  RankTracer* tr = nullptr;
  if (o.trace) {
    r.tracers.push_back(
        std::make_unique<RankTracer>(0, HostClock::now(), &probe));
    tr = r.tracers.back().get();
  }
  // Host images of the two checkpoints retained at the end, by step parity.
  std::vector<uint8_t> kept_var[2], kept_dram[2];
  uint64_t ckpt_logical[2] = {0, 0};
  auto traced = [&](OpKind kind, auto&& call) {
    ScopedSpan span(tr, kind, clock);
    return call();
  };

  const int64_t v_start = clock.now();
  Phase phase(probe);
  const uint8_t* next_bytes = span_bytes.data();
  for (int t = 0; t < steps; ++t) {
    const int64_t step_start = clock.now();
    ScopedSpan step(tr, OpKind::kStep, clock);
    for (int i = 0; i < kNvmSpansPerStep; ++i) {
      const uint64_t off =
          nvm_off[static_cast<size_t>(t * kNvmSpansPerStep + i)];
      const std::span<const uint8_t> data(next_bytes, kSpan);
      next_bytes += kSpan;
      const nvm::Status s =
          traced(OpKind::kWrite, [&] { return var->Write(off, data); });
      if (out.Check(s, "span write")) {
        std::memcpy(var_shadow.data() + off, data.data(), kSpan);
        r.app_bytes_written += kSpan;
      }
    }
    for (int i = 0; i < kDramSpansPerStep; ++i) {
      const uint64_t off =
          dram_off[static_cast<size_t>(t * kDramSpansPerStep + i)];
      std::memcpy(dram.data() + off, next_bytes, kSpan);
      next_bytes += kSpan;
    }
    out.Check(traced(OpKind::kSync, [&] { return var->Sync(); }), "sync");

    nvm::CheckpointSpec spec;
    spec.dram.push_back({dram.data(), dram.size()});
    spec.nvm.push_back(var);
    const int64_t c0 = clock.now();
    auto info = traced(OpKind::kCheckpoint, [&] {
      return runtime.SsdCheckpoint(spec, CkptName(t));
    });
    if (out.Check(info.status(), "checkpoint")) {
      r.ckpt_ns.push_back(clock.now() - c0);
      r.app_bytes_written += info->dram_bytes_copied;
      ckpt_logical[t % 2] = info->dram_bytes_copied + info->nvm_bytes_linked;
      if (t >= steps - 2) {  // only the two retained at the end are checked
        kept_var[t % 2] = var_shadow;
        kept_dram[t % 2] = dram;
      }
    }
    if (t >= 2) {
      const std::string released = CkptName(t - 2);
      out.Check(traced(OpKind::kRelease,
                       [&] { return runtime.ReleaseCheckpoint(released); }),
                "release");
    }
    r.op_ns.push_back(clock.now() - step_start);
  }
  r.live_user_bytes = var_bytes + ckpt_logical[0] + ckpt_logical[1];
  r.held_bytes = probe.HeldBytes();
  r.files = probe.Files();

  // Restart the last checkpoint into a fresh variable and segment.
  const int last = steps - 1;
  std::vector<uint8_t> restored_dram(dram_bytes);
  NvmRegion* restored = nullptr;
  auto fresh = runtime.SsdMalloc(var_bytes);
  if (out.Check(fresh.status(), "ssdmalloc restart target")) {
    restored = *fresh;
    nvm::RestoreSpec rs;
    rs.dram.push_back({restored_dram.data(), restored_dram.size()});
    rs.nvm.push_back(restored);
    out.Check(traced(OpKind::kRestart,
                     [&] { return runtime.SsdRestart(CkptName(last), rs); }),
              "restart");
    r.app_bytes_read += var_bytes + dram_bytes;
  }
  phase.Finish(*tb, r);
  r.modelled_ns = clock.now() - v_start;
  r.written_back_bytes = var->stats().bytes_written_back;
  if (restored != nullptr) {
    r.written_back_bytes += restored->stats().bytes_written_back;
  }

  // The restart image must equal the state at the last checkpoint, and the
  // oldest retained checkpoint must be untouched by the COW writes of the
  // step after it.
  auto check_image = [&](NvmRegion* region,
                         const std::vector<uint8_t>& dram_img, int t) {
    std::vector<uint8_t> got(var_bytes);
    if (out.Check(region->Read(0, got), "read restored variable")) {
      out.Expect(got == kept_var[t % 2], "variable of checkpoint", t);
    }
    out.Expect(dram_img == kept_dram[t % 2], "DRAM segment of checkpoint",
               t);
  };
  if (restored != nullptr) check_image(restored, restored_dram, last);
  if (steps >= 2) {
    auto older = runtime.SsdMalloc(var_bytes);
    if (out.Check(older.status(), "ssdmalloc check target")) {
      std::vector<uint8_t> older_dram(dram_bytes);
      nvm::RestoreSpec rs;
      rs.dram.push_back({older_dram.data(), older_dram.size()});
      rs.nvm.push_back(*older);
      if (out.Check(runtime.SsdRestart(CkptName(last - 1), rs),
                    "restart oldest")) {
        check_image(*older, older_dram, last - 1);
      }
    }
  }
  out.MergeInto(r);
  return r;
}

struct Entry {
  const char* name;
  WorkloadFn fn;
};
constexpr Entry kWorkloads[] = {
    {"stream_triad", &RunStreamTriad},
    {"random_update", &RunRandomUpdate},
    {"ckpt_ec", &RunCkptEc},
};

}  // namespace

WorkloadFn FindWorkload(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return e.fn;
  }
  return nullptr;
}

}  // namespace perfbench
