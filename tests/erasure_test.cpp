// Erasure-coded redundancy: GF(2^8)/RS known-answer vectors, the
// encode -> drop-any-m -> reconstruct byte-exactness guarantee, the
// client degraded-read failover, background fragment repair from verified
// survivors, corrupt-fragment quarantine (rot surfaces as a repair, never
// as wrong bytes), copy-on-write stripes that ship each holder only its
// fragment's changed pages, and the knob-off pin: a store with the erasure
// knobs present but the mode off stays byte- and virtual-time-identical to
// the replicated default.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <span>
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

using store::ErasureCodec;

constexpr uint64_t kChunk = 64_KiB;
constexpr int64_t kMs = 1'000'000;  // virtual ns per millisecond

// ---- GF(2^8) known answers ----

TEST(Gf256Test, KnownAnswerVectors) {
  // alpha^8 reduces through the primitive polynomial 0x11D: 0x80 * 2 = 0x1D.
  EXPECT_EQ(store::gf256::Mul(0x80, 0x02), 0x1D);
  // Hand-checked products (carry-less multiply mod 0x11D).
  EXPECT_EQ(store::gf256::Mul(0x02, 0x02), 0x04);
  EXPECT_EQ(store::gf256::Mul(0x53, 0xCA), 0x8F);
  EXPECT_EQ(store::gf256::Mul(0x0E, 0x0E), 0x54);  // squaring is carry-less
  // Identity and absorbing elements.
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(store::gf256::Mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(store::gf256::Mul(static_cast<uint8_t>(a), 0), 0);
  }
  // Exp/Log are inverse bijections and alpha^255 = 1.
  EXPECT_EQ(store::gf256::Exp(0), 1);
  EXPECT_EQ(store::gf256::Exp(255), 1);
  EXPECT_EQ(store::gf256::Log(2), 1u);
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(store::gf256::Exp(store::gf256::Log(static_cast<uint8_t>(a))),
              a);
  }
}

TEST(Gf256Test, MulDivInvIdentities) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Next());
    const uint8_t b = static_cast<uint8_t>(rng.Next() | 1);  // non-zero
    EXPECT_EQ(store::gf256::Div(store::gf256::Mul(a, b), b), a);
    EXPECT_EQ(store::gf256::Mul(b, store::gf256::Inv(b)), 1);
    // Commutativity and distributivity over XOR (field addition).
    const uint8_t c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(store::gf256::Mul(a, b), store::gf256::Mul(b, a));
    EXPECT_EQ(store::gf256::Mul(a, b ^ c),
              store::gf256::Mul(a, b) ^ store::gf256::Mul(a, c));
  }
}

// ---- RS codec ----

std::vector<uint8_t> Pattern(uint64_t n, uint64_t seed) {
  std::vector<uint8_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

// All k+m fragments of `chunk` as owned vectors: the codec's data views
// copied out, followed by its parity.
std::vector<std::vector<uint8_t>> EncodeAll(const ErasureCodec& codec,
                                            std::span<const uint8_t> chunk) {
  const auto data = codec.DataFragments(chunk);
  std::vector<std::vector<uint8_t>> frags;
  for (const auto& d : data) frags.emplace_back(d.begin(), d.end());
  for (auto& p : codec.EncodeParity(data)) frags.push_back(std::move(p));
  return frags;
}

// The k data fragments concatenated back into the chunk image.
std::vector<uint8_t> AssembleData(
    const std::vector<std::vector<uint8_t>>& frags, uint32_t k) {
  std::vector<uint8_t> out;
  for (uint32_t i = 0; i < k; ++i) {
    out.insert(out.end(), frags[i].begin(), frags[i].end());
  }
  return out;
}

TEST(Gf256Test, DispatchedMulAccMatchesScalarForEveryCoefficient) {
  // Lengths straddle the 32-byte vector width (and an odd tail after a
  // long vector run); dst starts non-zero so the accumulate is checked.
  for (size_t len : {0u, 1u, 31u, 32u, 33u, 16u * 1024 + 5}) {
    const auto src = Pattern(len, 20 + len);
    const auto dst = Pattern(len, 30 + len);
    for (unsigned coeff = 0; coeff < 256; ++coeff) {
      auto simd = dst;
      auto scalar = dst;
      store::gf256::MulAcc(static_cast<uint8_t>(coeff), src, simd);
      store::gf256::MulAccScalar(static_cast<uint8_t>(coeff), src, scalar);
      ASSERT_EQ(simd, scalar) << "coeff " << coeff << " len " << len;
    }
  }
}

TEST(Gf256Test, DispatcherPicksAvx2WhenCpuHasIt) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "no AVX2 here";
  EXPECT_TRUE(store::gf256::MulAccIsSimd());
#else
  EXPECT_FALSE(store::gf256::MulAccIsSimd());
#endif
}

TEST(ErasureCodecTest, ParityMatchesNaiveReference) {
  // Independent reference: parity row r is sum_c C[r][c] * data[c], with
  // the coefficients read back through ParityCoeff and the field ops used
  // one byte at a time.
  const uint32_t k = 4, m = 2;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * 64, 11);
  const auto frags = EncodeAll(codec, chunk);
  ASSERT_EQ(frags.size(), k + m);
  for (uint32_t r = 0; r < m; ++r) {
    for (size_t byte = 0; byte < 64; ++byte) {
      uint8_t want = 0;
      for (uint32_t c = 0; c < k; ++c) {
        want = static_cast<uint8_t>(
            want ^ store::gf256::Mul(codec.ParityCoeff(r, c),
                                     chunk[c * 64 + byte]));
      }
      ASSERT_EQ(frags[k + r][byte], want) << "row " << r << " byte " << byte;
    }
  }
  // Systematic: data fragments are contiguous slices of the chunk.
  for (uint32_t c = 0; c < k; ++c) {
    EXPECT_EQ(0, std::memcmp(frags[c].data(), chunk.data() + c * 64, 64));
  }
}

TEST(ErasureCodecTest, AnyTwoLossesReconstructByteExact) {
  // RS(4,2): all C(6,2) = 15 double-loss patterns must reconstruct the
  // chunk byte-exactly (the MDS property of the Cauchy construction).
  const uint32_t k = 4, m = 2;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * 512, 12);
  const auto encoded = EncodeAll(codec, chunk);
  std::vector<uint8_t> out(chunk.size());
  for (uint32_t a = 0; a < k + m; ++a) {
    for (uint32_t b = a + 1; b < k + m; ++b) {
      auto frags = encoded;
      frags[a].clear();
      frags[b].clear();
      ASSERT_TRUE(codec.Reconstruct(frags)) << a << "," << b;
      for (uint32_t f = 0; f < k + m; ++f) {
        ASSERT_EQ(frags[f], encoded[f]) << "loss " << a << "," << b
                                        << " fragment " << f;
      }
      ASSERT_EQ(AssembleData(frags, k), chunk) << "loss " << a << "," << b;
    }
  }
  // m+1 losses are unrecoverable and must say so, not fabricate bytes.
  auto frags = encoded;
  frags[0].clear();
  frags[2].clear();
  frags[5].clear();
  EXPECT_FALSE(codec.Reconstruct(frags));
}

// Every subset of {0, ..., n-1} with 1..max_size members, as index lists.
std::vector<std::vector<uint32_t>> ErasurePatterns(uint32_t n,
                                                   uint32_t max_size) {
  std::vector<std::vector<uint32_t>> out;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (static_cast<uint32_t>(std::popcount(mask)) > max_size) continue;
    std::vector<uint32_t> lost;
    for (uint32_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) lost.push_back(i);
    }
    out.push_back(lost);
  }
  return out;
}

TEST(ErasureCodecTest, DispatchedKernelMatchesScalarCodec) {
  // The dispatched GF(2^8) kernel must leave every codec output
  // byte-identical to the scalar one: encode, parity-only encode, and the
  // reconstruction of every erasure pattern of up to m fragments.
  for (auto [k, m] : {std::pair<uint32_t, uint32_t>{4, 2}, {6, 3}}) {
    const ErasureCodec fast(k, m);
    const ErasureCodec scalar(k, m, &store::gf256::MulAccScalar);
    const size_t frag = 4096 + 37;  // not a multiple of the vector width
    const auto chunk = Pattern(k * frag, 40 + k);
    const auto encoded = EncodeAll(fast, chunk);
    ASSERT_EQ(encoded, EncodeAll(scalar, chunk))
        << "RS(" << k << "," << m << ")";
    const auto data = fast.DataFragments(chunk);
    const auto parity = fast.EncodeParity(data);
    ASSERT_EQ(parity, scalar.EncodeParity(data));
    ASSERT_TRUE(std::equal(parity.begin(), parity.end(), encoded.begin() + k));
    for (const auto& lost : ErasurePatterns(k + m, m)) {
      auto a = encoded;
      for (uint32_t f : lost) a[f].clear();
      auto b = a;
      ASSERT_TRUE(fast.Reconstruct(a));
      ASSERT_TRUE(scalar.Reconstruct(b));
      ASSERT_EQ(a, b) << "RS(" << k << "," << m << ") lost "
                      << ::testing::PrintToString(lost);
      ASSERT_EQ(a, encoded);
    }
  }
}

// Oracle for the span-based encode: a plain copying encode — data slices
// copied out, each parity row zeroed and accumulated with the scalar
// kernel.
std::vector<std::vector<uint8_t>> ReferenceEncode(
    const ErasureCodec& codec, const std::vector<uint8_t>& chunk) {
  const uint32_t k = codec.k();
  const size_t frag = chunk.size() / k;
  std::vector<std::vector<uint8_t>> frags(codec.fragments());
  for (uint32_t i = 0; i < k; ++i) {
    frags[i].assign(chunk.begin() + i * frag, chunk.begin() + (i + 1) * frag);
  }
  for (uint32_t r = 0; r < codec.m(); ++r) {
    frags[k + r].assign(frag, 0);
    for (uint32_t c = 0; c < k; ++c) {
      store::gf256::MulAccScalar(codec.ParityCoeff(r, c), frags[c],
                                 frags[k + r]);
    }
  }
  return frags;
}

TEST(ErasureCodecTest, SpanEncodeParityMatchesCopyingEncode) {
  // Data fragments are views into the chunk (no copy), and the parity the
  // span-taking EncodeParity computes from them is byte-identical to the
  // copying reference.
  for (auto [k, m] : {std::pair<uint32_t, uint32_t>{4, 2}, {6, 3}, {10, 4}}) {
    SCOPED_TRACE(::testing::Message() << "RS(" << k << "," << m << ")");
    const ErasureCodec codec(k, m);
    const size_t frag = 1024 + 13;
    const auto chunk = Pattern(k * frag, 60 + k);
    const auto want = ReferenceEncode(codec, chunk);
    const auto data = codec.DataFragments(chunk);
    ASSERT_EQ(data.size(), k);
    for (uint32_t i = 0; i < k; ++i) {
      EXPECT_EQ(data[i].data(), chunk.data() + i * frag);
      EXPECT_EQ(data[i].size(), frag);
    }
    const auto parity = codec.EncodeParity(data);
    ASSERT_EQ(parity.size(), m);
    for (uint32_t r = 0; r < m; ++r) EXPECT_EQ(parity[r], want[k + r]);
  }
}

TEST(ErasureCodecTest, WideGeometryRoundTrips) {
  // A non-RAID shape exercises the general Cauchy solve.
  const uint32_t k = 10, m = 4;
  ErasureCodec codec(k, m);
  const auto chunk = Pattern(k * 128, 13);
  auto frags = EncodeAll(codec, chunk);
  // Drop m scattered fragments, parity and data mixed.
  frags[1].clear();
  frags[7].clear();
  frags[10].clear();
  frags[13].clear();
  ASSERT_TRUE(codec.Reconstruct(frags));
  EXPECT_EQ(AssembleData(frags, k), chunk);
}

// ---- store rig ----

// RS(4,2) needs six distinct failure domains: one benefactor per node.
struct Rig {
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<store::AggregateStore> store;

  explicit Rig(int benefactors,
               std::function<void(store::StoreConfig&)> tweak = {}) {
    net::ClusterConfig cc;
    cc.num_nodes = benefactors + 1;
    cluster = std::make_unique<net::Cluster>(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 1;
    sc.store.redundancy = store::RedundancyMode::kErasure;
    sc.store.ec_k = 4;
    sc.store.ec_m = 2;
    sc.store.maintenance = true;
    sc.store.heartbeat_period_ms = 1;
    sc.store.heartbeat_misses = 3;
    sc.store.scrub_period_ms = 20;
    if (tweak) tweak(sc.store);
    for (int b = 0; b < benefactors; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store = std::make_unique<store::AggregateStore>(*cluster, sc);
    sim::CurrentClock().Reset();
  }

  store::MaintenanceService& ms() { return *store->maintenance(); }
};

store::FileId WriteStoreFile(store::StoreClient& c, const std::string& name,
                             uint32_t chunks, const std::vector<uint8_t>& data,
                             sim::VirtualClock& clock) {
  auto id = c.Create(clock, name);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, chunks * kChunk).ok());
  Bitmap all(kChunk / c.config().page_bytes);
  all.SetAll();
  for (uint32_t i = 0; i < chunks; ++i) {
    EXPECT_TRUE(
        c.WriteChunkPages(clock, *id, i, all,
                          {data.data() + i * kChunk, kChunk})
            .ok());
  }
  return *id;
}

void ExpectBytes(store::StoreClient& c, sim::VirtualClock& clock,
                 store::FileId id, uint32_t chunks,
                 const std::vector<uint8_t>& want) {
  std::vector<uint8_t> buf(kChunk);
  for (uint32_t i = 0; i < chunks; ++i) {
    ASSERT_TRUE(c.ReadChunk(clock, id, i, buf).ok()) << "chunk " << i;
    ASSERT_EQ(0, std::memcmp(buf.data(), want.data() + i * kChunk, kChunk))
        << "chunk " << i;
  }
}

// Every chunk carries a full positional fragment map: k+m entries, no
// holes, all distinct, all on alive benefactors.
void ExpectFullStripes(Rig& rig, store::FileId id, uint32_t chunks) {
  sim::VirtualClock clock(0);
  const auto& cfg = rig.store->manager().config();
  auto locs = rig.store->manager().GetReadLocations(clock, id, 0, chunks);
  ASSERT_TRUE(locs.ok());
  for (uint32_t i = 0; i < chunks; ++i) {
    const store::ReadLocation& loc = (*locs)[i];
    ASSERT_TRUE(loc.ec) << "chunk " << i;
    ASSERT_EQ(loc.benefactors.size(), cfg.ec_fragments()) << "chunk " << i;
    std::set<int> distinct;
    for (int b : loc.benefactors) {
      ASSERT_GE(b, 0) << "chunk " << i << " has a hole";
      EXPECT_TRUE(rig.store->benefactor(static_cast<size_t>(b)).alive())
          << "chunk " << i << " fragment on dead benefactor " << b;
      distinct.insert(b);
    }
    EXPECT_EQ(distinct.size(), loc.benefactors.size())
        << "chunk " << i << " co-locates fragments";
  }
}

// ---- degraded reads ----

TEST(ErasureStoreTest, WriteThenReadRoundTripsIntact) {
  Rig rig(6);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 21);
  const store::FileId id = WriteStoreFile(c, "/ec", kChunks, data, clock);
  ExpectFullStripes(rig, id, kChunks);
  ExpectBytes(c, clock, id, kChunks, data);
  // The intact fast path never reconstructs.
  EXPECT_EQ(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().ec_degraded_reads(), 0u);
  // Parity accounting: m/k of the data volume rode along as parity.
  EXPECT_EQ(rig.store->manager().ec_parity_bytes(),
            kChunks * kChunk * 2 / 4);
}

TEST(ErasureStoreTest, DegradedReadSurvivesAnyTwoFragmentLosses) {
  // Detector pushed out of the horizon: the reads themselves must fail
  // over, with no repair help.
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 6;
  const auto data = Pattern(kChunks * kChunk, 22);
  const store::FileId id = WriteStoreFile(c, "/deg", kChunks, data, clock);

  // m = 2 losses: every stripe spans all six benefactors, so every chunk
  // loses exactly two fragments — the worst tolerable case.
  rig.store->benefactor(1).Kill();
  rig.store->benefactor(4).Kill();
  ExpectBytes(c, clock, id, kChunks, data);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().ec_degraded_reads(), c.ec_degraded_reads());
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureStoreTest, InPlaceStripeReadMatchesReferenceForEveryErasure) {
  // The stripe read lands data fragments straight in the caller's buffer.
  // For the intact stripe and every pattern of up to m lost fragments it
  // must return exactly the bytes written.  The first lost position is
  // corrupted rather than killed: its rotten bytes reach the buffer before
  // the checksum rejects them, and the reconstruction must overwrite them.
  const uint32_t k = 4, m = 2;
  const auto data = Pattern(2 * kChunk, 24);
  const std::vector<uint8_t> want(data.begin(), data.begin() + kChunk);
  auto patterns = ErasurePatterns(k + m, m);
  patterns.insert(patterns.begin(), std::vector<uint32_t>{});  // intact
  for (const auto& lost : patterns) {
    SCOPED_TRACE(::testing::Message()
                 << "lost " << ::testing::PrintToString(lost));
    Rig rig(6, [](store::StoreConfig& cfg) {
      cfg.heartbeat_period_ms = 1'000'000;
      cfg.scrub_period_ms = 1'000'000;
    });
    store::StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    const store::FileId id = WriteStoreFile(c, "/inplace", 2, data, clock);
    auto loc = rig.store->manager().GetReadLocation(clock, id, 0);
    ASSERT_TRUE(loc.ok());
    ASSERT_EQ(loc->benefactors.size(), k + m);
    for (size_t i = 0; i < lost.size(); ++i) {
      auto& b =
          rig.store->benefactor(static_cast<size_t>(loc->benefactors[lost[i]]));
      if (i == 0) {
        ASSERT_TRUE(b.CorruptChunk(loc->key, 100, 0x21).ok());
      } else {
        b.Kill();
      }
    }
    std::vector<uint8_t> got(kChunk, 0xEE);
    ASSERT_TRUE(c.ReadChunk(clock, id, 0, got).ok());
    EXPECT_EQ(got, want);
    const bool data_lost = std::any_of(lost.begin(), lost.end(),
                                       [&](uint32_t p) { return p < k; });
    EXPECT_EQ(c.ec_degraded_reads(), data_lost ? 1u : 0u);
  }
}

TEST(ErasureStoreTest, PartialDirtyWriteMergesOverDegradedStripe) {
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 23);
  const store::FileId id = WriteStoreFile(c, "/rmw", 1, data, clock);

  // Kill one fragment holder, then flush a single dirty page: the
  // read-modify-write must reconstruct the old bytes, overlay the page,
  // and land a consistent new stripe on the survivors.
  rig.store->benefactor(2).Kill();
  auto want = data;
  std::fill(want.begin() + 4096, want.begin() + 8192, 0x5A);
  Bitmap one(kChunk / c.config().page_bytes);
  one.Set(1);
  ASSERT_TRUE(c.WriteChunkPages(clock, id, 0, one, want).ok());
  ExpectBytes(c, clock, id, 1, want);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureStoreTest, CommittedImageChecksumIsCrcOfTheImage) {
  // A stripe write derives the full-image checksum from the k data-
  // fragment checksums (Crc32cCombine) instead of hashing the image again.
  // The committed value must still be exactly the CRC of the image, for
  // full-stripe writes and for read-modify-write flushes whose dirty pages
  // sit inside one fragment, straddle two or span several.
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 3;
  auto data = Pattern(kChunks * kChunk, 27);
  const store::FileId id = WriteStoreFile(c, "/crc", kChunks, data, clock);
  const auto expect_committed = [&](uint32_t chunk) {
    auto loc = m.GetReadLocation(clock, id, chunk);
    ASSERT_TRUE(loc.ok());
    uint32_t crc = 0;
    ASSERT_TRUE(m.LookupChecksum(loc->key, &crc));
    EXPECT_EQ(crc, Crc32c(data.data() + chunk * kChunk, kChunk))
        << "chunk " << chunk;
  };
  for (uint32_t i = 0; i < kChunks; ++i) expect_committed(i);

  const uint64_t page = c.config().page_bytes;
  const size_t pages = kChunk / page;
  const size_t frag_pages = pages / 4;
  uint64_t seed = 28;
  for (const auto& set : std::initializer_list<std::vector<size_t>>{
           {0},
           {frag_pages - 1, frag_pages},
           {pages - 1},
           {1, frag_pages + 2, 2 * frag_pages + 1, pages - 2}}) {
    const uint32_t chunk = static_cast<uint32_t>(seed % kChunks);
    Bitmap dirty(pages);
    for (size_t p : set) {
      dirty.Set(p);
      const auto fresh = Pattern(page, seed++);
      std::copy(fresh.begin(), fresh.end(),
                data.begin() + chunk * kChunk + p * page);
    }
    ASSERT_TRUE(c.WriteChunkPages(clock, id, chunk, dirty,
                                  {data.data() + chunk * kChunk, kChunk})
                    .ok());
    expect_committed(chunk);
  }
  ExpectBytes(c, clock, id, kChunks, data);
}

// ---- fragment repair ----

TEST(ErasureStoreTest, FragmentRepairRestoresFullStripes) {
  Rig rig(7);
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kChunks = 8;
  const auto data = Pattern(kChunks * kChunk, 24);
  const store::FileId id = WriteStoreFile(c, "/rep", kChunks, data, clock);

  // Kill a holder; the detector declares it and repair re-encodes every
  // missing fragment onto the spare failure domain.
  rig.ms().RunUntil(rig.ms().now_ns());
  rig.store->benefactor(3).Kill();
  rig.ms().RunUntil(rig.ms().now_ns() + 10 * kMs);
  EXPECT_TRUE(rig.ms().QueueEmpty());
  EXPECT_GT(rig.store->manager().ec_fragments_repaired(), 0u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
  ExpectFullStripes(rig, id, kChunks);

  // The repaired stripes must survive a FURTHER double loss byte-exactly:
  // repaired parity is real parity, not a placeholder.
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(5).Kill();
  sim::VirtualClock rclock(clock.now());
  ExpectBytes(c, rclock, id, kChunks, data);
}

TEST(ErasureStoreTest, StripeBelowKIsLostNotFabricated) {
  Rig rig(6, [](store::StoreConfig& cfg) {
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 25);
  const store::FileId id = WriteStoreFile(c, "/lost", 1, data, clock);

  // m+1 = 3 losses: below k survivors, the read must fail — never
  // fabricate bytes.
  rig.store->benefactor(0).Kill();
  rig.store->benefactor(2).Kill();
  rig.store->benefactor(4).Kill();
  std::vector<uint8_t> buf(kChunk);
  EXPECT_FALSE(c.ReadChunk(clock, id, 0, buf).ok());
}

// ---- corrupt fragments ----

TEST(ErasureStoreTest, CorruptFragmentQuarantinedNeverWrongBytes) {
  Rig rig(7, [](store::StoreConfig& cfg) {
    cfg.verify_reads = true;
    cfg.heartbeat_period_ms = 1'000'000;
    cfg.scrub_period_ms = 1'000'000;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto data = Pattern(kChunk, 26);
  const store::FileId id = WriteStoreFile(c, "/rot", 1, data, clock);

  // Flip a bit in a DATA fragment (position 0) behind everyone's back.
  auto loc = rig.store->manager().GetReadLocation(clock, id, 0);
  ASSERT_TRUE(loc.ok());
  const int bad = loc->benefactors[0];
  ASSERT_TRUE(rig.store->benefactor(static_cast<size_t>(bad))
                  .CorruptChunk(loc->key, 17, 0x40)
                  .ok());

  // The verifying read catches the rot, quarantines the fragment, and
  // reconstructs the true bytes from the survivors.
  std::vector<uint8_t> buf(kChunk);
  ASSERT_TRUE(c.ReadChunk(clock, id, 0, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));
  EXPECT_GT(c.corrupt_failovers(), 0u);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_GT(rig.store->manager().corrupt_detected(), 0u);

  // The quarantine queued a repair: draining it re-encodes the fragment
  // (onto a clean domain) and the stripe is whole again.
  rig.ms().RunUntil(rig.ms().now_ns() + 5 * kMs);
  EXPECT_TRUE(rig.ms().QueueEmpty());
  EXPECT_GT(rig.store->manager().ec_fragments_repaired(), 0u);
  ExpectFullStripes(rig, id, 1);
  ExpectBytes(c, clock, id, 1, data);
}

// ---- the run path ----

// Virtual times of one-stripe operations, pinned from the per-fragment
// RPC path the run RPCs replaced: a one-stripe window sends each fragment
// holder a run of one, which must cost exactly what the fragment RPC did.
// The pins cover a full-dirty write, a one-page read-modify-write and a
// read, with and without the WAL, at both run-length settings.
struct OneStripeTimes {
  int64_t write_full = 0;
  int64_t write_partial = 0;
  int64_t read = 0;
  bool operator==(const OneStripeTimes&) const = default;
};

void PrintTo(const OneStripeTimes& t, std::ostream* os) {
  *os << "{full " << t.write_full << ", partial " << t.write_partial
      << ", read " << t.read << "}";
}

OneStripeTimes MeasureOneStripe(bool wal, size_t max_run) {
  Rig rig(6, [&](store::StoreConfig& cfg) {
    cfg.maintenance = false;
    cfg.wal = wal;
    cfg.max_run_chunks = max_run;
  });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  auto id = c.Create(clock, "/pin");
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(c.Fallocate(clock, *id, 2 * kChunk).ok());
  auto data = Pattern(kChunk, 40);
  const uint64_t page = c.config().page_bytes;
  Bitmap all(kChunk / page);
  all.SetAll();
  OneStripeTimes t;
  int64_t start = clock.now();
  EXPECT_TRUE(c.WriteChunkPages(clock, *id, 0, all, data).ok());
  t.write_full = clock.now() - start;

  Bitmap one(kChunk / page);
  one.Set(5);
  const auto fresh = Pattern(page, 41);
  std::copy(fresh.begin(), fresh.end(), data.begin() + 5 * page);
  start = clock.now();
  EXPECT_TRUE(c.WriteChunkPages(clock, *id, 0, one, data).ok());
  t.write_partial = clock.now() - start;

  std::vector<uint8_t> buf(kChunk);
  start = clock.now();
  EXPECT_TRUE(c.ReadChunk(clock, *id, 0, buf).ok());
  t.read = clock.now() - start;
  EXPECT_EQ(buf, data);
  return t;
}

TEST(ErasureRunPathTest, OneStripeTimesMatchPerFragmentPins) {
  for (bool wal : {false, true}) {
    const OneStripeTimes pinned =
        wal ? OneStripeTimes{1'279'601, 1'829'451, 549'850}
            : OneStripeTimes{1'170'507, 1'720'357, 549'850};
    for (size_t max_run : {size_t{1}, std::numeric_limits<size_t>::max()}) {
      SCOPED_TRACE(::testing::Message()
                   << "wal " << wal << " max_run " << max_run);
      EXPECT_EQ(MeasureOneStripe(wal, max_run), pinned);
    }
  }
}

// A flush window of `n` stripes starting at chunk 0: `dirty[i]` selects
// the pages to flush, `valid[i]` (may be null) the pages the image holds.
Status WriteWindow(store::StoreClient& c, sim::VirtualClock& clock,
                   store::FileId id, const std::vector<uint8_t>& images,
                   const std::vector<Bitmap>& dirty,
                   const std::vector<Bitmap>* valid,
                   std::vector<store::StoreClient::ChunkWrite>* out = nullptr) {
  std::vector<store::StoreClient::ChunkWrite> writes(dirty.size());
  for (size_t i = 0; i < dirty.size(); ++i) {
    writes[i].index = static_cast<uint32_t>(i);
    writes[i].dirty = &dirty[i];
    writes[i].valid = valid != nullptr ? &(*valid)[i] : nullptr;
    writes[i].image = {images.data() + i * kChunk, kChunk};
  }
  Status s = c.WriteChunks(clock, id, writes);
  for (const auto& w : writes) {
    if (s.ok() && !w.status.ok()) s = w.status;
  }
  if (out != nullptr) *out = writes;
  return s;
}

std::vector<Bitmap> PageSets(uint32_t n, uint64_t page_bytes,
                             std::initializer_list<size_t> pages) {
  std::vector<Bitmap> sets(n, Bitmap(kChunk / page_bytes));
  for (Bitmap& b : sets) {
    if (pages.size() == 0) b.SetAll();
    for (size_t p : pages) b.Set(p);
  }
  return sets;
}

TEST(ErasureRunPathTest, WindowIsOneRoundTripAndOneRunPerBenefactor) {
  constexpr uint32_t kStripes = 8;
  for (size_t max_run : {std::numeric_limits<size_t>::max(), size_t{1}}) {
    SCOPED_TRACE(::testing::Message() << "max_run " << max_run);
    Rig rig(6, [&](store::StoreConfig& cfg) {
      cfg.maintenance = false;
      cfg.max_run_chunks = max_run;
    });
    store::StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    const auto v1 = Pattern(kStripes * kChunk, 50);
    const store::FileId id = WriteStoreFile(c, "/win", kStripes, v1, clock);

    // Rewrite every stripe in one window: one page each, over images the
    // caller holds whole, so no stripe needs its old bytes.
    auto v2 = v1;
    const uint64_t page = c.config().page_bytes;
    for (uint32_t i = 0; i < kStripes; ++i) {
      const auto fresh = Pattern(page, 60 + i);
      std::copy(fresh.begin(), fresh.end(),
                v2.begin() + i * kChunk + (i % 16) * page);
    }
    std::vector<Bitmap> dirty = PageSets(kStripes, page, {});
    for (uint32_t i = 0; i < kStripes; ++i) {
      dirty[i] = Bitmap(kChunk / page);
      dirty[i].Set(i % 16);
    }
    const std::vector<Bitmap> valid = PageSets(kStripes, page, {});
    std::vector<uint64_t> requests(6);
    for (size_t b = 0; b < 6; ++b) {
      requests[b] = rig.store->benefactor(b).write_requests();
    }
    const uint64_t rtts = c.meta_round_trips();
    const uint64_t fetched = c.bytes_fetched();
    const uint64_t parity = rig.store->manager().ec_parity_bytes();
    ASSERT_TRUE(WriteWindow(c, clock, id, v2, dirty, &valid).ok());
    EXPECT_EQ(c.meta_round_trips() - rtts, 1u);
    EXPECT_EQ(c.bytes_fetched(), fetched);
    EXPECT_EQ(rig.store->manager().ec_parity_bytes() - parity,
              kStripes * kChunk / 2);
    for (size_t b = 0; b < 6; ++b) {
      // Every benefactor holds one fragment of every stripe.
      const uint64_t sent = rig.store->benefactor(b).write_requests() -
                            requests[b];
      if (max_run == 1) {
        EXPECT_EQ(sent, kStripes) << "benefactor " << b;
      } else {
        EXPECT_LE(sent, 1u) << "benefactor " << b;
      }
    }
    EXPECT_EQ(c.degraded_writes(), 0u);
    ExpectBytes(c, clock, id, kStripes, v2);
    ExpectFullStripes(rig, id, kStripes);
  }
}

TEST(ErasureRunPathTest, FlushFetchesOnlyStripesWithInvalidPages) {
  Rig rig(6, [](store::StoreConfig& cfg) { cfg.maintenance = false; });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  constexpr uint32_t kStripes = 2;
  const auto v1 = Pattern(kStripes * kChunk, 70);
  const store::FileId id = WriteStoreFile(c, "/skip", kStripes, v1, clock);
  const uint64_t page = c.config().page_bytes;

  // A wholly valid image: its clean pages are the stored bytes, so the
  // flush encodes it as it stands.
  auto v2 = v1;
  std::fill(v2.begin() + 3 * page, v2.begin() + 4 * page, 0x3C);
  std::fill(v2.begin() + kChunk + 7 * page, v2.begin() + kChunk + 8 * page,
            0x7E);
  std::vector<Bitmap> dirty = PageSets(kStripes, page, {});
  dirty[0] = Bitmap(kChunk / page);
  dirty[0].Set(3);
  dirty[1] = Bitmap(kChunk / page);
  dirty[1].Set(7);
  std::vector<Bitmap> valid = PageSets(kStripes, page, {});
  uint64_t fetched = c.bytes_fetched();
  ASSERT_TRUE(WriteWindow(c, clock, id, v2, dirty, &valid).ok());
  EXPECT_EQ(c.bytes_fetched(), fetched);
  ExpectBytes(c, clock, id, kStripes, v2);

  // Stripe 1's image lost a clean page (its bytes in the image are
  // garbage): that stripe alone is fetched, and the stored page wins.
  auto v3 = v2;
  std::fill(v3.begin() + 2 * page, v3.begin() + 3 * page, 0x11);
  std::fill(v3.begin() + kChunk + 9 * page, v3.begin() + kChunk + 10 * page,
            0x22);
  dirty[0] = Bitmap(kChunk / page);
  dirty[0].Set(2);
  dirty[1] = Bitmap(kChunk / page);
  dirty[1].Set(9);
  valid[1].Clear(12);
  auto image = v3;
  std::fill(image.begin() + kChunk + 12 * page,
            image.begin() + kChunk + 13 * page, 0xEE);
  fetched = c.bytes_fetched();
  ASSERT_TRUE(WriteWindow(c, clock, id, image, dirty, &valid).ok());
  EXPECT_EQ(c.bytes_fetched() - fetched, kChunk);
  ExpectBytes(c, clock, id, kStripes, v3);

  // Without a valid map only the dirty pages are known: every partial
  // stripe is fetched, in one batched read.
  fetched = c.bytes_fetched();
  const uint64_t rtts = c.meta_round_trips();
  ASSERT_TRUE(WriteWindow(c, clock, id, v3, dirty, nullptr).ok());
  EXPECT_EQ(c.bytes_fetched() - fetched, kStripes * kChunk);
  EXPECT_EQ(c.meta_round_trips() - rtts, 1u);
  ExpectBytes(c, clock, id, kStripes, v3);
}

TEST(ErasureRunPathTest, BenefactorDeathMidRunCommitsDegradedStripes) {
  constexpr uint32_t kStripes = 6;
  Rig rig(6, [](store::StoreConfig& cfg) { cfg.maintenance = false; });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  const auto v1 = Pattern(kStripes * kChunk, 80);
  const store::FileId id = WriteStoreFile(c, "/die", kStripes, v1, clock);

  // Benefactor 2 dies after programming two fragments of the window's
  // run: the run fails, its fragments are retried one by one and fail
  // fast, and every stripe still lands five of six fragments.
  rig.store->benefactor(2).KillAfterWrites(2);
  const auto v2 = Pattern(kStripes * kChunk, 81);
  const std::vector<Bitmap> all = PageSets(kStripes, c.config().page_bytes, {});
  std::vector<store::StoreClient::ChunkWrite> writes;
  ASSERT_TRUE(WriteWindow(c, clock, id, v2, all, nullptr, &writes).ok());
  EXPECT_FALSE(rig.store->benefactor(2).alive());
  for (const auto& w : writes) {
    EXPECT_TRUE(w.status.ok()) << "stripe " << w.index;
  }
  EXPECT_EQ(c.degraded_writes(), kStripes);
  ExpectBytes(c, clock, id, kStripes, v2);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

TEST(ErasureRunPathTest, CorruptFragmentFailsTheRunAndIsReconstructed) {
  constexpr uint32_t kStripes = 6;
  Rig rig(6, [](store::StoreConfig& cfg) { cfg.maintenance = false; });
  store::StoreClient& c = rig.store->ClientForNode(0);
  store::Manager& m = rig.store->manager();
  sim::VirtualClock clock(0);
  const auto data = Pattern(kStripes * kChunk, 90);
  const store::FileId id = WriteStoreFile(c, "/rot", kStripes, data, clock);

  // Rot stripe 3's first data fragment.
  auto loc = m.GetReadLocation(clock, id, 3);
  ASSERT_TRUE(loc.ok());
  const int bad = loc->benefactors[0];
  store::Benefactor& b = rig.store->benefactor(static_cast<size_t>(bad));
  ASSERT_TRUE(b.CorruptChunk(loc->key, 321, 0x10).ok());

  // A run over every fragment that benefactor holds returns CORRUPT.
  auto locs = m.GetReadLocations(clock, id, 0, kStripes);
  ASSERT_TRUE(locs.ok());
  const uint64_t fb = c.config().ec_frag_bytes();
  std::vector<store::ChunkKey> keys;
  for (const store::ReadLocation& l : *locs) keys.push_back(l.key);
  std::vector<uint8_t> bufs(kStripes * fb);
  std::vector<std::span<uint8_t>> outs;
  for (uint32_t i = 0; i < kStripes; ++i) {
    outs.push_back({bufs.data() + i * fb, fb});
  }
  sim::VirtualClock direct(clock.now());
  EXPECT_EQ(b.ReadChunkRun(direct, keys, outs, store::NoteSparse(nullptr))
                .code(),
            ErrorCode::kCorrupt);

  // Through the client the batch reconstructs the stripe: right bytes,
  // one degraded read, the rotten fragment reported.
  std::vector<std::vector<uint8_t>> got(kStripes,
                                        std::vector<uint8_t>(kChunk));
  std::vector<store::StoreClient::ChunkFetch> fetches(kStripes);
  for (uint32_t i = 0; i < kStripes; ++i) {
    fetches[i].index = i;
    fetches[i].out = got[i];
  }
  const uint64_t runs = c.run_rpcs();
  ASSERT_TRUE(c.ReadChunks(clock, id, fetches).ok());
  for (uint32_t i = 0; i < kStripes; ++i) {
    ASSERT_TRUE(fetches[i].status.ok()) << "stripe " << i;
    EXPECT_EQ(0, std::memcmp(got[i].data(), data.data() + i * kChunk, kChunk))
        << "stripe " << i;
  }
  EXPECT_GT(c.run_rpcs(), runs);
  EXPECT_EQ(c.ec_degraded_reads(), 1u);
  EXPECT_EQ(c.corrupt_failovers(), 1u);
  EXPECT_EQ(m.corrupt_detected(), 1u);
}

// ---- copy-on-write stripes ----

// A window of one-page writes to the first `stripes` stripes of a file
// shared with a checkpoint: stripe i dirties page `5 + i` (data position
// (5 + i) / 4).  `v1` is what the file and the checkpoint hold, `v2` the
// window's (wholly valid) images.
struct CowWindow {
  std::vector<uint8_t> v1, v2;
  store::FileId id = store::kInvalidFileId;
  store::FileId ckpt = store::kInvalidFileId;
  std::vector<Bitmap> dirty, valid;
};
CowWindow PrepareCowWindow(store::StoreClient& c, sim::VirtualClock& clock,
                           uint32_t stripes, uint64_t seed) {
  CowWindow w;
  const uint64_t page = c.config().page_bytes;
  w.v1 = Pattern(stripes * kChunk, seed);
  w.id = WriteStoreFile(c, "/cow", stripes, w.v1, clock);
  auto ckpt = c.Create(clock, "/cow.ckpt");
  EXPECT_TRUE(ckpt.ok());
  w.ckpt = *ckpt;
  EXPECT_TRUE(c.LinkFileChunks(clock, w.ckpt, w.id).ok());
  w.v2 = w.v1;
  w.dirty = PageSets(stripes, page, {});
  for (uint32_t i = 0; i < stripes; ++i) {
    const auto fresh = Pattern(page, seed + 1 + i);
    std::copy(fresh.begin(), fresh.end(),
              w.v2.begin() + i * kChunk + (5 + i) * page);
    w.dirty[i] = Bitmap(kChunk / page);
    w.dirty[i].Set(5 + i);
  }
  w.valid = PageSets(stripes, page, {});
  return w;
}

TEST(ErasureCowTest, CowStripeShipsOnlyTheChangedPages) {
  // An RS(4,2) stripe shared with a checkpoint, one dirty page: the data
  // holder gets that page, each parity holder the same page offset of its
  // fragment, and all six holders a clone instruction.  Each holder reads
  // its 16 KiB fragment of the shared version and programs the merged
  // one; the window's COW swaps take one WAL write however many stripes
  // it holds.
  for (const uint32_t stripes : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << stripes << " stripes");
    Rig rig(6, [](store::StoreConfig& cfg) {
      cfg.maintenance = false;
      cfg.wal = true;
    });
    store::StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    CowWindow w = PrepareCowWindow(c, clock, stripes, 500);
    const uint64_t page = c.config().page_bytes;
    const uint64_t fb = c.config().ec_frag_bytes();

    store::WalStore& wal = *rig.store->wal();
    const uint64_t wal_writes = wal.device().channel().num_requests();
    const uint64_t wal_records = wal.appends();
    const uint64_t wire = rig.cluster->network().remote_bytes();
    const uint64_t shipped = c.bytes_flushed();
    const uint64_t parity = rig.store->manager().ec_parity_bytes();
    std::vector<uint64_t> programmed(6);
    std::vector<int64_t> busy(6);
    for (size_t b = 0; b < 6; ++b) {
      programmed[b] = rig.store->benefactor(b).ssd().device_bytes_programmed();
      busy[b] = rig.store->benefactor(b).ssd().channel().busy_ns();
    }
    ASSERT_TRUE(WriteWindow(c, clock, w.id, w.v2, w.dirty, &w.valid).ok());

    // One grouped write for the window's COW swaps, one for its
    // completion record; every record is still its own frame.
    EXPECT_EQ(wal.device().channel().num_requests() - wal_writes, 2u);
    EXPECT_EQ(wal.appends() - wal_records, stripes + 1u);
    // 1 data + m = 2 parity pages per stripe cross the wire.
    EXPECT_EQ(c.bytes_flushed() - shipped, stripes * 3 * page);
    EXPECT_EQ(rig.store->manager().ec_parity_bytes() - parity,
              stripes * 2 * page);
    uint64_t programmed_total = 0;
    for (size_t b = 0; b < 6; ++b) {
      programmed_total +=
          rig.store->benefactor(b).ssd().device_bytes_programmed() -
          programmed[b];
    }
    EXPECT_EQ(programmed_total, stripes * 6 * fb);
    if (stripes == 1) {
      // Wire: the prepare round trip (64 + 128 B), then per holder a run
      // header (64 B), a clone instruction (64 B) and the ack (128 B),
      // plus the three pages — against 6 whole 16 KiB fragments in place.
      EXPECT_EQ(rig.cluster->network().remote_bytes() - wire,
                192u + 6 * 256u + 3 * page);
      for (size_t b = 0; b < 6; ++b) {
        // The clone is charged at the fragment's size: a 16 KiB read
        // (75 us + 16 KiB at 250 MB/s = 140'536 ns) and a 16 KiB program
        // (85 us + 16 KiB at 170 MB/s = 181'376 ns), not 64 KiB ones.
        EXPECT_EQ(rig.store->benefactor(b).ssd().channel().busy_ns() - busy[b],
                  140'536 + 181'376)
            << "benefactor " << b;
      }
    }
    EXPECT_EQ(c.degraded_writes(), 0u);
    ExpectBytes(c, clock, w.id, stripes, w.v2);
    ExpectBytes(c, clock, w.ckpt, stripes, w.v1);
    ExpectFullStripes(rig, w.id, stripes);
  }
}

TEST(ErasureCowTest, HolderThatCannotCertifyTheMergeGetsTheWholeFragment) {
  // A holder whose fragment of the shared version is missing, or rotted
  // under a page the write dirties, derives a checksum that disagrees
  // with the client's: nothing lands there, and the client resends that
  // position its whole fragment, with no clone.  The stripe completes
  // whole and reads back exactly.
  enum class Fault { kMissingDirtySource, kMissingCleanSource, kRotUnderDirty };
  for (const Fault fault :
       {Fault::kMissingDirtySource, Fault::kMissingCleanSource,
        Fault::kRotUnderDirty}) {
    SCOPED_TRACE(::testing::Message() << "fault " << static_cast<int>(fault));
    Rig rig(6, [](store::StoreConfig& cfg) { cfg.maintenance = false; });
    store::StoreClient& c = rig.store->ClientForNode(0);
    sim::VirtualClock clock(0);
    CowWindow w = PrepareCowWindow(c, clock, 1, 520);
    const uint64_t page = c.config().page_bytes;
    const uint64_t fb = c.config().ec_frag_bytes();
    auto old_loc = rig.store->manager().GetReadLocation(clock, w.id, 0);
    ASSERT_TRUE(old_loc.ok());
    // Page 5 lives at offset page 1 of data position 1.
    const size_t pos = fault == Fault::kMissingCleanSource ? 0 : 1;
    store::Benefactor& holder =
        rig.store->benefactor(static_cast<size_t>(old_loc->benefactors[pos]));
    if (fault == Fault::kRotUnderDirty) {
      ASSERT_TRUE(holder.CorruptChunk(old_loc->key, page + 9, 0x40).ok());
    } else {
      ASSERT_TRUE(holder.DeleteChunk(old_loc->key).ok());
    }

    const uint64_t shipped = c.bytes_flushed();
    ASSERT_TRUE(WriteWindow(c, clock, w.id, w.v2, w.dirty, &w.valid).ok());
    // The failed position's page (if it had one) went out twice: once in
    // its merge, once in its whole fragment.
    const uint64_t retried = fault == Fault::kMissingCleanSource ? 0 : page;
    EXPECT_EQ(c.bytes_flushed() - shipped, 3 * page - retried + fb);
    EXPECT_EQ(c.degraded_writes(), 0u);

    auto loc = rig.store->manager().GetReadLocation(clock, w.id, 0);
    ASSERT_TRUE(loc.ok());
    std::vector<uint8_t> frag(fb);
    ASSERT_TRUE(holder.ReadChunk(clock, loc->key, frag).ok());  // verifies
    EXPECT_EQ(0, std::memcmp(frag.data(), w.v2.data() + pos * fb, fb));
    ExpectBytes(c, clock, w.id, 1, w.v2);
    if (fault == Fault::kRotUnderDirty) {
      // The rotted fragment fails its check and the checkpoint's stripe
      // reconstructs.  (A fragment deleted behind the manager's back
      // reads as a hole, so the checkpoint is not probed then.)
      ExpectBytes(c, clock, w.ckpt, 1, w.v1);
    }
  }
}

TEST(ErasureCowTest, HolderDeathMidCowWindowIsDegradedNotLost) {
  constexpr uint32_t kStripes = 6;
  Rig rig(6, [](store::StoreConfig& cfg) { cfg.maintenance = false; });
  store::StoreClient& c = rig.store->ClientForNode(0);
  sim::VirtualClock clock(0);
  CowWindow w = PrepareCowWindow(c, clock, kStripes, 540);

  // Benefactor 2 dies after programming two merged fragments: its run
  // fails, its items are retried one by one and fail fast, and every
  // stripe still lands five of six fragments.
  rig.store->benefactor(2).KillAfterWrites(2);
  std::vector<store::StoreClient::ChunkWrite> writes;
  ASSERT_TRUE(
      WriteWindow(c, clock, w.id, w.v2, w.dirty, &w.valid, &writes).ok());
  EXPECT_FALSE(rig.store->benefactor(2).alive());
  for (const auto& wr : writes) {
    EXPECT_TRUE(wr.status.ok()) << "stripe " << wr.index;
  }
  EXPECT_EQ(c.degraded_writes(), kStripes);
  ExpectBytes(c, clock, w.id, kStripes, w.v2);
  ExpectBytes(c, clock, w.ckpt, kStripes, w.v1);
  EXPECT_GT(c.ec_degraded_reads(), 0u);
  EXPECT_EQ(rig.store->manager().lost_chunks(), 0u);
}

// ---- knob-off identity pin ----

// With the redundancy mode off, the erasure knobs must be completely
// dormant: a run with ec_k/ec_m/ec_encode_bw_gbps set (but
// redundancy=replicate) is byte- and virtual-time-identical to the
// default store.  This is the "EC off changes nothing" contract that
// keeps every pre-erasure benchmark table valid.
TEST(ErasureStoreTest, ModeOffIsByteAndTimeIdenticalToDefault) {
  struct RunResult {
    int64_t final_time = 0;
    uint64_t fetched = 0;
    uint64_t flushed = 0;
    uint64_t meta_rtts = 0;
    uint32_t crc = 0;
  };
  auto run = [](bool set_dormant_knobs) {
    net::ClusterConfig cc;
    cc.num_nodes = 5;
    net::Cluster cluster(cc);
    store::AggregateStoreConfig sc;
    sc.store.chunk_bytes = kChunk;
    sc.store.replication = 2;
    sc.store.maintenance = true;
    if (set_dormant_knobs) {
      sc.store.redundancy = store::RedundancyMode::kReplicate;  // mode OFF
      sc.store.ec_k = 5;
      sc.store.ec_m = 3;
      sc.store.ec_encode_bw_gbps = 0.25;
    }
    for (int b = 0; b < 4; ++b) sc.benefactor_nodes.push_back(b + 1);
    sc.contribution_bytes = 64_MiB;
    sc.manager_node = 1;
    store::AggregateStore st(cluster, sc);
    sim::CurrentClock().Reset();
    store::StoreClient& c = st.ClientForNode(0);
    sim::VirtualClock clock(0);
    constexpr uint32_t kChunks = 6;
    const auto data = Pattern(kChunks * kChunk, 42);
    const store::FileId id = WriteStoreFile(c, "/pin", kChunks, data, clock);
    // Mixed traffic: full overwrite of one chunk, partial of another,
    // reads of everything.
    Bitmap one(kChunk / c.config().page_bytes);
    one.Set(3);
    EXPECT_TRUE(
        c.WriteChunkPages(clock, id, 2, one, {data.data() + 2 * kChunk, kChunk})
            .ok());
    std::vector<uint8_t> buf(kChunk);
    uint32_t crc = 0;
    for (uint32_t i = 0; i < kChunks; ++i) {
      EXPECT_TRUE(c.ReadChunk(clock, id, i, buf).ok());
      crc = Crc32c(buf.data(), buf.size()) ^ (crc << 1);
    }
    RunResult r;
    r.final_time = clock.now();
    r.fetched = c.bytes_fetched();
    r.flushed = c.bytes_flushed();
    r.meta_rtts = c.meta_round_trips();
    r.crc = crc;
    return r;
  };
  const RunResult base = run(false);
  const RunResult dormant = run(true);
  EXPECT_EQ(base.final_time, dormant.final_time);
  EXPECT_EQ(base.fetched, dormant.fetched);
  EXPECT_EQ(base.flushed, dormant.flushed);
  EXPECT_EQ(base.meta_rtts, dormant.meta_rtts);
  EXPECT_EQ(base.crc, dormant.crc);
}

}  // namespace
}  // namespace nvm
