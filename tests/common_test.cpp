// Unit tests for the common utility layer: status propagation, byte/time
// formatting, RNG determinism, statistics, bitmaps, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace nvm {

// Names kernels in parameterised test output.
void PrintTo(Crc32cKernel kernel, std::ostream* os) {
  *os << Crc32cKernelName(kernel);
}

namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllErrorCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kIoError); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Status Chain(int x, int* out) {
  NVM_ASSIGN_OR_RETURN(int h, Half(x));
  NVM_ASSIGN_OR_RETURN(int q, Half(h));
  *out = q;
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(Chain(8, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(Chain(6, &out).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(Chain(7, &out).code(), ErrorCode::kInvalidArgument);
}

TEST(UnitsTest, Literals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648u);
  EXPECT_EQ(3_us, 3000);
  EXPECT_EQ(2_ms, 2000000);
  EXPECT_EQ(1_s, 1000000000);
}

TEST(UnitsTest, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(10, 4), 3u);
  EXPECT_EQ(CeilDiv(8, 4), 2u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(RoundUp(10, 4), 12u);
  EXPECT_EQ(RoundUp(8, 4), 8u);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4_KiB), "4.0 KiB");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3_MiB), "3.0 MiB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500 ns");
  EXPECT_EQ(FormatDuration(1500), "1.5 us");
  EXPECT_EQ(FormatDuration(2500000), "2.50 ms");
  EXPECT_EQ(FormatDuration(3100000000LL), "3.100 s");
}

TEST(UnitsTest, Bandwidth) {
  // 1 MB in 1 ms = 1000 MB/s.
  EXPECT_NEAR(ToMBps(1000000, 1000000), 1000.0, 1e-9);
  EXPECT_EQ(ToMBps(123, 0), 0.0);
}

TEST(RngTest, Deterministic) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t r = rng.NextInRange(-3, 3);
    EXPECT_GE(r, -3);
    EXPECT_LE(r, 3);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Xoshiro256 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble() * 100;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(BitmapTest, SetClearTest) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_TRUE(bm.None());
  bm.Set(0);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.PopCount(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_EQ(bm.PopCount(), 2u);
}

TEST(BitmapTest, FindNextSet) {
  Bitmap bm(200);
  bm.Set(3);
  bm.Set(70);
  bm.Set(199);
  EXPECT_EQ(bm.FindNextSet(0), 3u);
  EXPECT_EQ(bm.FindNextSet(4), 70u);
  EXPECT_EQ(bm.FindNextSet(71), 199u);
  EXPECT_EQ(bm.FindNextSet(200), 200u);
}

TEST(BitmapTest, SetAllRespectsTail) {
  Bitmap bm(67);
  EXPECT_FALSE(bm.All());
  bm.SetAll();
  EXPECT_EQ(bm.PopCount(), 67u);
  EXPECT_TRUE(bm.All());
  bm.Clear(66);
  EXPECT_FALSE(bm.All());
  bm.ClearAll();
  EXPECT_TRUE(bm.None());
}

TEST(BitmapTest, ForEachSetAscending) {
  Bitmap bm(500);
  std::vector<size_t> want = {1, 63, 64, 128, 499};
  for (size_t i : want) bm.Set(i);
  std::vector<size_t> got;
  bm.ForEachSet([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.Add(5);
  c.Add(7);
  EXPECT_EQ(c.value(), 12u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

// Bit-at-a-time CRC32C reference (poly 0x82f63b78, reflected, zlib-style
// pre/post inversion) to pin the slice-by-8 tables down.
uint32_t Crc32cReference(const void* data, size_t n, uint32_t seed = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswerVectors) {
  // The classic check value plus the RFC 3720 appendix B.4 test patterns,
  // against both the dispatched and the portable kernel.
  for (auto crc : {&Crc32c, &Crc32cPortable}) {
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
    std::vector<uint8_t> buf(32, 0x00);
    EXPECT_EQ(crc(buf.data(), buf.size(), 0), 0x8A9136AAu);
    buf.assign(32, 0xFF);
    EXPECT_EQ(crc(buf.data(), buf.size(), 0), 0x62A8AB43u);
    for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(crc(buf.data(), buf.size(), 0), 0x46DD794Eu);
  }
}

// Two full 3 x 1 KiB blocks of the interleaved hardware kernel plus a
// 17-byte tail: every lane, block and tail boundary is crossed.
constexpr size_t kCrcSweepBytes = 2 * 3 * 1024 + 17;

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLength) {
  Xoshiro256 rng(5);
  std::vector<uint8_t> buf(kCrcSweepBytes);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t len = 0; len <= buf.size(); ++len) {
    ASSERT_EQ(Crc32c(buf.data(), len), Crc32cPortable(buf.data(), len))
        << "len " << len;
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryAlignmentAndSeed) {
  Xoshiro256 rng(6);
  std::vector<uint8_t> storage(kCrcSweepBytes + 16);
  for (auto& b : storage) b = static_cast<uint8_t>(rng.Next());
  // An 8-byte-aligned origin, so `align` is the true start misalignment.
  const uint8_t* origin =
      storage.data() + (8 - reinterpret_cast<uintptr_t>(storage.data()) % 8);
  for (size_t align = 0; align < 8; ++align) {
    uint32_t seed_hw = 0;
    uint32_t seed_sw = 0;
    for (size_t len : std::initializer_list<size_t>{
             0, 1, 7, 8, 9, 1023, 1024, 3071, 3072, 3073, 6144,
             kCrcSweepBytes - 8}) {
      seed_hw = Crc32c(origin + align, len, seed_hw);
      seed_sw = Crc32cPortable(origin + align, len, seed_sw);
      ASSERT_EQ(seed_hw, seed_sw) << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, DispatcherPicksWidestSupportedKernel) {
  // CI must exercise the widest kernel wherever the CPU has it — a silent
  // fallback to a narrower one would pass every equivalence test.  The
  // expectation is worked out from the CPU flags here, not from the
  // library's own support check.
  Crc32cKernel want = Crc32cKernel::kPortable;
#if defined(__x86_64__)
  const bool sse42 = __builtin_cpu_supports("sse4.2");
  const bool clmul = __builtin_cpu_supports("vpclmulqdq") &&
                     __builtin_cpu_supports("pclmul") && sse42;
  if (sse42) want = Crc32cKernel::kSse42;
  if (clmul && __builtin_cpu_supports("avx2")) {
    want = Crc32cKernel::kVpclmul256;
  }
  if (clmul && __builtin_cpu_supports("avx512f")) {
    want = Crc32cKernel::kVpclmul512;
  }
#endif
  EXPECT_EQ(Crc32cSelectedKernel(), want)
      << "selected " << Crc32cKernelName(Crc32cSelectedKernel()) << ", want "
      << Crc32cKernelName(want);
  EXPECT_TRUE(Crc32cKernelSupported(want));
}

// Every kernel, called explicitly through Crc32cWith / Crc32cCopyWith; a
// kernel the CPU lacks (or the build left out) is skipped with the reason.
class Crc32cKernelTest : public ::testing::TestWithParam<Crc32cKernel> {
 protected:
  void SetUp() override {
    if (!Crc32cKernelSupported(GetParam())) {
      GTEST_SKIP() << Crc32cKernelName(GetParam())
                   << " is not built in or this CPU lacks its ISA";
    }
  }
  uint32_t Hash(const void* data, size_t n, uint32_t seed) const {
    return Crc32cWith(GetParam(), data, n, seed);
  }
};

// Lengths that cross every boundary of the folding kernels (one to four
// vectors, the lane reduction, the crc32 tail) and of the 3 x 1 KiB SSE4.2
// blocks, plus the 64 KiB chunk size and its neighbours.
std::vector<size_t> KernelSweepLengths() {
  std::vector<size_t> lens;
  for (size_t len = 0; len <= 2048; ++len) lens.push_back(len);
  for (size_t d : {0, 1, 15, 16, 127, 128, 255, 256}) {
    lens.push_back(64_KiB - d);
    lens.push_back(64_KiB + d);
  }
  return lens;
}

// 64 KiB + 320 random bytes from a 64-byte-aligned origin, so
// origin + align starts exactly `align` bytes past a cache line and every
// sweep length fits behind any alignment.
struct SweepBuffer {
  explicit SweepBuffer(uint64_t seed) : storage(64_KiB + 320 + 64) {
    Xoshiro256 rng(seed);
    for (auto& b : storage) b = static_cast<uint8_t>(rng.Next());
    origin = storage.data() +
             (64 - reinterpret_cast<uintptr_t>(storage.data()) % 64) % 64;
  }
  std::vector<uint8_t> storage;
  uint8_t* origin;
};

TEST_P(Crc32cKernelTest, MatchesPortableAtEveryLength) {
  SweepBuffer buf(11);
  Xoshiro256 rng(12);
  for (size_t len : KernelSweepLengths()) {
    const auto seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Hash(buf.origin, len, seed),
              Crc32cPortable(buf.origin, len, seed))
        << "len " << len << " seed " << seed;
  }
}

TEST_P(Crc32cKernelTest, MatchesPortableAtEveryAlignment) {
  SweepBuffer buf(13);
  Xoshiro256 rng(14);
  for (size_t align = 0; align < 64; ++align) {
    for (size_t len : {size_t{1}, size_t{63}, size_t{64}, size_t{255},
                       size_t{256}, size_t{257}, size_t{1000}, size_t{4096},
                       64_KiB - 1, 64_KiB, 64_KiB + 17}) {
      const auto seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Hash(buf.origin + align, len, seed),
                Crc32cPortable(buf.origin + align, len, seed))
          << "align " << align << " len " << len;
    }
  }
}

TEST_P(Crc32cKernelTest, SeedChainsAcrossSplits) {
  // A buffer hashed whole equals its pieces chained through `seed`, with
  // split points on and off every vector boundary.
  SweepBuffer buf(15);
  const size_t len = 8192 + 77;
  const uint32_t whole = Crc32cPortable(buf.origin, len);
  for (size_t split = 0; split <= len; split += 61) {
    const uint32_t head = Hash(buf.origin, split, 0);
    ASSERT_EQ(Hash(buf.origin + split, len - split, head), whole)
        << "split at " << split;
  }
  // Three-way split with the middle piece a whole number of blocks.
  const uint32_t a = Hash(buf.origin, 100, 0);
  const uint32_t b = Hash(buf.origin + 100, 4096, a);
  EXPECT_EQ(Hash(buf.origin + 4196, len - 4196, b), whole);
}

TEST_P(Crc32cKernelTest, CopyReturnsCrcAndCopiesExactlyTheBytes) {
  // Crc32cCopy returns the CRC of the source, leaves dst == src, and
  // writes nothing outside [dst, dst + n): guard bytes on both sides stay
  // untouched.  Source and destination misalignments vary independently.
  constexpr size_t kGuard = 64;
  constexpr uint8_t kGuardByte = 0xA5;
  SweepBuffer src(17);
  std::vector<uint8_t> dst_storage(64_KiB + 256 + 3 * kGuard + 64);
  uint8_t* dst_origin =
      dst_storage.data() +
      (64 - reinterpret_cast<uintptr_t>(dst_storage.data()) % 64) % 64 +
      kGuard;
  Xoshiro256 rng(18);
  size_t round = 0;
  for (size_t len : KernelSweepLengths()) {
    const size_t src_align = round % 64;
    const size_t dst_align = (round * 7) % 64;
    ++round;
    const auto seed = static_cast<uint32_t>(rng.Next());
    std::fill(dst_storage.begin(), dst_storage.end(), kGuardByte);
    uint8_t* dst = dst_origin + dst_align;
    const uint8_t* from = src.origin + src_align;
    ASSERT_EQ(Crc32cCopyWith(GetParam(), dst, from, len, seed),
              Crc32cPortable(from, len, seed))
        << "len " << len;
    ASSERT_TRUE(std::equal(from, from + len, dst)) << "len " << len;
    ASSERT_TRUE(std::all_of(dst_storage.data(), dst,
                            [](uint8_t b) { return b == kGuardByte; }))
        << "wrote before dst, len " << len;
    ASSERT_TRUE(std::all_of(dst + len,
                            dst_storage.data() + dst_storage.size(),
                            [](uint8_t b) { return b == kGuardByte; }))
        << "wrote past dst + n, len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernelTest,
    ::testing::Values(Crc32cKernel::kPortable, Crc32cKernel::kSse42,
                      Crc32cKernel::kVpclmul256, Crc32cKernel::kVpclmul512),
    [](const ::testing::TestParamInfo<Crc32cKernel>& info) {
      return std::string(Crc32cKernelName(info.param));
    });

TEST(Crc32cTest, DispatchedCopyMatchesDispatchedHash) {
  SweepBuffer src(19);
  std::vector<uint8_t> dst(64_KiB);
  EXPECT_EQ(Crc32cCopy(dst.data(), src.origin, dst.size(), 7),
            Crc32c(src.origin, dst.size(), 7));
  EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.origin));
  EXPECT_EQ(Crc32cCopy(nullptr, nullptr, 0), 0u);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32c("x", 0), 0u);
}

TEST(Crc32cTest, SeedChainsAcrossSplits) {
  // CRC of a buffer equals the CRC of its pieces chained through the seed,
  // for every split point — the property the run paths rely on.
  Xoshiro256 rng(99);
  std::vector<uint8_t> buf(253);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 13) {
    const uint32_t head = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, MatchesBitwiseReferenceOnRandomBuffers) {
  Xoshiro256 rng(7);
  for (size_t len : {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 4096u}) {
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(Crc32c(buf.data(), len), Crc32cReference(buf.data(), len))
        << "len " << len;
  }
}

TEST(Crc32cTest, CombineMatchesWholeBufferAtEverySplit) {
  // Crc32cCombine(crc(a), crc(b), |b|) == crc(ab) with no access to the
  // bytes — the identity that lets a full-image checksum be derived from
  // per-fragment ones.  Checked at every split (both halves empty too)
  // and chained across many pieces.
  Xoshiro256 rng(41);
  std::vector<uint8_t> buf(509);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 7) {
    const uint32_t head = Crc32c(buf.data(), split);
    const uint32_t tail = Crc32c(buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32cCombine(head, tail, buf.size() - split), whole)
        << "split at " << split;
  }
  EXPECT_EQ(Crc32cCombine(whole, Crc32c(nullptr, 0), 0), whole);
  // Fragment-chain shape: k equal pieces folded left to right.
  const size_t frag = 64;
  std::vector<uint8_t> chunk(4 * frag);
  for (auto& b : chunk) b = static_cast<uint8_t>(rng.Next());
  uint32_t image = 0;
  for (size_t f = 0; f < 4; ++f) {
    image = Crc32cCombine(image, Crc32c(chunk.data() + f * frag, frag), frag);
  }
  EXPECT_EQ(image, Crc32c(chunk.data(), chunk.size()));
}

TEST(Crc32cTest, UpdateMatchesRehashOfChangedImage) {
  // Crc32cUpdate derives an image's checksum after an in-place change from
  // the old checksum and the changed window alone — windows at the head,
  // middle and tail, of odd sizes, applied one after another.
  Xoshiro256 rng(43);
  std::vector<uint8_t> image(4096 + 3);
  for (auto& b : image) b = static_cast<uint8_t>(rng.Next());
  uint32_t crc = Crc32c(image.data(), image.size());
  for (auto [off, len] : std::initializer_list<std::pair<size_t, size_t>>{
           {0, 1},
           {0, 512},
           {1000, 97},
           {2048, 2048},
           {image.size() - 1, 1},
           {0, image.size()},
           {17, 0}}) {
    std::vector<uint8_t> fresh(len);
    for (auto& b : fresh) b = static_cast<uint8_t>(rng.Next());
    crc = Crc32cUpdate(crc, image.size(), off, image.data() + off,
                       fresh.data(), len);
    std::copy(fresh.begin(), fresh.end(), image.begin() + off);
    ASSERT_EQ(crc, Crc32c(image.data(), image.size()))
        << "window " << off << "+" << len;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::vector<uint8_t> buf(4096, 0xA5);
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  for (size_t byte : {0u, 1u, 2048u, 4095u}) {
    for (uint8_t mask : {0x01, 0x80}) {
      buf[byte] ^= mask;
      EXPECT_NE(Crc32c(buf.data(), buf.size()), clean)
          << "flip at " << byte << " mask " << int(mask);
      buf[byte] ^= mask;
    }
  }
}

}  // namespace
}  // namespace nvm
