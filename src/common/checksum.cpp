#include "common/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NVM_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace nvm {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables BuildCrc32cTables() {
  Crc32cTables t{};
  // t[0]: the classic byte-at-a-time table.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    t[0][i] = crc;
  }
  // t[k]: byte i advanced through k additional zero bytes — what lets the
  // slice-by-8 loop fold eight input bytes with eight independent lookups.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = t[0][i];
    for (size_t k = 1; k < 8; ++k) {
      crc = t[0][crc & 0xffu] ^ (crc >> 8);
      t[k][i] = crc;
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = BuildCrc32cTables();

// GF(2) linear algebra over the reflected-CRC state space: a Gf2Matrix is
// a 32x32 bit-matrix (one column per input bit), applied to a raw CRC
// register.  Advancing a register through zero bytes is such a product.
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t Gf2MatrixTimes(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (size_t n = 0; vec != 0; vec >>= 1, ++n) {
    if ((vec & 1u) != 0) sum ^= mat[n];
  }
  return sum;
}

constexpr Gf2Matrix Gf2MatrixSquare(const Gf2Matrix& mat) {
  Gf2Matrix square{};
  for (size_t n = 0; n < 32; ++n) square[n] = Gf2MatrixTimes(mat, mat[n]);
  return square;
}

// kZeroShift[i] advances a raw register through 2^i zero bytes (the zlib
// crc32_combine operator ladder, squared out ahead of time).
constexpr std::array<Gf2Matrix, 64> BuildZeroShift() {
  std::array<Gf2Matrix, 64> ops{};
  // The one-bit shift operator for the reflected polynomial; squaring it
  // three times gives one zero byte.
  Gf2Matrix op{};
  op[0] = kCrc32cPoly;
  for (size_t n = 1; n < 32; ++n) op[n] = 1u << (n - 1);
  for (int i = 0; i < 3; ++i) op = Gf2MatrixSquare(op);
  for (auto& o : ops) {
    o = op;
    op = Gf2MatrixSquare(op);
  }
  return ops;
}

constexpr std::array<Gf2Matrix, 64> kZeroShift = BuildZeroShift();

// Raw register advanced through `len` zero bytes.
uint32_t ShiftZeros(uint32_t crc, uint64_t len) {
  for (size_t i = 0; len != 0; len >>= 1, ++i) {
    if ((len & 1u) != 0) crc = Gf2MatrixTimes(kZeroShift[i], crc);
  }
  return crc;
}

#if NVM_CRC32C_SSE42

// Lane width of the interleaved hardware kernel.  Three lanes keep the
// 3-cycle-latency `crc32` instruction's pipeline full.
constexpr size_t kLane = 1024;

// kLane zero-byte shift as four byte-indexed tables: the same linear map
// as kZeroShift[log2(kLane)], folded per input byte for the hot loop.
constexpr std::array<std::array<uint32_t, 256>, 4> BuildLaneShift() {
  std::array<std::array<uint32_t, 256>, 4> t{};
  const Gf2Matrix& op = kZeroShift[std::countr_zero(kLane)];
  for (uint32_t j = 0; j < 4; ++j) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[j][b] = Gf2MatrixTimes(op, b << (8 * j));
    }
  }
  return t;
}

constexpr auto kLaneShift = BuildLaneShift();

uint64_t ShiftLane(uint64_t crc) {
  return kLaneShift[0][crc & 0xffu] ^ kLaneShift[1][(crc >> 8) & 0xffu] ^
         kLaneShift[2][(crc >> 16) & 0xffu] ^
         kLaneShift[3][(crc >> 24) & 0xffu];
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                        size_t n,
                                                        uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc0 = ~seed;
  // Head: reach 8-byte alignment so the word loads below are aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc0 = _mm_crc32_u8(static_cast<uint32_t>(crc0), *p++);
    --n;
  }
  // Body: three independent streams over adjacent lanes, merged by
  // shifting the running crc over each following lane (lanes 1 and 2
  // start from a zero register, so their results are pure XOR deltas).
  while (n >= 3 * kLane) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      crc0 = _mm_crc32_u64(crc0, LoadU64(p + i));
      crc1 = _mm_crc32_u64(crc1, LoadU64(p + kLane + i));
      crc2 = _mm_crc32_u64(crc2, LoadU64(p + 2 * kLane + i));
    }
    crc0 = ShiftLane(crc0) ^ crc1;
    crc0 = ShiftLane(crc0) ^ crc2;
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  while (n >= 8) {
    crc0 = _mm_crc32_u64(crc0, LoadU64(p));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc0 = _mm_crc32_u8(static_cast<uint32_t>(crc0), *p++);
    --n;
  }
  return ~static_cast<uint32_t>(crc0);
}

#endif  // NVM_CRC32C_SSE42

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn SelectCrc32c() {
#if NVM_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return &Crc32cPortable;
}

Crc32cFn Crc32cKernelFn() {
  static const Crc32cFn kernel = SelectCrc32c();
  return kernel;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  return Crc32cKernelFn()(data, n, seed);
}

Crc32cKernel Crc32cSelectedKernel() {
  return Crc32cKernelFn() == &Crc32cPortable ? Crc32cKernel::kPortable
                                             : Crc32cKernel::kSse42;
}

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  const auto& t = kCrc32cTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  if constexpr (std::endian::native == std::endian::little) {
    // Head: reach 8-byte alignment so the word loads below are aligned.
    while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
      crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
      --n;
    }
    // Body: one 64-bit word per iteration, eight table lookups.
    while (n >= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      word ^= crc;
      crc = t[7][word & 0xffu] ^ t[6][(word >> 8) & 0xffu] ^
            t[5][(word >> 16) & 0xffu] ^ t[4][(word >> 24) & 0xffu] ^
            t[3][(word >> 32) & 0xffu] ^ t[2][(word >> 40) & 0xffu] ^
            t[1][(word >> 48) & 0xffu] ^ t[0][(word >> 56) & 0xffu];
      p += 8;
      n -= 8;
    }
  }
  // Tail (and the whole buffer on big-endian hosts): byte at a time.
  while (n > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  return ~crc;
}

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  return ShiftZeros(crc_a, len_b) ^ crc_b;
}

uint32_t Crc32cUpdate(uint32_t crc, uint64_t image_len, uint64_t offset,
                      const void* old_bytes, const void* new_bytes,
                      size_t len) {
  // With equal lengths and seeds the pre/post inversions cancel, leaving
  // the raw (zero-initialised) CRC of old ^ new over the window; zero
  // bytes ahead of the window leave a zero register unchanged, and those
  // after it shift the delta.
  const uint32_t delta = Crc32c(old_bytes, len) ^ Crc32c(new_bytes, len);
  return crc ^ ShiftZeros(delta, image_len - offset - len);
}

}  // namespace nvm
