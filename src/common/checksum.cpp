#include "common/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32c_internal.hpp"
#include "common/log.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NVM_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace nvm {

namespace {

using crc32c_detail::Gf2Matrix;
using crc32c_detail::Gf2MatrixTimes;
using crc32c_detail::kCrc32cPoly;
using crc32c_detail::kZeroShift;
using crc32c_detail::ShiftZeros;

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
using Crc32cCopyFn = uint32_t (*)(void*, const void*, size_t, uint32_t);

// The copy form of a kernel that cannot store as it loads: copy, then hash
// the copy (hot in cache by then).
template <Crc32cFn kHash>
uint32_t CopyThenHash(void* dst, const void* src, size_t n, uint32_t seed) {
  if (n != 0) std::memcpy(dst, src, n);
  return kHash(dst, n, seed);
}

struct KernelFns {
  Crc32cFn hash;
  Crc32cCopyFn copy;
};

KernelFns Fns(Crc32cKernel kernel) {
  switch (kernel) {
#if NVM_CRC32C_VPCLMULQDQ
    case Crc32cKernel::kVpclmul512:
      return {&crc32c_detail::Crc32cFold512, &crc32c_detail::Crc32cCopyFold512};
    case Crc32cKernel::kVpclmul256:
      return {&crc32c_detail::Crc32cFold256, &crc32c_detail::Crc32cCopyFold256};
#endif
#if NVM_CRC32C_SSE42
    case Crc32cKernel::kSse42:
      return {&Crc32cSse42, &CopyThenHash<&Crc32cSse42>};
#endif
    default:
      return {&Crc32cPortable, &CopyThenHash<&Crc32cPortable>};
  }
}

// Widest first: the dispatch order checksum.hpp documents.
constexpr Crc32cKernel kByPreference[] = {
    Crc32cKernel::kVpclmul512, Crc32cKernel::kVpclmul256,
    Crc32cKernel::kSse42, Crc32cKernel::kPortable};

Crc32cKernel SelectKernel() {
  for (Crc32cKernel k : kByPreference) {
    if (Crc32cKernelSupported(k)) return k;
  }
  return Crc32cKernel::kPortable;
}

struct Dispatch {
  Crc32cKernel kernel;
  KernelFns fns;
};

const Dispatch& Selected() {
  static const Dispatch kSelected = [] {
    const Crc32cKernel k = SelectKernel();
    return Dispatch{k, Fns(k)};
  }();
  return kSelected;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  return Selected().fns.hash(data, n, seed);
}

uint32_t Crc32cCopy(void* dst, const void* src, size_t n, uint32_t seed) {
  return Selected().fns.copy(dst, src, n, seed);
}

Crc32cKernel Crc32cSelectedKernel() { return Selected().kernel; }

bool Crc32cKernelSupported(Crc32cKernel kernel) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // Callable from static initialisers, which may run before the CPU
  // feature data is set up.
  __builtin_cpu_init();
#endif
  switch (kernel) {
    case Crc32cKernel::kPortable:
      return true;
#if NVM_CRC32C_SSE42
    case Crc32cKernel::kSse42:
      return __builtin_cpu_supports("sse4.2");
#endif
#if NVM_CRC32C_VPCLMULQDQ
    case Crc32cKernel::kVpclmul256:
      return __builtin_cpu_supports("vpclmulqdq") &&
             __builtin_cpu_supports("pclmul") &&
             __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("sse4.2");
    case Crc32cKernel::kVpclmul512:
      return __builtin_cpu_supports("vpclmulqdq") &&
             __builtin_cpu_supports("pclmul") &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("sse4.2");
#endif
    default:
      return false;
  }
}

const char* Crc32cKernelName(Crc32cKernel kernel) {
  switch (kernel) {
    case Crc32cKernel::kPortable:
      return "portable";
    case Crc32cKernel::kSse42:
      return "sse42";
    case Crc32cKernel::kVpclmul256:
      return "vpclmul256";
    case Crc32cKernel::kVpclmul512:
      return "vpclmul512";
  }
  return "?";
}

uint32_t Crc32cWith(Crc32cKernel kernel, const void* data, size_t n,
                    uint32_t seed) {
  NVM_CHECK(Crc32cKernelSupported(kernel), "CRC32C kernel %s not supported",
            Crc32cKernelName(kernel));
  return Fns(kernel).hash(data, n, seed);
}

uint32_t Crc32cCopyWith(Crc32cKernel kernel, void* dst, const void* src,
                        size_t n, uint32_t seed) {
  NVM_CHECK(Crc32cKernelSupported(kernel), "CRC32C kernel %s not supported",
            Crc32cKernelName(kernel));
  return Fns(kernel).copy(dst, src, n, seed);
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
