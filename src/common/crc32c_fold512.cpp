// The CRC32C folding kernel at 512 bits.  Compiled with AVX-512F and
// VPCLMULQDQ enabled (src/common/CMakeLists.txt); runs only when the CPU
// reports both (Crc32cKernelSupported).
#include "common/crc32c_fold.hpp"

namespace nvm::crc32c_detail {
namespace {

struct Zmm {
  using V = __m512i;
  static constexpr size_t kBytes = 64;
  static V Load(const uint8_t* p) { return _mm512_loadu_si512(p); }
  static void Store(uint8_t* p, V v) { _mm512_storeu_si512(p, v); }
  static V Xor(V a, V b) { return _mm512_xor_si512(a, b); }
  static V Keys(FoldKeys k) {
    const auto lo = static_cast<long long>(k.lo);
    const auto hi = static_cast<long long>(k.hi);
    return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
  }
  static V FirstWord(uint32_t crc) {
    return _mm512_maskz_set1_epi32(1, static_cast<int>(crc));
  }
  static V FoldXor(V acc, V keys, V data) {
    // 0x96: three-way XOR in one instruction.
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, keys, 0x00),
                                     _mm512_clmulepi64_epi128(acc, keys, 0x11),
                                     data, 0x96);
  }
  static void Lanes(V v, __m128i* out) {
    _mm512_storeu_si512(out, v);
  }
};

}  // namespace

uint32_t Crc32cFold512(const void* data, size_t n, uint32_t seed) {
  return FoldCrc32c<Zmm, false>(nullptr, static_cast<const uint8_t*>(data), n,
                                seed);
}

uint32_t Crc32cCopyFold512(void* dst, const void* src, size_t n,
                           uint32_t seed) {
  return FoldCrc32c<Zmm, true>(static_cast<uint8_t*>(dst),
                               static_cast<const uint8_t*>(src), n, seed);
}

}  // namespace nvm::crc32c_detail
