// The CRC32C folding kernel at 256 bits.  Compiled with AVX2 and
// VPCLMULQDQ enabled (src/common/CMakeLists.txt) but not AVX-512, so it
// runs on CPUs such as Zen 3 that have the 256-bit carry-less multiply
// only; runs only when the CPU reports both (Crc32cKernelSupported).
#include "common/crc32c_fold.hpp"

namespace nvm::crc32c_detail {
namespace {

struct Ymm {
  using V = __m256i;
  static constexpr size_t kBytes = 32;
  static V Load(const uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void Store(uint8_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V Xor(V a, V b) { return _mm256_xor_si256(a, b); }
  static V Keys(FoldKeys k) {
    const auto lo = static_cast<long long>(k.lo);
    const auto hi = static_cast<long long>(k.hi);
    return _mm256_set_epi64x(hi, lo, hi, lo);
  }
  static V FirstWord(uint32_t crc) {
    return _mm256_setr_epi32(static_cast<int>(crc), 0, 0, 0, 0, 0, 0, 0);
  }
  static V FoldXor(V acc, V keys, V data) {
    return _mm256_xor_si256(
        _mm256_xor_si256(_mm256_clmulepi64_epi128(acc, keys, 0x00),
                         _mm256_clmulepi64_epi128(acc, keys, 0x11)),
        data);
  }
  static void Lanes(V v, __m128i* out) {
    out[0] = _mm256_castsi256_si128(v);
    out[1] = _mm256_extracti128_si256(v, 1);
  }
};

}  // namespace

uint32_t Crc32cFold256(const void* data, size_t n, uint32_t seed) {
  return FoldCrc32c<Ymm, false>(nullptr, static_cast<const uint8_t*>(data), n,
                                seed);
}

uint32_t Crc32cCopyFold256(void* dst, const void* src, size_t n,
                           uint32_t seed) {
  return FoldCrc32c<Ymm, true>(static_cast<uint8_t*>(dst),
                               static_cast<const uint8_t*>(src), n, seed);
}

}  // namespace nvm::crc32c_detail
