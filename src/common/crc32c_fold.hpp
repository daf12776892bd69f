// The carry-less-multiply CRC32C folding kernel, written once over the
// vector width.  Included only by crc32c_fold256.cpp and crc32c_fold512.cpp,
// each of which supplies a vector-ops struct and is compiled for the ISA
// that width needs; everything here has internal linkage, so the two
// instantiations (and their helpers) never merge at link time.
//
// The input is cut into 128-bit lanes.  Four vector accumulators of W bits
// each hold the 4·W/128 lanes of the block in flight; every iteration
// folds each lane forward by 4·W bits (two carry-less multiplies, see
// FoldMultiplier) onto the lane that sits 4·W bits later and XORs in the
// new data.  Then the four accumulators fold into one (distance W), whole
// vectors left over fold into that, and its lanes fold into one 128-bit
// residue (distance 128).  The residue is congruent, modulo P, to
// everything hashed so far, so two `crc32` instructions over its 16 bytes
// give the running CRC; `crc32` also hashes the tail (under one vector)
// and any input shorter than four vectors.  The incoming CRC register is
// XORed into the first four data bytes, which is what a CRC register
// means.  Every load and store stays inside [src, src + n) and
// [dst, dst + n).
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/crc32c_internal.hpp"

namespace nvm::crc32c_detail {
namespace {

// Fold a 128-bit lane forward by the distance `keys` were derived for.
inline __m128i Fold128(__m128i lane, __m128i keys) {
  return _mm_xor_si128(_mm_clmulepi64_si128(lane, keys, 0x00),
                       _mm_clmulepi64_si128(lane, keys, 0x11));
}

inline __m128i Keys128(FoldKeys k) {
  return _mm_set_epi64x(static_cast<long long>(k.hi),
                        static_cast<long long>(k.lo));
}

// `W` supplies the vector type V and kBytes, plus Load, Store, Xor,
// Keys (the fold multipliers in every lane), FirstWord (a vector
// holding `crc` in its low 32 bits, zero elsewhere), FoldXor (every lane
// folded by `keys`, XORed with `data`) and Lanes (split into 128-bit
// lanes, first lane first).  With kCopy every byte hashed is also stored
// to `dst`.
template <class W, bool kCopy>
uint32_t FoldCrc32c(uint8_t* dst, const uint8_t* src, size_t n,
                    uint32_t seed) {
  using V = typename W::V;
  constexpr size_t kVec = W::kBytes;
  constexpr size_t kBlock = 4 * kVec;
  constexpr size_t kLanes = kVec / 16;
  const auto advance = [&](size_t bytes) {
    src += bytes;
    if constexpr (kCopy) dst += bytes;
    n -= bytes;
  };
  const auto load = [&](size_t off) {
    const V v = W::Load(src + off);
    if constexpr (kCopy) W::Store(dst + off, v);
    return v;
  };
  uint64_t crc = ~seed;
  if (n >= kBlock) {
    V x0 = W::Xor(load(0), W::FirstWord(static_cast<uint32_t>(crc)));
    V x1 = load(kVec);
    V x2 = load(2 * kVec);
    V x3 = load(3 * kVec);
    advance(kBlock);
    constexpr FoldKeys kBlockKeys = FoldKeysFor(8 * kBlock);
    const V block_keys = W::Keys(kBlockKeys);
    for (; n >= kBlock; advance(kBlock)) {
      x0 = W::FoldXor(x0, block_keys, load(0));
      x1 = W::FoldXor(x1, block_keys, load(kVec));
      x2 = W::FoldXor(x2, block_keys, load(2 * kVec));
      x3 = W::FoldXor(x3, block_keys, load(3 * kVec));
    }
    constexpr FoldKeys kVecKeys = FoldKeysFor(8 * kVec);
    const V vec_keys = W::Keys(kVecKeys);
    x1 = W::FoldXor(x0, vec_keys, x1);
    x2 = W::FoldXor(x1, vec_keys, x2);
    x3 = W::FoldXor(x2, vec_keys, x3);
    for (; n >= kVec; advance(kVec)) x3 = W::FoldXor(x3, vec_keys, load(0));
    constexpr FoldKeys kLaneKeys = FoldKeysFor(128);
    const __m128i lane_keys = Keys128(kLaneKeys);
    __m128i lanes[kLanes];
    W::Lanes(x3, lanes);
    __m128i r = lanes[0];
    for (size_t i = 1; i < kLanes; ++i) {
      r = _mm_xor_si128(Fold128(r, lane_keys), lanes[i]);
    }
    crc = _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(r)));
    crc = _mm_crc32_u64(crc, static_cast<uint64_t>(_mm_extract_epi64(r, 1)));
  }
  for (; n >= 8; advance(8)) {
    uint64_t word;
    std::memcpy(&word, src, sizeof(word));
    if constexpr (kCopy) std::memcpy(dst, &word, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; advance(1)) {
    if constexpr (kCopy) *dst = *src;
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *src);
  }
  return ~static_cast<uint32_t>(crc);
}

}  // namespace
}  // namespace nvm::crc32c_detail
