// CRC32C internals shared by the kernels in checksum.cpp and the folding
// kernels in crc32c_fold*.cpp: the GF(2) zero-shift ladder, the fold
// multipliers derived from it at compile time, and the folding kernels'
// entry points.  Not part of the public interface (see checksum.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace nvm::crc32c_detail {

inline constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

// GF(2) linear algebra over the reflected-CRC state space: a Gf2Matrix is
// a 32x32 bit-matrix (one column per input bit), applied to a raw CRC
// register.  Advancing a register through zero bytes is such a product.
// A raw register holds a polynomial of degree < 32 reflected: bit j is the
// coefficient of x^(31-j), so 1 << 31 is the polynomial 1.
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

// kZeroShift[i] advances a raw register through 2^i zero bytes — that is,
// multiplies it by x^(8 * 2^i) mod P (the zlib crc32_combine operator
// ladder, squared out ahead of time).
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

inline constexpr std::array<Gf2Matrix, 64> kZeroShift = BuildZeroShift();

// Raw register advanced through `len` zero bytes.
constexpr uint32_t ShiftZeros(uint32_t crc, uint64_t len) {
  for (size_t i = 0; len != 0; len >>= 1, ++i) {
    if ((len & 1u) != 0) crc = Gf2MatrixTimes(kZeroShift[i], crc);
  }
  return crc;
}

// Carry-less multiplier for one 64-bit half of a folded 128-bit lane:
// x^bits mod P, reflected, shifted left one bit.  The shift absorbs the
// one-bit offset of a reflected carry-less product (two 64-bit reflected
// operands give a 127-bit product that reads one degree low in a 128-bit
// register), so the product lands where the data it replaces would be.
// Folding a lane forward by D bits multiplies its low (earlier) half by
// FoldMultiplier(D + 32) and its high half by FoldMultiplier(D - 32).
consteval uint64_t FoldMultiplier(uint64_t bits) {
  if (bits % 8 != 0) throw "fold distances are whole bytes";
  return uint64_t{ShiftZeros(1u << 31, bits / 8)} << 1;
}

// The two multipliers that fold a 128-bit lane forward by `bits`.
struct FoldKeys {
  uint64_t lo;  // multiplies the lane's low 64 bits
  uint64_t hi;  // multiplies the lane's high 64 bits
};

consteval FoldKeys FoldKeysFor(uint64_t bits) {
  return {FoldMultiplier(bits + 32), FoldMultiplier(bits - 32)};
}

// The carry-less-multiply folding kernels, one per vector width (only
// built for x86-64; the caller checks CPU support first).  The Copy forms
// also store every byte they hash to `dst` (non-overlapping, like memcpy).
uint32_t Crc32cFold256(const void* data, size_t n, uint32_t seed);
uint32_t Crc32cCopyFold256(void* dst, const void* src, size_t n,
                           uint32_t seed);
uint32_t Crc32cFold512(const void* data, size_t n, uint32_t seed);
uint32_t Crc32cCopyFold512(void* dst, const void* src, size_t n,
                           uint32_t seed);

}  // namespace nvm::crc32c_detail
