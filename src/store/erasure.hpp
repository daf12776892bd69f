// Reed-Solomon erasure codec of the aggregate store.
//
// A chunk is split into k data fragments of chunk_bytes/k bytes each and
// extended with m parity fragments computed over GF(2^8); ANY k of the
// k+m fragments reconstruct the chunk byte-exactly.  The matrix
// arithmetic is real (XOR-based RS: addition is XOR, multiplication runs
// through log/exp tables of the field), so degraded reads and fragment
// repair are testable against known-answer vectors — only the CPU cost
// is modelled, charged as bytes / ec_encode_bw_gbps on the computing
// side's virtual clock by the caller (StoreConfig::ec_encode_ns).
//
// The generator matrix is the systematic [I_k ; C] form with C an m×k
// Cauchy matrix over GF(2^8) (C[r][c] = 1 / (x_r ^ y_c) with
// x_r = k + r, y_c = c).  Every square submatrix of a Cauchy matrix is
// invertible, which makes [I_k ; C] MDS for every k + m <= 256: any k
// surviving rows form an invertible system, so any m losses are
// recoverable — not just the RAID-6 shapes a naive Vandermonde extension
// guarantees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace nvm::store {

// GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) and
// generator alpha = 2 — the classic RS-255 field.
namespace gf256 {
uint8_t Mul(uint8_t a, uint8_t b);
uint8_t Div(uint8_t a, uint8_t b);  // b != 0
uint8_t Inv(uint8_t a);             // a != 0
uint8_t Exp(unsigned i);            // alpha^i (i reduced mod 255)
uint8_t Log(uint8_t a);             // discrete log base alpha; a != 0

// dst ^= coeff * src, byte-wise (addition is XOR); src and dst have equal
// sizes.  MulAcc runs an AVX2 split-nibble kernel (two 16-entry PSHUFB
// tables per coefficient, the ISA-L formulation) when the CPU reports
// AVX2, picked once on the first call; MulAccScalar is the portable
// row-table loop it falls back to.  Both give the same bytes.
using MulAccFn = void (*)(uint8_t coeff, std::span<const uint8_t> src,
                          std::span<uint8_t> dst);
void MulAcc(uint8_t coeff, std::span<const uint8_t> src,
            std::span<uint8_t> dst);
void MulAccScalar(uint8_t coeff, std::span<const uint8_t> src,
                  std::span<uint8_t> dst);
// True when MulAcc dispatches to the AVX2 kernel on this host.
bool MulAccIsSimd();
}  // namespace gf256

// Encode/decode engine for one RS(k, m) geometry.  Stateless beyond the
// precomputed parity rows; safe to share across threads.
class ErasureCodec {
 public:
  // `mul_acc` is the GF(2^8) kernel every encode and decode runs; tests
  // pass gf256::MulAccScalar to pin the dispatched kernel against it.
  ErasureCodec(uint32_t k, uint32_t m,
               gf256::MulAccFn mul_acc = &gf256::MulAcc);

  uint32_t k() const { return k_; }
  uint32_t m() const { return m_; }
  uint32_t fragments() const { return k_ + m_; }

  // Parity coefficient C[row][col] (row < m, col < k) — exposed so tests
  // can cross-check the encode against an independent reference.
  uint8_t ParityCoeff(uint32_t row, uint32_t col) const;

  // Split `chunk` (size divisible by k) into k data fragments and append
  // m parity fragments.  Returns k+m fragments of chunk.size()/k bytes;
  // fragment i < k is the i-th contiguous slice of the chunk (systematic
  // code: intact data reads never touch the field arithmetic).
  std::vector<std::vector<uint8_t>> Encode(
      std::span<const uint8_t> chunk) const;

  // Encode only the parity fragments from k complete data fragments.
  std::vector<std::vector<uint8_t>> EncodeParity(
      std::span<const std::vector<uint8_t>> data_frags) const;

  // Rebuild every missing fragment in place.  `frags` has k+m slots;
  // slot i is either a fragment of equal size or empty (missing).  At
  // least k slots must be present.  Returns false when fewer than k
  // fragments survive (the chunk is lost).
  bool Reconstruct(std::vector<std::vector<uint8_t>>& frags) const;

  // Concatenate the k data fragments back into a chunk image.
  static void Assemble(std::span<const std::vector<uint8_t>> frags,
                       uint32_t k, std::span<uint8_t> out);

 private:
  uint32_t k_;
  uint32_t m_;
  gf256::MulAccFn mul_acc_;
  // Row-major m×k parity matrix (the Cauchy block C of [I_k ; C]).
  std::vector<uint8_t> parity_;
};

}  // namespace nvm::store
