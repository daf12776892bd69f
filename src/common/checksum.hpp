// CRC32C (Castagnoli) — the per-chunk integrity checksum of the store.
//
// The polynomial is the Castagnoli one (0x11EDC6F41, reflected
// 0x82f63b78) — better error-detection properties for storage payloads
// than CRC32/zlib and the same check values as iSCSI/ext4.
//
// Four host kernels compute the same function; the first the CPU supports,
// in this order, is picked once on the first call:
//   kVpclmul512  carry-less-multiply folding over 512-bit vectors (x86-64
//                with AVX-512F and VPCLMULQDQ)
//   kVpclmul256  the same kernel over 256-bit vectors (AVX2 and VPCLMULQDQ,
//                e.g. Zen 3, which has no AVX-512)
//   kSse42       three interleaved `crc32` instruction streams over 1 KiB
//                lanes, merged with a precomputed shift table (SSE4.2)
//   kPortable    slice-by-8 table loop with no dependence on CPU extensions
//                (the store must verify chunks on any benefactor node)
// The folding kernel is written once with the vector width as a template
// parameter (crc32c_fold.hpp).  It keeps four vector accumulators of
// 128-bit lanes and folds each lane forward over the data with two 64x64
// carry-less multiplies; at the end it folds everything into one 128-bit
// residue and finishes with two `crc32` instructions.  Its fold multipliers
// are derived at compile time from the polynomial through the zero-shift
// operator ladder that Crc32cCombine uses (crc32c_internal.hpp): folding a
// lane by D bits multiplies its low half by reflect32(x^(D+32) mod P) << 1
// and its high half by reflect32(x^(D-32) mod P) << 1.  No kernel ever
// changes a result.  Nor does one change a modelled cost: the virtual time
// a hash is charged (StoreConfig::checksum_bw_gbps) is the same whichever
// kernel the host runs.
//
// Convention: Crc32c(data, n) with no seed checksums one whole buffer;
// passing a previous result as `seed` continues it, so
//   Crc32c(b, nb, Crc32c(a, na)) == Crc32c(ab, na + nb)
// (the pre/post inversion is internal, as in zlib's crc32()).
#pragma once

#include <cstddef>
#include <cstdint>

namespace nvm {

// CRC32C of [data, data + n).  Chain partial buffers via `seed` (see above).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// Copy [src, src + n) to dst (non-overlapping, like memcpy) and return its
// CRC32C, chained via `seed` like Crc32c.  The folding kernels hash each
// vector as they store it, so the bytes cross the memory bus once; on the
// other kernels this is memcpy followed by Crc32c of the copy.  Either way
// the CRC is of exactly the bytes now in dst.
uint32_t Crc32cCopy(void* dst, const void* src, size_t n, uint32_t seed = 0);

// The portable slice-by-8 kernel: the fallback Crc32c dispatches to when
// the CPU has no CRC32C instruction, and the reference every other kernel
// is pinned against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

enum class Crc32cKernel { kPortable, kSse42, kVpclmul256, kVpclmul512 };

// Which kernel Crc32c and Crc32cCopy dispatch to on this host.
Crc32cKernel Crc32cSelectedKernel();

// Whether `kernel` is built in and this CPU can run it.
bool Crc32cKernelSupported(Crc32cKernel kernel);

// Short name for logs and benchmark labels ("vpclmul512", ...).
const char* Crc32cKernelName(Crc32cKernel kernel);

// Crc32c and Crc32cCopy through one named kernel, bypassing the dispatch
// (for tests and benchmarks; aborts if the kernel is not supported).
uint32_t Crc32cWith(Crc32cKernel kernel, const void* data, size_t n,
                    uint32_t seed = 0);
uint32_t Crc32cCopyWith(Crc32cKernel kernel, void* dst, const void* src,
                        size_t n, uint32_t seed = 0);

// CRC32C of a concatenation from the parts' checksums alone:
//   Crc32cCombine(Crc32c(a, na), Crc32c(b, nb), nb) == Crc32c(ab, na + nb)
// Advancing crc_a through len_b zero bytes is multiplication by the
// one-byte shift operator raised to the len_b power; the operator's
// power-of-two powers are compile-time tables, so this costs one 32x32
// bit-matrix product per set bit of len_b and never touches the bytes —
// what lets a full-image checksum be derived from per-fragment ones.
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

// Checksum of an `image_len`-byte image after its bytes [offset,
// offset + len) change from `old_bytes` to `new_bytes`, given `crc`, the
// checksum of the image before the change.  CRC is affine, so the change
// shifts the checksum by the CRC of the XOR delta, advanced through the
// image bytes after the window: the cost is two hashes of `len` bytes,
// independent of image_len.  `crc` must be right — a merge derives the
// new checksum only from a verified one.
uint32_t Crc32cUpdate(uint32_t crc, uint64_t image_len, uint64_t offset,
                      const void* old_bytes, const void* new_bytes,
                      size_t len);

}  // namespace nvm
