// CRC32C (Castagnoli) — the per-chunk integrity checksum of the store.
//
// The polynomial is the Castagnoli one (0x11EDC6F41, reflected
// 0x82f63b78) — better error-detection properties for storage payloads
// than CRC32/zlib and the same check values as iSCSI/ext4.
//
// Two host kernels compute the same function.  On an x86-64 CPU that
// reports SSE4.2, Crc32c runs three interleaved `crc32` instruction
// streams over 1 KiB lanes and merges them with a precomputed shift
// table; everywhere else it runs Crc32cPortable, a slice-by-8 table loop
// with no dependence on CPU extensions (the store must verify chunks on
// any benefactor node).  The kernel is picked once, on the first call,
// and never changes a result.  Nor does it change a modelled cost: the
// virtual time a hash is charged (StoreConfig::checksum_bw_gbps) is the
// same whichever kernel the host runs.
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

// The portable slice-by-8 kernel: the fallback Crc32c dispatches to when
// the CPU has no CRC32C instruction, and the reference the hardware
// kernel is pinned against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

enum class Crc32cKernel { kPortable, kSse42 };

// Which kernel Crc32c dispatches to on this host.
Crc32cKernel Crc32cSelectedKernel();

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
