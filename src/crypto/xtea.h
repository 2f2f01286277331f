// XTEA block cipher: 64-bit blocks, 128-bit keys, 64 Feistel rounds.
//
// Stands in for the DES hardware the paper expected ("VLSI technology has
// made encryption chips available", Section 3.4). XTEA is compact, has real
// diffusion (so tamper-detection tests are meaningful), and is endian-stable
// here by explicit little-endian packing. It is NOT a modern cipher; itcfs
// uses it to exercise the security architecture, not to protect real data.

#ifndef SRC_CRYPTO_XTEA_H_
#define SRC_CRYPTO_XTEA_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/crypto/key.h"

namespace itc::crypto {

inline constexpr int kXteaRounds = 64;
inline constexpr int kBlockSize = 8;  // bytes

// A key expanded for XTEA. Each of the 32 cycles adds one key-dependent word
// into each half of the block, (sum + k[sum & 3]) into v0 and then
// (sum' + k[(sum' >> 11) & 3]) into v1. Expanding them once per key keeps key
// unpacking out of every block.
struct XteaSchedule {
  explicit XteaSchedule(const Key& key);

  std::array<uint32_t, kXteaRounds / 2> v0_addend;
  std::array<uint32_t, kXteaRounds / 2> v1_addend;
};

// Encrypts one 64-bit block in place. `block` is two little-endian words.
void XteaEncryptBlock(const XteaSchedule& schedule, uint32_t block[2]);

// Rows of kXteaLanes interleaved CBC lanes, the layout of a sealed
// envelope's body (cbc.h): block i is chained to block i - kXteaLanes, and a
// row's blocks, having no chain between them, run side by side in SIMD lanes.
//
// One row kernel source is compiled three times, for x86-64-v4 (AVX-512,
// 16 lanes per register), x86-64-v3 (AVX2, 8) and the x86-64 baseline
// (SSE2, 4), with no -march flag: the first call picks the widest build the
// CPU supports from cpuid, once, and every later call goes straight to it.
// Each build runs the same 32-bit lane arithmetic, so all three write the
// same bytes. A build keeps a row's lanes in locals, in registers across the
// 64 rounds, and handles a whole message, partial last row included, in one
// call. src/crypto/xtea_rows.h reaches each build directly.
inline constexpr size_t kXteaLanes = 32;

// Encrypts the `blocks` 8-byte blocks at `data` in place, as
// C_i = E_K(P_i ^ C_{i-32}). The first row is chained to a whole row of
// kXteaLanes blocks at `chain` (C_{i-32} = chain block i), or to zeros if
// `chain` is null.
void XteaEncryptRows(const XteaSchedule& schedule, const uint8_t* chain, uint8_t* data,
                     size_t blocks);

// The inverse: writes P_i = D_K(C_i) ^ C_{i-32} for the `blocks` ciphertext
// blocks at `in` to `out`, which must not overlap `in`.
void XteaDecryptRows(const XteaSchedule& schedule, const uint8_t* chain, const uint8_t* in,
                     uint8_t* out, size_t blocks);

// Single-block conveniences that expand `key` on each call. The byte form
// packs the 8 bytes as two little-endian words.
void XteaEncryptBlock(const Key& key, uint32_t block[2]);
void XteaDecryptBlock(const Key& key, uint32_t block[2]);
void XteaEncryptBlock(const Key& key, uint8_t block[kBlockSize]);

// Little-endian packing of block words.
inline uint32_t LoadWord(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreWord(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

}  // namespace itc::crypto

#endif  // SRC_CRYPTO_XTEA_H_
