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

// Blocks encrypted or decrypted side by side. Independent blocks (the 32
// lanes of a sealed envelope's row, for one) have no chain between them, so
// each cycle's lane loop can compile to SIMD code.
inline constexpr size_t kXteaLanes = 32;

// Up to kXteaLanes independent blocks; block l is the words (v0[l], v1[l]).
struct XteaLanes {
  uint32_t v0[kXteaLanes];
  uint32_t v1[kXteaLanes];
};

// Encrypts (decrypts) blocks [0, count) of `lanes` in place, for
// 0 < count <= kXteaLanes. The work runs in kernels of 8, 16, 24 or 32
// lanes, so the blocks up to the next multiple of 8 change too: they must
// hold initialized words, and their results mean nothing.
void XteaEncryptLanes(const XteaSchedule& schedule, XteaLanes& lanes, size_t count);
void XteaDecryptLanes(const XteaSchedule& schedule, XteaLanes& lanes, size_t count);

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
