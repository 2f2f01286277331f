#include "src/crypto/key.h"

#include <cstdio>

#include "src/crypto/xtea.h"

namespace itc::crypto {

std::string Key::ToHex() const {
  std::string out;
  out.reserve(32);
  for (uint8_t b : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

Key DeriveKeyFromPassword(std::string_view password, std::string_view salt) {
  // Absorb password+salt into the key state by repeated encrypt-and-fold:
  // start from a fixed key, repeatedly encrypt an 8-byte input block under
  // the evolving key and XOR the result back into the key halves.
  Key key;
  for (size_t i = 0; i < key.bytes.size(); ++i) {
    key.bytes[i] = static_cast<uint8_t>(0x5a + 13 * i);
  }
  std::string material(password);
  material += '\0';
  material += salt;
  // Pad to a multiple of the block size.
  while (material.size() % kBlockSize != 0) material += '\0';

  for (int round = 0; round < 8; ++round) {
    for (size_t off = 0; off < material.size(); off += kBlockSize) {
      uint8_t block[kBlockSize];
      for (int j = 0; j < kBlockSize; ++j) {
        block[j] = static_cast<uint8_t>(material[off + j]) ^
                   key.bytes[(off + j + round) % key.bytes.size()];
      }
      XteaEncryptBlock(key, block);
      for (int j = 0; j < kBlockSize; ++j) {
        key.bytes[(off / kBlockSize + round) % 2 == 0 ? j : j + 8] ^= block[j];
      }
    }
  }
  return key;
}

Key DeriveSubKey(const Key& base, uint64_t nonce) {
  // Encrypt the nonce, then that block again, under the base key; the two
  // results fold into the key's two halves.
  const XteaSchedule schedule(base);
  Key out = base;
  uint32_t block[2] = {static_cast<uint32_t>(nonce), static_cast<uint32_t>(nonce >> 32)};
  for (int half = 0; half < 2; ++half) {
    XteaEncryptBlock(schedule, block);
    for (int j = 0; j < kBlockSize; ++j) {
      out.bytes[kBlockSize * half + j] ^= static_cast<uint8_t>(block[j / 4] >> (8 * (j % 4)));
    }
  }
  return out;
}

}  // namespace itc::crypto
