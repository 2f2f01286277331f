#include "src/crypto/cbc.h"

#include <algorithm>
#include <cstring>

#include "src/common/content.h"
#include "src/crypto/xtea.h"

namespace itc::crypto {

namespace {

void PutU64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

Bytes Seal(const Key& key, const Bytes& plaintext, uint64_t iv_seed) {
  const XteaSchedule schedule(key);
  // Trailer: 8-byte length + 8-byte checksum; pad the whole body to a block
  // multiple before CBC.
  const size_t length = plaintext.size();
  const size_t padded = (length + 16 + kBlockSize - 1) / kBlockSize * kBlockSize;

  Bytes out(kBlockSize + padded, 0);

  // Derive the IV by encrypting the seed, so IVs are unpredictable without
  // the key but reproducible for a given (key, seed).
  uint32_t chain[2] = {static_cast<uint32_t>(iv_seed), static_cast<uint32_t>(iv_seed >> 32)};
  XteaEncryptBlock(schedule, chain);
  StoreWord(chain[0], out.data());
  StoreWord(chain[1], out.data() + 4);

  uint8_t* body = out.data() + kBlockSize;
  if (length != 0) std::memcpy(body, plaintext.data(), length);
  PutU64(length, body + padded - 16);

  // One serial CBC chain. The checksum, a 64-bit FNV-1a over the plaintext,
  // is hashed block by block alongside the chain, and is complete by the
  // last block, which carries it.
  uint64_t checksum = content::kFnvOffsetBasis;
  for (size_t off = 0; off < padded; off += kBlockSize) {
    uint8_t* block = body + off;
    if (off < length) {
      checksum = content::HashBytes(block, std::min<size_t>(kBlockSize, length - off), checksum);
    }
    if (off + kBlockSize == padded) PutU64(checksum, block);
    chain[0] ^= LoadWord(block);
    chain[1] ^= LoadWord(block + 4);
    XteaEncryptBlock(schedule, chain);
    StoreWord(chain[0], block);
    StoreWord(chain[1], block + 4);
  }
  return out;
}

Result<Bytes> Open(const Key& key, const Bytes& sealed) {
  if (sealed.size() < kBlockSize + 2 * kBlockSize ||
      (sealed.size() - kBlockSize) % kBlockSize != 0) {
    return Status::kInvalidArgument;
  }
  const XteaSchedule schedule(key);
  const size_t padded = sealed.size() - kBlockSize;
  Bytes body(padded);

  // CBC decryption has no chain: plaintext block j is the decryption of
  // ciphertext block j XOR ciphertext block j-1 (the IV for j = 0), so the
  // blocks decrypt kXteaLanes at a time. `sealed` starts with the IV, so
  // sealed block j is ciphertext block j-1.
  constexpr size_t kBatchBytes = kXteaLanes * kBlockSize;
  for (size_t off = 0; off < padded; off += kBatchBytes) {
    const size_t lanes_used = std::min(kBatchBytes, padded - off) / kBlockSize;
    const uint8_t* prev = sealed.data() + off;
    const uint8_t* cipher = prev + kBlockSize;
    XteaLanes lanes{};
    for (size_t l = 0; l < lanes_used; ++l) {
      lanes.v0[l] = LoadWord(cipher + l * kBlockSize);
      lanes.v1[l] = LoadWord(cipher + l * kBlockSize + 4);
    }
    XteaDecryptLanes(schedule, lanes);
    uint8_t* plain = body.data() + off;
    for (size_t l = 0; l < lanes_used; ++l) {
      StoreWord(lanes.v0[l] ^ LoadWord(prev + l * kBlockSize), plain + l * kBlockSize);
      StoreWord(lanes.v1[l] ^ LoadWord(prev + l * kBlockSize + 4), plain + l * kBlockSize + 4);
    }
  }

  const uint64_t length = GetU64(body.data() + padded - 16);
  const uint64_t checksum = GetU64(body.data() + padded - 8);
  if (length > padded - 16) return Status::kTamperDetected;
  // Length must be consistent with the padding: body_len = length + 16 must
  // round up to exactly `padded`.
  if ((length + 16 + kBlockSize - 1) / kBlockSize * kBlockSize != padded) {
    return Status::kTamperDetected;
  }
  if (content::HashBytes(body.data(), length) != checksum) return Status::kTamperDetected;

  body.resize(length);
  return body;
}

}  // namespace itc::crypto
