#include "src/crypto/cbc.h"

#include <algorithm>
#include <array>

#include "src/common/content.h"
#include "src/crypto/xtea.h"

namespace itc::crypto {

namespace {

constexpr size_t kRowBytes = kXteaLanes * kBlockSize;
constexpr size_t kChecksumLanes = 8;

void PutU64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t GetU64(const uint8_t* p) {
  return LoadWord(p) | static_cast<uint64_t>(LoadWord(p + 4)) << 32;
}

// The chaining blocks of the first row: lane l's IV is E_K(IV ^ l), derived
// only for the lanes a body of `blocks` blocks reaches.
std::array<uint8_t, kRowBytes> LaneIvs(const XteaSchedule& schedule, const uint8_t* iv,
                                       size_t blocks) {
  std::array<uint8_t, kRowBytes> chain{};
  const size_t lanes = std::min(blocks, kXteaLanes);
  for (size_t l = 0; l < lanes; ++l) {
    StoreWord(LoadWord(iv) ^ static_cast<uint32_t>(l), chain.data() + l * kBlockSize);
    StoreWord(LoadWord(iv + 4), chain.data() + l * kBlockSize + 4);
  }
  XteaEncryptRows(schedule, /*chain=*/nullptr, chain.data(), lanes);
  return chain;
}

}  // namespace

uint64_t EnvelopeChecksum(const uint8_t* data, uint64_t length) {
  // Eight independent multiply chains, so no step waits on the one before.
  const size_t words = static_cast<size_t>((length + 7) / 8);
  uint64_t lane[kChecksumLanes];
  std::fill(std::begin(lane), std::end(lane), content::kFnvOffsetBasis);
  size_t w = 0;
  for (; w + kChecksumLanes <= words; w += kChecksumLanes) {
    for (size_t j = 0; j < kChecksumLanes; ++j) {
      lane[j] = (lane[j] ^ GetU64(data + 8 * (w + j))) * content::kFnvPrime;
    }
  }
  for (size_t j = 0; w + j < words; ++j) {
    lane[j] = (lane[j] ^ GetU64(data + 8 * (w + j))) * content::kFnvPrime;
  }
  uint64_t h = content::kFnvOffsetBasis;
  for (uint64_t v : lane) h = (h ^ v) * content::kFnvPrime;
  return (h ^ length) * content::kFnvPrime;
}

Bytes Seal(const Key& key, const Bytes& plaintext, uint64_t iv_seed) {
  const XteaSchedule schedule(key);
  // Trailer: 8-byte length + 8-byte checksum; pad the whole body to a block
  // multiple.
  const size_t length = plaintext.size();
  const size_t padded = (length + 16 + kBlockSize - 1) / kBlockSize * kBlockSize;

  Bytes out;
  out.reserve(kBlockSize + padded);
  out.resize(kBlockSize);
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  out.resize(kBlockSize + padded);  // zero padding and the trailer's room

  // Derive the IV by encrypting the seed, so IVs are unpredictable without
  // the key but reproducible for a given (key, seed).
  uint32_t iv[2] = {static_cast<uint32_t>(iv_seed), static_cast<uint32_t>(iv_seed >> 32)};
  XteaEncryptBlock(schedule, iv);
  StoreWord(iv[0], out.data());
  StoreWord(iv[1], out.data() + 4);

  uint8_t* body = out.data() + kBlockSize;
  PutU64(length, body + padded - 16);
  PutU64(EnvelopeChecksum(body, length), body + padded - 8);

  const size_t blocks = padded / kBlockSize;
  XteaEncryptRows(schedule, LaneIvs(schedule, out.data(), blocks).data(), body, blocks);
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

  const size_t blocks = padded / kBlockSize;
  XteaDecryptRows(schedule, LaneIvs(schedule, sealed.data(), blocks).data(),
                  sealed.data() + kBlockSize, body.data(), blocks);

  const uint64_t length = GetU64(body.data() + padded - 16);
  const uint64_t checksum = GetU64(body.data() + padded - 8);
  if (length > padded - 16) return Status::kTamperDetected;
  // Length must be consistent with the padding: body_len = length + 16 must
  // round up to exactly `padded`.
  if ((length + 16 + kBlockSize - 1) / kBlockSize * kBlockSize != padded) {
    return Status::kTamperDetected;
  }
  // The checksum's words run through the padding, so altered padding fails
  // it as well.
  if (EnvelopeChecksum(body.data(), length) != checksum) return Status::kTamperDetected;

  body.resize(length);
  return body;
}

}  // namespace itc::crypto
