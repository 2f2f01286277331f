#include "src/crypto/xtea.h"

namespace itc::crypto {

namespace {

constexpr uint32_t kDelta = 0x9e3779b9u;
constexpr int kCycles = kXteaRounds / 2;

// The XTEA round function: the value one half-round adds to (or, decrypting,
// subtracts from) the other half of the block.
inline uint32_t Round(uint32_t v, uint32_t addend) {
  return (((v << 4) ^ (v >> 5)) + v) ^ addend;
}

// Decrypts N blocks, block l being (v0[l], v1[l]). Each addend is read before
// its lane loop so the loop touches only the lanes and needs no alias check
// to vectorize.
template <size_t N>
void DecryptLanes(const XteaSchedule& schedule, uint32_t (&v0)[N], uint32_t (&v1)[N]) {
  for (int i = kCycles - 1; i >= 0; --i) {
    const uint32_t a1 = schedule.v1_addend[i];
    for (size_t l = 0; l < N; ++l) v1[l] -= Round(v0[l], a1);
    const uint32_t a0 = schedule.v0_addend[i];
    for (size_t l = 0; l < N; ++l) v0[l] -= Round(v1[l], a0);
  }
}

}  // namespace

XteaSchedule::XteaSchedule(const Key& key) {
  uint32_t k[4];
  for (int i = 0; i < 4; ++i) k[i] = LoadWord(key.bytes.data() + 4 * i);
  uint32_t sum = 0;
  for (int i = 0; i < kCycles; ++i) {
    v0_addend[i] = sum + k[sum & 3];
    sum += kDelta;
    v1_addend[i] = sum + k[(sum >> 11) & 3];
  }
}

void XteaEncryptBlock(const XteaSchedule& schedule, uint32_t block[2]) {
  uint32_t v0 = block[0], v1 = block[1];
  for (int i = 0; i < kCycles; ++i) {
    v0 += Round(v1, schedule.v0_addend[i]);
    v1 += Round(v0, schedule.v1_addend[i]);
  }
  block[0] = v0;
  block[1] = v1;
}

void XteaDecryptLanes(const XteaSchedule& schedule, XteaLanes& lanes) {
  DecryptLanes(schedule, lanes.v0, lanes.v1);
}

void XteaEncryptBlock(const Key& key, uint32_t block[2]) {
  XteaEncryptBlock(XteaSchedule(key), block);
}

void XteaDecryptBlock(const Key& key, uint32_t block[2]) {
  uint32_t v0[1] = {block[0]}, v1[1] = {block[1]};
  DecryptLanes(XteaSchedule(key), v0, v1);
  block[0] = v0[0];
  block[1] = v1[0];
}

void XteaEncryptBlock(const Key& key, uint8_t block[kBlockSize]) {
  uint32_t v[2] = {LoadWord(block), LoadWord(block + 4)};
  XteaEncryptBlock(key, v);
  StoreWord(v[0], block);
  StoreWord(v[1], block + 4);
}

}  // namespace itc::crypto
