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

// Encrypts (decrypts) blocks [0, N) of `lanes`. Each addend is read before
// its lane loop so the loop touches only the lanes and needs no alias check
// to vectorize.
template <size_t N>
void EncryptLanes(const XteaSchedule& schedule, XteaLanes& lanes) {
  for (int i = 0; i < kCycles; ++i) {
    const uint32_t a0 = schedule.v0_addend[i];
    for (size_t l = 0; l < N; ++l) lanes.v0[l] += Round(lanes.v1[l], a0);
    const uint32_t a1 = schedule.v1_addend[i];
    for (size_t l = 0; l < N; ++l) lanes.v1[l] += Round(lanes.v0[l], a1);
  }
}

template <size_t N>
void DecryptLanes(const XteaSchedule& schedule, XteaLanes& lanes) {
  for (int i = kCycles - 1; i >= 0; --i) {
    const uint32_t a1 = schedule.v1_addend[i];
    for (size_t l = 0; l < N; ++l) lanes.v1[l] -= Round(lanes.v0[l], a1);
    const uint32_t a0 = schedule.v0_addend[i];
    for (size_t l = 0; l < N; ++l) lanes.v0[l] -= Round(lanes.v1[l], a0);
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

// The smallest kernel of 8, 16, 24 or 32 lanes that covers `count` blocks.
static_assert(kXteaLanes == 32);

void XteaEncryptLanes(const XteaSchedule& schedule, XteaLanes& lanes, size_t count) {
  if (count <= 8) return EncryptLanes<8>(schedule, lanes);
  if (count <= 16) return EncryptLanes<16>(schedule, lanes);
  if (count <= 24) return EncryptLanes<24>(schedule, lanes);
  EncryptLanes<32>(schedule, lanes);
}

void XteaDecryptLanes(const XteaSchedule& schedule, XteaLanes& lanes, size_t count) {
  if (count <= 8) return DecryptLanes<8>(schedule, lanes);
  if (count <= 16) return DecryptLanes<16>(schedule, lanes);
  if (count <= 24) return DecryptLanes<24>(schedule, lanes);
  DecryptLanes<32>(schedule, lanes);
}

void XteaEncryptBlock(const Key& key, uint32_t block[2]) {
  XteaEncryptBlock(XteaSchedule(key), block);
}

void XteaDecryptBlock(const Key& key, uint32_t block[2]) {
  XteaLanes lanes{};
  lanes.v0[0] = block[0];
  lanes.v1[0] = block[1];
  XteaDecryptLanes(XteaSchedule(key), lanes, 1);
  block[0] = lanes.v0[0];
  block[1] = lanes.v1[0];
}

void XteaEncryptBlock(const Key& key, uint8_t block[kBlockSize]) {
  uint32_t v[2] = {LoadWord(block), LoadWord(block + 4)};
  XteaEncryptBlock(key, v);
  StoreWord(v[0], block);
  StoreWord(v[1], block + 4);
}

}  // namespace itc::crypto
