#include "src/crypto/xtea.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/crypto/xtea_rows.h"

namespace itc::crypto {

namespace {

constexpr uint32_t kDelta = 0x9e3779b9u;
constexpr int kCycles = kXteaRounds / 2;
constexpr size_t kRowBytes = kXteaLanes * kBlockSize;

// One XTEA half-round: adds the round function of `v` to `x` (decrypting,
// subtracts it). T is one word or a vector of lane words, taken by reference
// so that no vector crosses a call by value.
template <typename T>
[[gnu::always_inline]] inline void AddRound(T& x, const T& v, uint32_t addend) {
  x += (((v << 4) ^ (v >> 5)) + v) ^ addend;
}

template <typename T>
[[gnu::always_inline]] inline void SubRound(T& x, const T& v, uint32_t addend) {
  x -= (((v << 4) ^ (v >> 5)) + v) ^ addend;
}

// W lanes' words in one vector register of a build's level: W = 4 at the
// baseline (SSE2), 8 at x86-64-v3 (AVX2) and 16 at x86-64-v4 (AVX-512).
template <size_t W>
struct VectorOf {
  typedef uint32_t Type __attribute__((vector_size(4 * W)));
};

// One row's blocks, block l being the words (v0[l / W][l % W],
// v1[l / W][l % W]). The row bodies keep it in a local, so no store through
// the schedule can alias it and the lanes stay in registers across the 64
// rounds.
template <size_t W>
struct Lanes {
  typename VectorOf<W>::Type v0[kXteaLanes / W];
  typename VectorOf<W>::Type v1[kXteaLanes / W];
};

// A row's words are read and written straight from memory, which gives
// LoadWord's little-endian order on this little-endian target.
static_assert(std::endian::native == std::endian::little);

// Reads blocks [0, K * W) of a row into the first K vectors of `lanes`, and
// back.
template <size_t K, size_t W>
[[gnu::always_inline]] inline void LoadRow(const uint8_t* row, Lanes<W>& lanes) {
  uint32_t words[2 * K * W] = {};
  std::memcpy(words, row, sizeof(words));
  for (size_t k = 0; k < K; ++k) {
    for (size_t j = 0; j < W; ++j) {
      lanes.v0[k][j] = words[2 * (k * W + j)];
      lanes.v1[k][j] = words[2 * (k * W + j) + 1];
    }
  }
}

template <size_t K, size_t W>
[[gnu::always_inline]] inline void StoreRow(const Lanes<W>& lanes, uint8_t* row) {
  uint32_t words[2 * K * W] = {};
  for (size_t k = 0; k < K; ++k) {
    for (size_t j = 0; j < W; ++j) {
      words[2 * (k * W + j)] = lanes.v0[k][j];
      words[2 * (k * W + j) + 1] = lanes.v1[k][j];
    }
  }
  std::memcpy(row, words, sizeof(words));
}

// XORs blocks [0, K * W) of a row into `lanes`.
template <size_t K, size_t W>
[[gnu::always_inline]] inline void XorRow(const uint8_t* row, Lanes<W>& lanes) {
  Lanes<W> other{};
  LoadRow<K>(row, other);
  for (size_t k = 0; k < K; ++k) {
    lanes.v0[k] ^= other.v0[k];
    lanes.v1[k] ^= other.v1[k];
  }
}

// Encrypts (decrypts) the first K vectors of lanes.
template <size_t K, size_t W>
[[gnu::always_inline]] inline void EncryptLanes(const XteaSchedule& schedule, Lanes<W>& lanes) {
  for (int i = 0; i < kCycles; ++i) {
    const uint32_t a0 = schedule.v0_addend[i];
    for (size_t k = 0; k < K; ++k) AddRound(lanes.v0[k], lanes.v1[k], a0);
    const uint32_t a1 = schedule.v1_addend[i];
    for (size_t k = 0; k < K; ++k) AddRound(lanes.v1[k], lanes.v0[k], a1);
  }
}

template <size_t K, size_t W>
[[gnu::always_inline]] inline void DecryptLanes(const XteaSchedule& schedule, Lanes<W>& lanes) {
  for (int i = kCycles - 1; i >= 0; --i) {
    const uint32_t a1 = schedule.v1_addend[i];
    for (size_t k = 0; k < K; ++k) SubRound(lanes.v1[k], lanes.v0[k], a1);
    const uint32_t a0 = schedule.v0_addend[i];
    for (size_t k = 0; k < K; ++k) SubRound(lanes.v0[k], lanes.v1[k], a0);
  }
}

// One row of `used` <= K * W blocks through the kernel of K vectors. A row
// narrower than the kernel goes through `tail`, padded with zeros.
// Encrypting, `lanes` holds each lane's last ciphertext block, which the
// lane's next block is XORed with; `chain`, if not null, is XORed in too.
template <size_t K, size_t W>
[[gnu::always_inline]] inline void EncryptRow(const XteaSchedule& schedule, const uint8_t* chain,
                                              uint8_t* row, size_t used, Lanes<W>& lanes) {
  alignas(64) uint8_t tail[K * W * kBlockSize] = {};
  const bool narrow = used < K * W;
  if (narrow) std::memcpy(tail, row, used * kBlockSize);
  if (chain != nullptr) XorRow<K>(chain, lanes);
  XorRow<K>(narrow ? tail : row, lanes);
  EncryptLanes<K>(schedule, lanes);
  StoreRow<K>(lanes, narrow ? tail : row);
  if (narrow) std::memcpy(row, tail, used * kBlockSize);
}

// Decrypting, each block is XORed with the block one row back, `back`.
template <size_t K, size_t W>
[[gnu::always_inline]] inline void DecryptRow(const XteaSchedule& schedule, const uint8_t* back,
                                              const uint8_t* row, uint8_t* out, size_t used) {
  alignas(64) uint8_t tail[K * W * kBlockSize] = {};
  const bool narrow = used < K * W;
  if (narrow) std::memcpy(tail, row, used * kBlockSize);
  Lanes<W> lanes{};
  LoadRow<K>(narrow ? tail : row, lanes);
  DecryptLanes<K>(schedule, lanes);
  if (back != nullptr) XorRow<K>(back, lanes);
  StoreRow<K>(lanes, narrow ? tail : out);
  if (narrow) std::memcpy(out, tail, used * kBlockSize);
}

// The vectors of W lanes that cover `lanes` lanes.
constexpr size_t Vectors(size_t lanes, size_t w) { return (lanes + w - 1) / w; }

// The row loops of XteaEncryptRows and XteaDecryptRows, written once and
// compiled into each build below. Each row runs the smallest kernel of 8, 16,
// 24 or 32 lanes, rounded up to whole vectors, that covers its blocks; the
// results in the lanes past them mean nothing.
static_assert(kXteaLanes == 32);

template <size_t W>
[[gnu::always_inline]] inline void EncryptRowsBody(const XteaSchedule& schedule,
                                                   const uint8_t* chain, uint8_t* data,
                                                   size_t blocks) {
  Lanes<W> lanes{};
  for (size_t first = 0; first < blocks; first += kXteaLanes) {
    const size_t used = std::min(kXteaLanes, blocks - first);
    uint8_t* row = data + first * kBlockSize;
    const uint8_t* row_chain = first == 0 ? chain : nullptr;
    if (used <= 8) {
      EncryptRow<Vectors(8, W)>(schedule, row_chain, row, used, lanes);
    } else if (used <= 16) {
      EncryptRow<Vectors(16, W)>(schedule, row_chain, row, used, lanes);
    } else if (used <= 24) {
      EncryptRow<Vectors(24, W)>(schedule, row_chain, row, used, lanes);
    } else {
      EncryptRow<Vectors(32, W)>(schedule, row_chain, row, used, lanes);
    }
  }
}

template <size_t W>
[[gnu::always_inline]] inline void DecryptRowsBody(const XteaSchedule& schedule,
                                                   const uint8_t* chain, const uint8_t* in,
                                                   uint8_t* out, size_t blocks) {
  // Decryption has no chain: each block XORs with the ciphertext block one
  // row back (`chain` in the first row), so a row's blocks decrypt side by
  // side.
  for (size_t first = 0; first < blocks; first += kXteaLanes) {
    const size_t used = std::min(kXteaLanes, blocks - first);
    const uint8_t* row = in + first * kBlockSize;
    const uint8_t* back = first == 0 ? chain : row - kRowBytes;
    uint8_t* plain = out + first * kBlockSize;
    if (used <= 8) {
      DecryptRow<Vectors(8, W), W>(schedule, back, row, plain, used);
    } else if (used <= 16) {
      DecryptRow<Vectors(16, W), W>(schedule, back, row, plain, used);
    } else if (used <= 24) {
      DecryptRow<Vectors(24, W), W>(schedule, back, row, plain, used);
    } else {
      DecryptRow<Vectors(32, W), W>(schedule, back, row, plain, used);
    }
  }
}

// The three builds of the row bodies, each on vectors of its level's register
// width. Every lane computes the same 32-bit arithmetic at any width, so
// every build writes the same bytes.
[[gnu::target("arch=x86-64-v4")]] void EncryptRowsV4(const XteaSchedule& schedule,
                                                     const uint8_t* chain, uint8_t* data,
                                                     size_t blocks) {
  EncryptRowsBody<16>(schedule, chain, data, blocks);
}

[[gnu::target("arch=x86-64-v4")]] void DecryptRowsV4(const XteaSchedule& schedule,
                                                     const uint8_t* chain, const uint8_t* in,
                                                     uint8_t* out, size_t blocks) {
  DecryptRowsBody<16>(schedule, chain, in, out, blocks);
}

[[gnu::target("arch=x86-64-v3")]] void EncryptRowsV3(const XteaSchedule& schedule,
                                                     const uint8_t* chain, uint8_t* data,
                                                     size_t blocks) {
  EncryptRowsBody<8>(schedule, chain, data, blocks);
}

[[gnu::target("arch=x86-64-v3")]] void DecryptRowsV3(const XteaSchedule& schedule,
                                                     const uint8_t* chain, const uint8_t* in,
                                                     uint8_t* out, size_t blocks) {
  DecryptRowsBody<8>(schedule, chain, in, out, blocks);
}

void EncryptRowsBaseline(const XteaSchedule& schedule, const uint8_t* chain, uint8_t* data,
                         size_t blocks) {
  EncryptRowsBody<4>(schedule, chain, data, blocks);
}

void DecryptRowsBaseline(const XteaSchedule& schedule, const uint8_t* chain, const uint8_t* in,
                         uint8_t* out, size_t blocks) {
  DecryptRowsBody<4>(schedule, chain, in, out, blocks);
}

// Indexed by rows::Level.
constexpr rows::Build kBuilds[] = {
    {"x86-64", EncryptRowsBaseline, DecryptRowsBaseline},
    {"x86-64-v3", EncryptRowsV3, DecryptRowsV3},
    {"x86-64-v4", EncryptRowsV4, DecryptRowsV4},
};

}  // namespace

namespace rows {

bool CpuSupports(Level level) {
  // The choice may run during static initialization, before libgcc has read
  // cpuid; the call makes sure it has.
  __builtin_cpu_init();
  switch (level) {
    case Level::kBaseline:
      return true;
    case Level::kV3:
      return __builtin_cpu_supports("x86-64-v3");
    case Level::kV4:
      return __builtin_cpu_supports("x86-64-v4");
  }
  return false;
}

const Build& BuildFor(Level level) { return kBuilds[static_cast<size_t>(level)]; }

const Build& ActiveBuild() {
  // Chosen once; a function-local static is initialized exactly once even
  // when shard threads seal concurrently.
  static const Build& active = []() -> const Build& {
    Level widest = Level::kBaseline;
    for (Level level : kLevels) {
      if (CpuSupports(level)) widest = level;
    }
    return BuildFor(widest);
  }();
  return active;
}

}  // namespace rows

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
    AddRound(v0, v1, schedule.v0_addend[i]);
    AddRound(v1, v0, schedule.v1_addend[i]);
  }
  block[0] = v0;
  block[1] = v1;
}

void XteaEncryptRows(const XteaSchedule& schedule, const uint8_t* chain, uint8_t* data,
                     size_t blocks) {
  rows::ActiveBuild().encrypt(schedule, chain, data, blocks);
}

void XteaDecryptRows(const XteaSchedule& schedule, const uint8_t* chain, const uint8_t* in,
                     uint8_t* out, size_t blocks) {
  rows::ActiveBuild().decrypt(schedule, chain, in, out, blocks);
}

void XteaEncryptBlock(const Key& key, uint32_t block[2]) {
  XteaEncryptBlock(XteaSchedule(key), block);
}

void XteaDecryptBlock(const Key& key, uint32_t block[2]) {
  uint8_t in[kBlockSize], out[kBlockSize];
  StoreWord(block[0], in);
  StoreWord(block[1], in + 4);
  XteaDecryptRows(XteaSchedule(key), /*chain=*/nullptr, in, out, 1);
  block[0] = LoadWord(out);
  block[1] = LoadWord(out + 4);
}

void XteaEncryptBlock(const Key& key, uint8_t block[kBlockSize]) {
  uint32_t v[2] = {LoadWord(block), LoadWord(block + 4)};
  XteaEncryptBlock(key, v);
  StoreWord(v[0], block);
  StoreWord(v[1], block + 4);
}

}  // namespace itc::crypto
