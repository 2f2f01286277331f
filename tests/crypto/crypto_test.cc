// Unit tests for the crypto substrate: XTEA, key derivation, the sealed
// (authenticated, lane-interleaved CBC) envelope, and the mutual
// authentication handshake.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/common/content.h"
#include "src/common/rng.h"
#include "src/crypto/cbc.h"
#include "src/crypto/handshake.h"
#include "src/crypto/key.h"
#include "src/crypto/xtea.h"
#include "src/crypto/xtea_rows.h"

namespace itc::crypto {
namespace {

Key TestKey(uint8_t fill) {
  Key k;
  for (size_t i = 0; i < k.bytes.size(); ++i) k.bytes[i] = static_cast<uint8_t>(fill + i);
  return k;
}

// --- XTEA ---------------------------------------------------------------------

TEST(XteaTest, EncryptDecryptRoundTrip) {
  const Key key = TestKey(0x11);
  uint32_t block[2] = {0xdeadbeef, 0x01234567};
  uint32_t original[2] = {block[0], block[1]};
  XteaEncryptBlock(key, block);
  EXPECT_FALSE(block[0] == original[0] && block[1] == original[1]);
  XteaDecryptBlock(key, block);
  EXPECT_EQ(block[0], original[0]);
  EXPECT_EQ(block[1], original[1]);
}

TEST(XteaTest, ByteInterfaceMatchesWordInterface) {
  const Key key = TestKey(0x42);
  uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t words[2] = {0x04030201, 0x08070605};  // little-endian packing
  XteaEncryptBlock(key, bytes);
  XteaEncryptBlock(key, words);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bytes[i], static_cast<uint8_t>(words[0] >> (8 * i)));
    EXPECT_EQ(bytes[4 + i], static_cast<uint8_t>(words[1] >> (8 * i)));
  }
}

TEST(XteaTest, DifferentKeysGiveDifferentCiphertext) {
  uint32_t a[2] = {1, 2}, b[2] = {1, 2};
  XteaEncryptBlock(TestKey(0x01), a);
  XteaEncryptBlock(TestKey(0x02), b);
  EXPECT_FALSE(a[0] == b[0] && a[1] == b[1]);
}

TEST(XteaTest, AvalancheSingleBitFlip) {
  // Flipping one plaintext bit should change roughly half the output bits.
  const Key key = TestKey(0x33);
  uint32_t a[2] = {0, 0}, b[2] = {1, 0};
  XteaEncryptBlock(key, a);
  XteaEncryptBlock(key, b);
  int diff = __builtin_popcount(a[0] ^ b[0]) + __builtin_popcount(a[1] ^ b[1]);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

// --- Key derivation ------------------------------------------------------------

TEST(KeyDerivationTest, DeterministicAndSaltSensitive) {
  const Key a = DeriveKeyFromPassword("hunter2", "cmu");
  const Key b = DeriveKeyFromPassword("hunter2", "cmu");
  const Key c = DeriveKeyFromPassword("hunter2", "mit");
  const Key d = DeriveKeyFromPassword("hunter3", "cmu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(KeyDerivationTest, EmptyPasswordStillProducesKey) {
  const Key a = DeriveKeyFromPassword("", "salt");
  const Key b = DeriveKeyFromPassword("", "salt2");
  EXPECT_NE(a, b);
}

TEST(KeyDerivationTest, SubKeysDifferByNonce) {
  const Key base = TestKey(0x55);
  EXPECT_EQ(DeriveSubKey(base, 1), DeriveSubKey(base, 1));
  EXPECT_NE(DeriveSubKey(base, 1), DeriveSubKey(base, 2));
  EXPECT_NE(DeriveSubKey(base, 1), base);
}

TEST(KeyDerivationTest, MatchesGoldenKeys) {
  // Recorded from the block-at-a-time cipher. Session keys come from
  // DeriveSubKey, so a mismatch changes every sealed byte of a session.
  const Key user = DeriveKeyFromPassword("rosebud", "itc.cmu.edu");
  const Key empty = DeriveKeyFromPassword("", "realm");
  EXPECT_EQ(user.ToHex(), "8965ee9ce7b5963ce4fe742ba7b6eb18");
  EXPECT_EQ(empty.ToHex(), "34d6ae4d02eb40581419688b15cd9728");
  EXPECT_EQ(DeriveSubKey(user, 1).ToHex(), "0fdd3679c02ae47b45f1f147c8520d7c");
  EXPECT_EQ(DeriveSubKey(empty, 0xfedcba9876543210ull).ToHex(),
            "4f94c6feeb3f67064aed651b76b26532");
}

TEST(KeyTest, ToHexFormats) {
  Key k;
  k.bytes.fill(0xab);
  EXPECT_EQ(k.ToHex(), std::string(32, ' ').replace(0, 32, "abababababababababababababababab"));
}

// --- Sealed envelope --------------------------------------------------------------

class SealRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(SealRoundTrip, OpensToOriginal) {
  const Key key = TestKey(0x77);
  Bytes plain(GetParam());
  for (size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<uint8_t>(i * 7 + 3);
  const Bytes sealed = Seal(key, plain, /*iv_seed=*/GetParam());
  auto opened = Open(key, sealed);
  ASSERT_TRUE(opened.ok()) << StatusName(opened.status());
  EXPECT_EQ(*opened, plain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealRoundTrip,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 63, 64, 255, 1024, 4096,
                                           65536));

TEST(SealTest, CiphertextHidesPlaintext) {
  const Key key = TestKey(0x01);
  const Bytes plain = ToBytes("attack at dawn, again and again and again");
  const Bytes sealed = Seal(key, plain, 1);
  // No 8-byte window of the ciphertext equals any window of the plaintext.
  const std::string hay(sealed.begin(), sealed.end());
  EXPECT_EQ(hay.find("attack"), std::string::npos);
}

TEST(SealTest, SameplaintextDifferentIvSeedsDiffer) {
  const Key key = TestKey(0x02);
  const Bytes plain = ToBytes("identical message");
  EXPECT_NE(Seal(key, plain, 1), Seal(key, plain, 2));
}

TEST(SealTest, WrongKeyDetected) {
  const Bytes sealed = Seal(TestKey(0x10), ToBytes("secret"), 5);
  EXPECT_EQ(Open(TestKey(0x20), sealed).status(), Status::kTamperDetected);
}

// Flips bits throughout a sealed message of GetParam() bytes. 17 bytes fit
// in one partial row of kXteaLanes blocks; 240 bytes fill exactly one row
// and 241 start a second; 525 bytes fill two whole rows and leave a ragged
// tail, and 781 bytes one row more.
class SealTamperTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SealTamperTest, EveryBitFlipDetected) {
  const Key key = TestKey(0x31);
  const std::string text = "integrity matters";
  Bytes plain(GetParam());
  for (size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<uint8_t>(text[i % text.size()]);
  const Bytes sealed = Seal(key, plain, 9);
  for (size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes tampered = sealed;
      tampered[byte] = static_cast<uint8_t>(tampered[byte] ^ (1u << bit));
      auto opened = Open(key, tampered);
      EXPECT_FALSE(opened.ok()) << "byte " << byte << " bit " << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, SealTamperTest, ::testing::Values(17, 240, 241, 525, 781));

TEST(SealTest, TruncationDetected) {
  const Key key = TestKey(0x44);
  Bytes sealed = Seal(key, ToBytes("do not truncate me please"), 4);
  sealed.resize(sealed.size() - 8);
  EXPECT_FALSE(Open(key, sealed).ok());
}

TEST(SealTest, GarbageRejected) {
  EXPECT_FALSE(Open(TestKey(0x01), Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(Open(TestKey(0x01), Bytes(40, 0x5a)).ok());
}

// Reference envelope, written from its definition one block at a time
// through the Key-taking XteaEncryptBlock: IV || per-lane CBC(plaintext ||
// zero padding || length || checksum). The IV is the encrypted seed. Block i
// is chained to ciphertext block i - 32, and blocks 0-31 to the lane IVs
// E_K(IV ^ lane).
constexpr size_t kReferenceLanes = 32;

// FNV-1a over the zero-padded plaintext's little-endian 64-bit words, word w
// hashed into lane w mod 8; then the 8 lanes in order, then the length.
uint64_t ReferenceChecksum(const Bytes& plain) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  Bytes words = plain;
  words.resize((plain.size() + 7) / 8 * 8, 0);
  std::vector<uint64_t> lanes(8, 0xcbf29ce484222325ull);
  for (size_t w = 0; w < words.size() / 8; ++w) {
    uint64_t word = 0;
    for (int i = 0; i < 8; ++i) word |= static_cast<uint64_t>(words[8 * w + i]) << (8 * i);
    lanes[w % 8] = (lanes[w % 8] ^ word) * kPrime;
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t lane : lanes) h = (h ^ lane) * kPrime;
  return (h ^ plain.size()) * kPrime;
}

Bytes ReferenceSeal(const Key& key, const Bytes& plain, uint64_t iv_seed) {
  auto put_u64 = [](uint64_t v, uint8_t* p) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  };
  const size_t padded = (plain.size() + 16 + kBlockSize - 1) / kBlockSize * kBlockSize;
  Bytes out(kBlockSize + padded, 0);
  put_u64(iv_seed, out.data());
  XteaEncryptBlock(key, out.data());
  std::copy(plain.begin(), plain.end(), out.begin() + kBlockSize);
  put_u64(plain.size(), out.data() + out.size() - 16);
  put_u64(ReferenceChecksum(plain), out.data() + out.size() - 8);
  for (size_t i = 0; i < padded / kBlockSize; ++i) {
    uint8_t* block = out.data() + kBlockSize * (i + 1);
    uint8_t chain[kBlockSize];
    if (i < kReferenceLanes) {
      std::copy(out.begin(), out.begin() + kBlockSize, chain);
      chain[0] ^= static_cast<uint8_t>(i);  // IV ^ lane, little-endian
      XteaEncryptBlock(key, chain);
    } else {
      std::copy(block - kReferenceLanes * kBlockSize,
                block - kReferenceLanes * kBlockSize + kBlockSize, chain);
    }
    for (int j = 0; j < kBlockSize; ++j) block[j] ^= chain[j];
    XteaEncryptBlock(key, block);
  }
  return out;
}

TEST(SealTest, MatchesBlockAtATimeReference) {
  std::vector<size_t> lengths(601);
  std::iota(lengths.begin(), lengths.end(), 0);
  for (size_t length : {4099, 16389, 65536, 70 * 1024}) lengths.push_back(length);
  Rng rng(0x5ea1);
  for (size_t length : lengths) {
    Key key;
    for (uint8_t& b : key.bytes) b = static_cast<uint8_t>(rng.NextU64());
    Bytes plain(length);
    for (uint8_t& b : plain) b = static_cast<uint8_t>(rng.NextU64());
    const uint64_t iv_seed = rng.NextU64();
    const Bytes sealed = Seal(key, plain, iv_seed);
    ASSERT_EQ(sealed, ReferenceSeal(key, plain, iv_seed)) << "length " << length;
    auto opened = Open(key, sealed);
    ASSERT_TRUE(opened.ok()) << "length " << length << ": " << StatusName(opened.status());
    ASSERT_EQ(*opened, plain) << "length " << length;
  }
}

TEST(SealTest, MatchesGoldenCiphertexts) {
  // FNV-1a of the sealed bytes for fixed inputs, recorded from ReferenceSeal.
  // A mismatch means the wire format changed.
  struct Golden {
    uint8_t key_fill;
    size_t length;
    uint64_t iv_seed;
    uint64_t hash;
  };
  constexpr Golden kGolden[] = {
      {0x01, 0, 0x0000000000000000ull, 0x6e8589fe2137a370ull},
      {0x31, 17, 0x0000000000000009ull, 0x67e0f1f00ba22706ull},
      {0x77, 255, 0x0123456789abcdefull, 0x027a0f5ba4491de1ull},
      {0xa5, 525, 0x0000000000000007ull, 0xd24f74dc4a2a4777ull},
      {0xfe, 65536, 0x8000000000000000ull, 0xf95291a12ee86028ull},
  };
  for (const Golden& g : kGolden) {
    Bytes plain(g.length);
    for (size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<uint8_t>(i * 7 + 3);
    const Bytes reference = ReferenceSeal(TestKey(g.key_fill), plain, g.iv_seed);
    EXPECT_EQ(content::HashBytes(reference.data(), reference.size()), g.hash)
        << "length " << g.length;
    const Bytes sealed = Seal(TestKey(g.key_fill), plain, g.iv_seed);
    EXPECT_EQ(content::HashBytes(sealed.data(), sealed.size()), g.hash) << "length " << g.length;
  }
}

TEST(SealTest, EveryPlaintextBitFlipChangesChecksum) {
  // Lengths 0 to two rows of kXteaLanes blocks and one byte more.
  constexpr size_t kMaxLength = 2 * kXteaLanes * kBlockSize + 1;
  for (size_t length = 0; length <= kMaxLength; ++length) {
    Bytes words((length + 7) / 8 * 8, 0);
    for (size_t i = 0; i < length; ++i) words[i] = static_cast<uint8_t>(i * 7 + 3);
    const uint64_t checksum = EnvelopeChecksum(words.data(), length);
    ASSERT_EQ(checksum, ReferenceChecksum(Bytes(words.begin(), words.begin() + length)))
        << "length " << length;
    for (size_t byte = 0; byte < length; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        words[byte] = static_cast<uint8_t>(words[byte] ^ (1u << bit));
        ASSERT_NE(EnvelopeChecksum(words.data(), length), checksum)
            << "length " << length << " byte " << byte << " bit " << bit;
        words[byte] = static_cast<uint8_t>(words[byte] ^ (1u << bit));
      }
    }
  }
}

// --- Row kernel builds ------------------------------------------------------------

Bytes RandomBytes(Rng& rng, size_t size) {
  Bytes bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

// The rows written from their definition, one block at a time through the
// Key-taking XteaEncryptBlock and XteaDecryptBlock: block i is chained to
// block i of `chain` in the first row and to ciphertext block i - 32 after it.
const uint8_t* ReferenceChainBlock(const Bytes& chain, const Bytes& cipher, size_t i) {
  return i < kReferenceLanes ? chain.data() + kBlockSize * i
                             : cipher.data() + kBlockSize * (i - kReferenceLanes);
}

Bytes ReferenceEncryptRows(const Key& key, const Bytes& chain, const Bytes& plain) {
  Bytes cipher = plain;
  for (size_t i = 0; i < plain.size() / kBlockSize; ++i) {
    uint8_t* block = cipher.data() + kBlockSize * i;
    const uint8_t* back = ReferenceChainBlock(chain, cipher, i);
    for (int j = 0; j < kBlockSize; ++j) block[j] ^= back[j];
    XteaEncryptBlock(key, block);
  }
  return cipher;
}

Bytes ReferenceDecryptRows(const Key& key, const Bytes& chain, const Bytes& cipher) {
  Bytes plain(cipher.size());
  for (size_t i = 0; i < cipher.size() / kBlockSize; ++i) {
    uint32_t words[2] = {LoadWord(cipher.data() + kBlockSize * i),
                         LoadWord(cipher.data() + kBlockSize * i + 4)};
    XteaDecryptBlock(key, words);
    const uint8_t* back = ReferenceChainBlock(chain, cipher, i);
    StoreWord(words[0] ^ LoadWord(back), plain.data() + kBlockSize * i);
    StoreWord(words[1] ^ LoadWord(back + 4), plain.data() + kBlockSize * i + 4);
  }
  return plain;
}

// Each build of the row kernel this CPU can run, called directly.
class XteaRowsTest : public ::testing::TestWithParam<rows::Level> {
 protected:
  void SetUp() override {
    if (!rows::CpuSupports(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << build().name << " build";
    }
  }
  const rows::Build& build() const { return rows::BuildFor(GetParam()); }
};

TEST_P(XteaRowsTest, MatchesBlockAtATime) {
  // Every last-row width of 1-32 blocks, after 0-4 whole rows, chained to a
  // random first row and to none (zeros).
  Rng rng(0x7ea5);
  const Bytes zeros(kReferenceLanes * kBlockSize, 0);
  for (size_t whole_rows = 0; whole_rows < 5; ++whole_rows) {
    for (size_t last = 1; last <= kReferenceLanes; ++last) {
      const size_t blocks = whole_rows * kReferenceLanes + last;
      Key key;
      for (uint8_t& b : key.bytes) b = static_cast<uint8_t>(rng.NextU64());
      const XteaSchedule schedule(key);
      const Bytes chain = RandomBytes(rng, kReferenceLanes * kBlockSize);
      const Bytes plain = RandomBytes(rng, blocks * kBlockSize);
      for (const uint8_t* first_row : {chain.data(), static_cast<const uint8_t*>(nullptr)}) {
        const Bytes& reference_chain = first_row != nullptr ? chain : zeros;
        const Bytes expected = ReferenceEncryptRows(key, reference_chain, plain);
        Bytes cipher = plain;
        build().encrypt(schedule, first_row, cipher.data(), blocks);
        ASSERT_EQ(cipher, expected) << build().name << ", " << blocks << " blocks";
        ASSERT_EQ(ReferenceDecryptRows(key, reference_chain, cipher), plain);
        Bytes opened(plain.size());
        build().decrypt(schedule, first_row, cipher.data(), opened.data(), blocks);
        ASSERT_EQ(opened, plain) << build().name << ", " << blocks << " blocks";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, XteaRowsTest, ::testing::ValuesIn(rows::kLevels),
                         [](const ::testing::TestParamInfo<rows::Level>& p) {
                           std::string name = rows::BuildFor(p.param).name;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(XteaRowsDispatchTest, PicksWidestBuildTheCpuSupports) {
  const rows::Level widest = __builtin_cpu_supports("x86-64-v4")   ? rows::Level::kV4
                             : __builtin_cpu_supports("x86-64-v3") ? rows::Level::kV3
                                                                   : rows::Level::kBaseline;
  EXPECT_EQ(&rows::ActiveBuild(), &rows::BuildFor(widest))
      << "runs " << rows::ActiveBuild().name << ", widest is " << rows::BuildFor(widest).name;
  EXPECT_TRUE(rows::CpuSupports(rows::Level::kBaseline));
  for (rows::Level level : rows::kLevels) {
    EXPECT_EQ(rows::CpuSupports(level), level <= widest) << rows::BuildFor(level).name;
  }
}

TEST(XteaRowsDispatchTest, EachLevelHasItsOwnBuild) {
  for (rows::Level a : rows::kLevels) {
    for (rows::Level b : rows::kLevels) {
      if (a == b) continue;
      EXPECT_NE(rows::BuildFor(a).encrypt, rows::BuildFor(b).encrypt)
          << rows::BuildFor(a).name << " and " << rows::BuildFor(b).name;
      EXPECT_NE(rows::BuildFor(a).decrypt, rows::BuildFor(b).decrypt)
          << rows::BuildFor(a).name << " and " << rows::BuildFor(b).name;
    }
  }
}

TEST(XteaRowsDispatchTest, ConcurrentFirstCallsAgree) {
  // Run in a process of its own, as ctest runs each test, the threads race
  // to make the process's first dispatched call, the way shard threads do.
  const Key key = TestKey(0x5c);
  const Bytes plain(1000, 0x42);
  std::vector<Bytes> sealed(4);
  std::vector<std::thread> threads;
  for (Bytes& out : sealed) {
    threads.emplace_back([&key, &plain, &out] { out = Seal(key, plain, 7); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Bytes& out : sealed) EXPECT_EQ(out, ReferenceSeal(key, plain, 7));
}

// --- Handshake ----------------------------------------------------------------------

class HandshakeTest : public ::testing::Test {
 protected:
  static constexpr UserId kUser = 4711;
  Key user_key_ = DeriveKeyFromPassword("rosebud", "realm");

  ServerHandshake::KeyLookup LookupFor(UserId user, const Key& key) {
    return [user, key](UserId who) -> std::optional<Key> {
      if (who == user) return key;
      return std::nullopt;
    };
  }
};

TEST_F(HandshakeTest, MutualAuthenticationSucceeds) {
  ClientHandshake client(kUser, user_key_, /*nonce_seed=*/111);
  ServerHandshake server(LookupFor(kUser, user_key_), /*nonce_seed=*/222);

  Bytes m1 = client.Start();
  auto m2 = server.HandleHello(m1);
  ASSERT_TRUE(m2.ok());
  auto m3 = client.HandleChallenge(*m2);
  ASSERT_TRUE(m3.ok());
  auto m4 = server.HandleResponse(*m3);
  ASSERT_TRUE(m4.ok());
  auto secret = client.HandleSessionGrant(*m4);
  ASSERT_TRUE(secret.ok());

  EXPECT_TRUE(server.done());
  EXPECT_EQ(server.user(), kUser);
  EXPECT_EQ(*secret, server.secret());
  EXPECT_NE(secret->session_key, user_key_);
}

TEST_F(HandshakeTest, UnknownUserRejected) {
  ClientHandshake client(9999, user_key_, 1);
  ServerHandshake server(LookupFor(kUser, user_key_), 2);
  EXPECT_EQ(server.HandleHello(client.Start()).status(), Status::kAuthFailed);
}

TEST_F(HandshakeTest, ClientWithWrongKeyRejected) {
  ClientHandshake client(kUser, DeriveKeyFromPassword("wrong", "realm"), 1);
  ServerHandshake server(LookupFor(kUser, user_key_), 2);
  Bytes m1 = client.Start();
  // The server cannot decrypt the client's nonce, so the handshake dies
  // either at the hello or at the response check.
  auto m2 = server.HandleHello(m1);
  if (m2.ok()) {
    auto m3 = client.HandleChallenge(*m2);
    if (m3.ok()) {
      EXPECT_EQ(server.HandleResponse(*m3).status(), Status::kAuthFailed);
    } else {
      EXPECT_EQ(m3.status(), Status::kAuthFailed);
    }
  } else {
    EXPECT_EQ(m2.status(), Status::kAuthFailed);
  }
}

TEST_F(HandshakeTest, ServerImpersonatorDetectedByClient) {
  // A fake server that does not know the user key cannot produce Xr+1.
  ClientHandshake client(kUser, user_key_, 3);
  const Key fake_key = DeriveKeyFromPassword("not-the-key", "realm");
  ServerHandshake impostor(LookupFor(kUser, fake_key), 4);
  Bytes m1 = client.Start();
  auto m2 = impostor.HandleHello(m1);
  if (m2.ok()) {
    EXPECT_EQ(client.HandleChallenge(*m2).status(), Status::kAuthFailed);
  }
}

TEST_F(HandshakeTest, ReplayedHelloYieldsDifferentSessionKeys) {
  ClientHandshake c1(kUser, user_key_, 10);
  ClientHandshake c2(kUser, user_key_, 20);
  ServerHandshake s1(LookupFor(kUser, user_key_), 30);
  ServerHandshake s2(LookupFor(kUser, user_key_), 31);

  auto run = [&](ClientHandshake& c, ServerHandshake& s) {
    auto m2 = s.HandleHello(c.Start());
    auto m3 = c.HandleChallenge(*m2);
    auto m4 = s.HandleResponse(*m3);
    return *c.HandleSessionGrant(*m4);
  };
  EXPECT_NE(run(c1, s1).session_key, run(c2, s2).session_key);
}

TEST_F(HandshakeTest, OutOfOrderMessagesRejected) {
  ClientHandshake client(kUser, user_key_, 5);
  ServerHandshake server(LookupFor(kUser, user_key_), 6);
  // Response before hello.
  EXPECT_EQ(server.HandleResponse(Bytes{1, 2, 3}).status(), Status::kProtocolError);
  // Grant before challenge.
  EXPECT_EQ(client.HandleSessionGrant(Bytes{1, 2, 3}).status(), Status::kProtocolError);
}

}  // namespace
}  // namespace itc::crypto
