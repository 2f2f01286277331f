// Unit tests for the lazy generative content representation: phase
// compatibility with the legacy workload byte generator, canonicalization
// round-trips, slicing, byte equality across representations, and the
// content-addressed interning tables.

#include "src/common/content.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/workload/source_tree.h"

namespace itc::content {
namespace {

// RAII guard so a test that flips the canonicalization hook cannot leak the
// disabled state into later tests.
struct CanonGuard {
  explicit CanonGuard(bool enabled) { SetCanonicalizationEnabled(enabled); }
  ~CanonGuard() { SetCanonicalizationEnabled(true); }
};

TEST(ContentRef, ForSeedMatchesLegacyByteGenerator) {
  // A ref's bytes must equal the pre-diet SynthesizeContents stream: byte i
  // is kAlphabet[(i + phase) % kPeriod] with the phase drawn from the seed.
  for (uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    const uint64_t size = 1000 + seed % 7777;
    const Ref ref = Ref::ForSeed(seed, size);
    EXPECT_EQ(ref.size(), size);
    EXPECT_EQ(ref.phase(), Rng(seed).Below(kPeriod));
    const Bytes got = ref.Materialize();
    ASSERT_EQ(got.size(), size);
    for (uint64_t i = 0; i < size; ++i) {
      ASSERT_EQ(got[i], static_cast<uint8_t>(kAlphabet[(i + ref.phase()) % kPeriod]))
          << "seed " << seed << " byte " << i;
    }
    EXPECT_EQ(got, workload::SynthesizeContents(seed, size));
  }
}

TEST(ContentRef, CanonicalizeRecoversGenerativeRepresentation) {
  const Ref ref = Ref::ForSeed(7, 4096);
  const Ref round = Ref::Canonicalize(ref.Materialize());
  EXPECT_EQ(round.phase(), ref.phase());
  EXPECT_EQ(round.gen_len(), ref.gen_len());
  EXPECT_EQ(round.tail(), nullptr);  // fully recognized: no retained buffer
  EXPECT_TRUE(round.SameContent(ref));
  std::unordered_set<const void*> seen;
  EXPECT_EQ(round.RetainedBytes(&seen), 0u);
}

TEST(ContentRef, CanonicalizeSplitsPrefixAndLiteralTail) {
  Bytes data = Ref::ForSeed(3, 500).Materialize();
  const Bytes literal = ToBytes("\x01\x02literal tail that matches no phase\xff");
  data.insert(data.end(), literal.begin(), literal.end());

  const Ref ref = Ref::Canonicalize(Bytes(data));
  EXPECT_GE(ref.gen_len(), kMinGenerativePrefix);
  EXPECT_EQ(ref.size(), data.size());
  ASSERT_NE(ref.tail(), nullptr);
  EXPECT_LT(ref.tail()->size(), data.size());
  EXPECT_EQ(ref.Materialize(), data);
}

TEST(ContentRef, ShortOrForeignBytesStayInline) {
  // Shorter than one alphabet period: kept literal even if it matches.
  const Bytes short_gen = Ref::ForSeed(9, kMinGenerativePrefix - 1).Materialize();
  EXPECT_EQ(Ref::Canonicalize(Bytes(short_gen)).gen_len(), 0u);

  // Bytes that match no phase: kept literal, byte-identical round trip.
  const Bytes foreign = ToBytes("\xff\xfe\xfd completely unlike the alphabet");
  const Ref ref = Ref::Canonicalize(Bytes(foreign));
  EXPECT_EQ(ref.gen_len(), 0u);
  EXPECT_EQ(ref.Materialize(), foreign);
}

TEST(ContentRef, SliceMatchesMaterializeAtEveryOffset) {
  Bytes data = Ref::ForSeed(11, 300).Materialize();
  const Bytes literal = ToBytes("\x01\x02\x03opaque-tail-bytes\x7f");
  data.insert(data.end(), literal.begin(), literal.end());
  const Ref ref = Ref::Canonicalize(Bytes(data));
  ASSERT_EQ(ref.Materialize(), data);

  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    const uint64_t off = rng.Below(data.size() + 10);
    const uint64_t n = rng.Below(data.size() + 10);
    const Bytes slice = ref.Slice(off, n);
    const uint64_t want = off >= data.size() ? 0 : std::min(n, data.size() - off);
    ASSERT_EQ(slice.size(), want);
    for (uint64_t j = 0; j < want; ++j) ASSERT_EQ(slice[j], data[off + j]);
  }
}

TEST(ContentRef, SameContentAcrossRepresentations) {
  const Ref gen = Ref::ForSeed(5, 2048);
  const Ref inline_copy = Ref::Inline(gen.Materialize());  // never phase-matched
  EXPECT_EQ(inline_copy.gen_len(), 0u);
  EXPECT_TRUE(gen.SameContent(inline_copy));
  EXPECT_TRUE(inline_copy.SameContent(gen));

  Bytes other = gen.Materialize();
  other[100] ^= 0x40;
  EXPECT_FALSE(gen.SameContent(Ref::Inline(std::move(other))));
  EXPECT_FALSE(gen.SameContent(Ref::ForSeed(5, 2047)));  // size mismatch
}

TEST(ContentRef, BufferSharesALiteralTailAndMaterializesTheRest) {
  const Ref literal = Ref::Inline(ToBytes("a directory's bytes"));
  EXPECT_EQ(literal.Buffer(), literal.tail());  // no copy

  const Ref gen = Ref::ForSeed(5, 300);
  EXPECT_EQ(*gen.Buffer(), gen.Materialize());
  EXPECT_TRUE(Ref().Buffer()->empty());
}

TEST(ContentRef, DisabledCanonicalizationKeepsEverythingInline) {
  CanonGuard guard(false);
  const Bytes data = Ref::ForSeed(13, 4096).Materialize();
  const Ref ref = Ref::Canonicalize(Bytes(data));
  EXPECT_EQ(ref.gen_len(), 0u);  // the pre-diet materialized representation
  EXPECT_EQ(ref.Materialize(), data);
  std::unordered_set<const void*> seen;
  EXPECT_EQ(ref.RetainedBytes(&seen), data.size());
}

// Canonicalize's recognizer as it was before it matched in chunks: one byte
// and one modulo at a time, over every candidate phase of the first byte.
// Returns what the ref must hold: (phase, gen_len, tail bytes).
std::tuple<uint64_t, uint64_t, Bytes> ReferenceCanonical(const Bytes& data) {
  uint64_t best_phase = 0;
  uint64_t best_len = 0;
  for (uint64_t p = 0; data.size() >= kMinGenerativePrefix && p < kPeriod; ++p) {
    if (static_cast<uint8_t>(kAlphabet[p]) != data[0]) continue;
    uint64_t i = 0;
    while (i < data.size() && data[i] == static_cast<uint8_t>(kAlphabet[(i + p) % kPeriod])) {
      ++i;
    }
    if (i > best_len) {
      best_len = i;
      best_phase = p;
    }
  }
  if (best_len < kMinGenerativePrefix) return {0, 0, data};
  return {best_phase, best_len,
          Bytes(data.begin() + static_cast<ptrdiff_t>(best_len), data.end())};
}

void ExpectCanonicalMatchesReference(const Bytes& data, const std::string& what) {
  const Ref ref = Ref::Canonicalize(Bytes(data));
  const Bytes tail = ref.tail() != nullptr ? *ref.tail() : Bytes{};
  EXPECT_EQ(std::make_tuple(ref.phase(), ref.gen_len(), tail), ReferenceCanonical(data))
      << what;
}

TEST(ContentRef, CanonicalizeAgreesWithBytewiseMatcherAcrossChunkBoundaries) {
  // The matcher compares 4 KB chunks: cover lengths around one and two
  // chunks, and a byte flipped just before, at and after every boundary.
  constexpr uint64_t kChunk = 4096;
  for (uint64_t phase = 0; phase < kPeriod; ++phase) {
    for (uint64_t len : {57ull, 4095ull, 4096ull, 4097ull, 8191ull, 8192ull, 8193ull, 65593ull}) {
      const Bytes clean = Synthesize(phase, 0, len);
      ExpectCanonicalMatchesReference(clean, "phase " + std::to_string(phase) + " len " +
                                                 std::to_string(len));
      for (uint64_t boundary = kChunk; boundary <= len; boundary += kChunk) {
        for (uint64_t at : {boundary - 1, boundary, boundary + 1}) {
          if (at >= len) continue;
          Bytes flipped = clean;
          flipped[at] ^= 0x20;
          ExpectCanonicalMatchesReference(flipped, "phase " + std::to_string(phase) + " len " +
                                                       std::to_string(len) + " flip " +
                                                       std::to_string(at));
        }
      }
    }
  }
}

TEST(ContentStore, InternDedupsIdenticalBuffers) {
  // Two independently-built identical literal buffers must collapse to one
  // shared allocation (the ten-thousand-cached-copies-of-/bin/cc case).
  const Bytes payload = ToBytes("\x01\x02 the same system binary, twice \xff");
  const Ref a = Ref::Inline(Bytes(payload));
  const Ref b = Ref::Inline(Bytes(payload));
  ASSERT_NE(a.tail(), nullptr);
  EXPECT_EQ(a.tail().get(), b.tail().get());

  // Dedup-aware accounting counts the shared buffer once.
  std::unordered_set<const void*> seen;
  EXPECT_EQ(a.RetainedBytes(&seen) + b.RetainedBytes(&seen), payload.size());
}

TEST(ContentStore, BuffersDieWithTheirLastRef) {
  Store& store = Store::Global();
  const Bytes payload = ToBytes("\x7f transient buffer for lifetime check");
  const size_t before = store.live_buffers();
  {
    const Ref ref = Ref::Inline(Bytes(payload));
    EXPECT_GE(store.live_buffers(), before + 1);
  }
  // Entries are weak: dropping the last ref releases the buffer.
  EXPECT_EQ(store.live_buffers(), before);
}

TEST(StringInterner, DedupsRepeatedStrings) {
  auto a = StringInterner::Global().Intern("/vice/usr/alice/thesis.tex");
  auto b = StringInterner::Global().Intern("/vice/usr/alice/thesis.tex");
  auto c = StringInterner::Global().Intern("/vice/usr/bob/thesis.tex");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(*a, "/vice/usr/alice/thesis.tex");
}

}  // namespace
}  // namespace itc::content
