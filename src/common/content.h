// Lazy generative file contents and content-addressed interning.
//
// The memory wall for a big simulated campus is file bytes: every populated
// home volume, every read-only system binary, and every workstation cache
// copy used to hold its contents as a materialized std::vector. Yet almost
// all of those bytes are synthetic — produced by workload::SynthesizeContents,
// whose output is fully determined by a tiny amount of state. This module
// makes that observation a first-class storage representation:
//
//   * content::Ref — a file's contents as a generative prefix (a phase into
//     the fixed synthesis alphabet plus a length; ~32 bytes regardless of
//     file size) followed by an optional inline tail of literal bytes.
//     Materialize()/Slice() reproduce the exact bytes on demand.
//   * content::Store — a process-wide content-addressed interning table
//     (hash of bytes -> weak_ptr), so identical buffers (the same system
//     binary cached by ten thousand workstations, or stored on replicated
//     server volumes) are held once per host process.
//
// The representation is invisible to the simulation: RPC payloads, disk
// charges, quota, and dump images are all accounted at the *logical* byte
// size. A fetched file travels from the server's volume to the Venus cache
// as the ref itself (rpc::Bulk); only code that needs real bytes — a sealed
// connection's envelope, user reads — materializes, transiently.
// Canonicalize() recognizes generative bytes by phase-matching the
// alphabet, so contents that do cross as bytes (sealed fetches, stores)
// collapse back to a ref at every at-rest layer. Every byte served is
// bit-identical to the materialized representation — pinned by
// tests/property/content_property_test.cc, which runs whole campus days
// with canonicalization forced off and compares.

#ifndef SRC_COMMON_CONTENT_H_
#define SRC_COMMON_CONTENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/types.h"

namespace itc::content {

// The synthesis alphabet. Byte i of a generative stream with phase p is
// kAlphabet[(i + p) % kPeriod]. This is exactly the pre-existing
// workload::SynthesizeContents stream (whose phase was drawn from the seed),
// so refs and the legacy byte generator are interchangeable.
inline constexpr char kAlphabet[] =
    "int main(void) { return 0; }\n/* vice */ #include <stdio.h>\n";
inline constexpr uint64_t kPeriod = sizeof(kAlphabet) - 1;

// Canonicalize() only classifies bytes as generative when at least one full
// alphabet period matches: beyond kPeriod bytes the phase is unambiguous
// (the alphabet is aperiodic), and shorter runs are not worth a split
// representation.
inline constexpr uint64_t kMinGenerativePrefix = kPeriod;

// Writes the generative stream bytes [offset, offset+n) for `phase` into a
// fresh buffer.
Bytes Synthesize(uint64_t phase, uint64_t offset, uint64_t n);

// Test hook: with canonicalization disabled, Canonicalize() keeps every
// buffer inline (the pre-diet materialized representation). Toggled only at
// test setup, never mid-simulation; simulated behaviour must be identical
// either way.
void SetCanonicalizationEnabled(bool enabled);
bool CanonicalizationEnabled();

// FNV-1a 64-bit over a byte range (the content-address hash).
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;
uint64_t HashBytes(const uint8_t* data, size_t n);

// A file's contents: `gen_len` generative bytes at `phase`, then `tail`
// literal bytes. Either half may be empty. Immutable and cheaply copyable;
// the tail buffer is shared (and usually interned in Store::Global()).
class Ref {
 public:
  Ref() = default;  // empty contents

  // Purely generative contents of `size` bytes at `phase`.
  static Ref Generative(uint64_t phase, uint64_t size);
  // Generative contents whose phase is drawn from `seed` exactly as
  // workload::SynthesizeContents(seed, size) draws it.
  static Ref ForSeed(uint64_t seed, uint64_t size);
  // Literal contents, interned but never phase-matched.
  static Ref Inline(Bytes bytes);
  // Recognizes a generative prefix (when enabled) and interns the rest.
  // ForSeed(s, n).Materialize() canonicalizes back to ForSeed(s, n).
  static Ref Canonicalize(Bytes bytes);

  uint64_t size() const { return gen_len_ + (tail_ ? tail_->size() : 0); }
  bool empty() const { return size() == 0; }
  uint64_t gen_len() const { return gen_len_; }
  uint64_t phase() const { return phase_; }
  const std::shared_ptr<const Bytes>& tail() const { return tail_; }

  // The full contents as literal bytes (a fresh buffer).
  Bytes Materialize() const;
  // Appends the full contents to `out`, with no buffer between.
  void AppendTo(Bytes& out) const;
  // The full contents as one immutable buffer: the shared tail itself when
  // there is no generative prefix (no copy), else a fresh materialization.
  std::shared_ptr<const Bytes> Buffer() const;
  // Bytes [offset, offset+n), clamped to size().
  Bytes Slice(uint64_t offset, uint64_t n) const;

  // Byte equality, without materializing when representations line up.
  bool SameContent(const Ref& other) const;

  // Host bytes retained by this ref's buffers. Shared buffers are counted
  // once across every ref probed with the same `seen` set (that is the
  // dedup-aware campus accounting used by bench_memory_per_client).
  uint64_t RetainedBytes(std::unordered_set<const void*>* seen) const;

 private:
  uint64_t phase_ = 0;
  uint64_t gen_len_ = 0;
  std::shared_ptr<const Bytes> tail_;  // null = purely generative (or empty)
};

// Process-wide content-addressed store: interns immutable byte buffers by
// content hash so identical contents share one allocation. Entries are weak;
// a buffer lives exactly as long as some Ref (or cache) holds it. Thread
// safety matters because sharded kernels canonicalize concurrently — the
// mutex is host-level only and cannot affect simulated behaviour.
class Store {
 public:
  static Store& Global();

  std::shared_ptr<const Bytes> Intern(Bytes bytes);

  // Diagnostics for tests/benches.
  size_t live_buffers() const;
  uint64_t live_bytes() const;

 private:
  void SweepLocked();

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<std::weak_ptr<const Bytes>>> buckets_;
  size_t interns_since_sweep_ = 0;
};

// Interning for small repeated strings (volume names, derived cache paths)
// kept once per process instead of once per workstation.
class StringInterner {
 public:
  static StringInterner& Global();
  std::shared_ptr<const std::string> Intern(std::string_view s);
  size_t live_strings() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<std::weak_ptr<const std::string>>> buckets_;
  size_t interns_since_sweep_ = 0;
};

}  // namespace itc::content

#endif  // SRC_COMMON_CONTENT_H_
