#include "src/common/content.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/common/rng.h"

namespace itc::content {

namespace {

std::atomic<bool> g_canonicalize{true};

// Phases whose first stream byte is a given character: the candidate set a
// recognizer must verify. Built once; the alphabet repeats characters, so a
// first byte can admit several candidate phases.
const std::vector<std::vector<uint8_t>>& CandidatePhases() {
  static const std::vector<std::vector<uint8_t>>* table = [] {
    auto* t = new std::vector<std::vector<uint8_t>>(256);
    for (uint64_t p = 0; p < kPeriod; ++p) {
      (*t)[static_cast<uint8_t>(kAlphabet[p])].push_back(static_cast<uint8_t>(p));
    }
    return t;
  }();
  return *table;
}

// Bytes the stream is copied or compared in at a time.
constexpr uint64_t kChunk = 4096;

// The generative stream at phase 0, one chunk plus one period long: it holds
// the next chunk of every phase as a window, so bytes at any phase are
// copied or matched a chunk at a time.
const uint8_t* PhaseZeroStream() {
  static const Bytes* const stream = [] {
    auto* s = new Bytes(kChunk + kPeriod);
    for (uint64_t i = 0; i < s->size(); ++i) {
      (*s)[i] = static_cast<uint8_t>(kAlphabet[i % kPeriod]);
    }
    return s;
  }();
  return stream->data();
}

// Appends the generative stream bytes [offset, offset+n) for `phase` to
// `out`, a chunk at a time.
void AppendSynthesized(uint64_t phase, uint64_t offset, uint64_t n, Bytes& out) {
  // Shifting the phase by the offset reduces "bytes [offset, offset+n)" to
  // "the first n bytes at a different phase".
  const uint64_t p = (phase + offset) % kPeriod;
  for (uint64_t i = 0; i < n;) {
    const uint8_t* from = PhaseZeroStream() + (p + i) % kPeriod;
    const uint64_t len = std::min(kChunk, n - i);
    out.insert(out.end(), from, from + len);
    i += len;
  }
}

// Length of the longest prefix of [data, data+n) matching the generative
// stream at `phase`. It scans bytes only inside the chunk that differs.
uint64_t MatchLength(const uint8_t* data, uint64_t n, uint64_t phase) {
  for (uint64_t i = 0; i < n;) {
    const uint8_t* want = PhaseZeroStream() + (i + phase) % kPeriod;
    const uint64_t len = std::min(kChunk, n - i);
    if (std::memcmp(data + i, want, len) != 0) {
      uint64_t j = 0;
      while (data[i + j] == want[j]) ++j;
      return i + j;
    }
    i += len;
  }
  return n;
}

}  // namespace

void SetCanonicalizationEnabled(bool enabled) {
  g_canonicalize.store(enabled, std::memory_order_relaxed);
}

bool CanonicalizationEnabled() { return g_canonicalize.load(std::memory_order_relaxed); }

uint64_t HashBytes(const uint8_t* data, size_t n) {
  uint64_t h = kFnvOffsetBasis;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

Bytes Synthesize(uint64_t phase, uint64_t offset, uint64_t n) {
  Bytes out;
  out.reserve(n);
  AppendSynthesized(phase, offset, n, out);
  return out;
}

Ref Ref::Generative(uint64_t phase, uint64_t size) {
  Ref r;
  r.phase_ = phase % kPeriod;
  r.gen_len_ = size;
  return r;
}

Ref Ref::ForSeed(uint64_t seed, uint64_t size) {
  // Exactly workload::SynthesizeContents's phase draw, so refs and the
  // legacy generator produce interchangeable bytes for the same seed.
  Rng rng(seed);
  return Generative(rng.Below(kPeriod), size);
}

Ref Ref::Inline(Bytes bytes) {
  Ref r;
  if (bytes.empty()) return r;
  if (CanonicalizationEnabled()) {
    r.tail_ = Store::Global().Intern(std::move(bytes));
  } else {
    r.tail_ = std::make_shared<const Bytes>(std::move(bytes));
  }
  return r;
}

Ref Ref::Canonicalize(Bytes bytes) {
  if (!CanonicalizationEnabled() || bytes.size() < kMinGenerativePrefix) {
    return Inline(std::move(bytes));
  }
  uint64_t best_phase = 0;
  uint64_t best_len = 0;
  for (uint8_t p : CandidatePhases()[bytes[0]]) {
    const uint64_t len = MatchLength(bytes.data(), bytes.size(), p);
    if (len > best_len) {
      best_len = len;
      best_phase = p;
    }
  }
  if (best_len < kMinGenerativePrefix) return Inline(std::move(bytes));
  Ref r;
  r.phase_ = best_phase;
  r.gen_len_ = best_len;
  if (best_len < bytes.size()) {
    r.tail_ = Store::Global().Intern(Bytes(bytes.begin() + static_cast<ptrdiff_t>(best_len),
                                           bytes.end()));
  }
  return r;
}

Bytes Ref::Materialize() const { return Slice(0, size()); }

void Ref::AppendTo(Bytes& out) const {
  AppendSynthesized(phase_, 0, gen_len_, out);
  if (tail_ != nullptr) out.insert(out.end(), tail_->begin(), tail_->end());
}

std::shared_ptr<const Bytes> Ref::Buffer() const {
  if (gen_len_ == 0 && tail_ != nullptr) return tail_;
  return std::make_shared<const Bytes>(Materialize());
}

Bytes Ref::Slice(uint64_t offset, uint64_t n) const {
  const uint64_t total = size();
  if (offset >= total) return Bytes{};
  n = std::min(n, total - offset);
  Bytes out;
  if (offset < gen_len_) {
    const uint64_t gen_take = std::min(n, gen_len_ - offset);
    out.reserve(n);
    AppendSynthesized(phase_, offset, gen_take, out);
    if (gen_take < n) {
      out.insert(out.end(), tail_->begin(), tail_->begin() + static_cast<ptrdiff_t>(n - gen_take));
    }
    return out;
  }
  const uint64_t tail_off = offset - gen_len_;
  out.assign(tail_->begin() + static_cast<ptrdiff_t>(tail_off),
             tail_->begin() + static_cast<ptrdiff_t>(tail_off + n));
  return out;
}

bool Ref::SameContent(const Ref& other) const {
  if (size() != other.size()) return false;
  if (phase_ == other.phase_ && gen_len_ == other.gen_len_) {
    if (tail_ == other.tail_) return true;
    if (tail_ != nullptr && other.tail_ != nullptr) return *tail_ == *other.tail_;
    return tail_ == nullptr && other.tail_ == nullptr;
  }
  // Representations differ (e.g. one side canonicalized, the other inline):
  // fall back to byte comparison.
  return Materialize() == other.Materialize();
}

uint64_t Ref::RetainedBytes(std::unordered_set<const void*>* seen) const {
  if (tail_ == nullptr) return 0;
  if (seen != nullptr && !seen->insert(tail_.get()).second) return 0;
  return tail_->size();
}

Store& Store::Global() {
  static Store* store = new Store();
  return *store;
}

std::shared_ptr<const Bytes> Store::Intern(Bytes bytes) {
  const uint64_t h = HashBytes(bytes.data(), bytes.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto& bucket = buckets_[h];
  for (const auto& weak : bucket) {
    if (auto live = weak.lock(); live != nullptr && *live == bytes) return live;
  }
  auto owned = std::make_shared<const Bytes>(std::move(bytes));
  bucket.push_back(owned);
  if (++interns_since_sweep_ >= 1024) SweepLocked();
  return owned;
}

void Store::SweepLocked() {
  interns_since_sweep_ = 0;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& vec = it->second;
    std::erase_if(vec, [](const std::weak_ptr<const Bytes>& w) { return w.expired(); });
    it = vec.empty() ? buckets_.erase(it) : std::next(it);
  }
}

size_t Store::live_buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [h, vec] : buckets_) {
    for (const auto& w : vec) n += w.expired() ? 0 : 1;
  }
  return n;
}

uint64_t Store::live_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [h, vec] : buckets_) {
    for (const auto& w : vec) {
      if (auto live = w.lock()) n += live->size();
    }
  }
  return n;
}

StringInterner& StringInterner::Global() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}

std::shared_ptr<const std::string> StringInterner::Intern(std::string_view s) {
  const uint64_t h = HashBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto& bucket = buckets_[h];
  for (const auto& weak : bucket) {
    if (auto live = weak.lock(); live != nullptr && *live == s) return live;
  }
  auto owned = std::make_shared<const std::string>(s);
  bucket.push_back(owned);
  if (++interns_since_sweep_ >= 1024) {
    interns_since_sweep_ = 0;
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      auto& vec = it->second;
      std::erase_if(vec, [](const std::weak_ptr<const std::string>& w) { return w.expired(); });
      it = vec.empty() ? buckets_.erase(it) : std::next(it);
    }
  }
  return owned;
}

size_t StringInterner::live_strings() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [h, vec] : buckets_) {
    for (const auto& w : vec) n += w.expired() ? 0 : 1;
  }
  return n;
}

}  // namespace itc::content
