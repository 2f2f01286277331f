#include "src/rpc/call_stats.h"

#include <algorithm>
#include <bit>
#include <cstddef>

namespace itc::rpc {

std::string_view CallClassName(CallClass c) {
  switch (c) {
    case CallClass::kValidate: return "validate";
    case CallClass::kStatus: return "status";
    case CallClass::kFetch: return "fetch";
    case CallClass::kStore: return "store";
    case CallClass::kOther: return "other";
  }
  return "?";
}

namespace {
int BucketFor(SimTime latency) {
  if (latency <= 0) return 0;
  int b = std::bit_width(static_cast<uint64_t>(latency));
  return std::min(b, LatencyHistogram::kBuckets - 1);
}
}  // namespace

void LatencyHistogram::Record(SimTime latency) {
  if (latency < 0) latency = 0;
  buckets_[BucketFor(latency)] += 1;
  if (count_ == 0 || latency < min_) min_ = latency;
  if (latency > max_) max_ = latency;
  sum_ += latency;
  count_ += 1;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

void LatencyHistogram::Reset() { *this = LatencyHistogram(); }

double LatencyHistogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

SimTime LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Upper bound of bucket i is 2^i - 1 micros (bucket 0 holds zeros).
      SimTime upper = (i == 0) ? 0 : static_cast<SimTime>((uint64_t{1} << i) - 1);
      return std::min(upper, max_);
    }
  }
  return max_;
}

size_t CallStats::LowerBound(uint32_t opcode) const {
  const auto it = std::lower_bound(rows_.begin(), rows_.end(), opcode,
                                   [](const Row& row, uint32_t code) { return row.first < code; });
  return static_cast<size_t>(it - rows_.begin());
}

OpStats& CallStats::RowFor(uint32_t opcode) {
  const size_t at = LowerBound(opcode);
  if (at < rows_.size() && rows_[at].first == opcode) return rows_[at].second;
  // Grow by one row, not by doubling: a row is ~0.5 KB and every Venus keeps
  // a table of a few.
  if (rows_.size() == rows_.capacity()) rows_.reserve(rows_.size() + 1);
  return rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(at), Row{opcode, OpStats{}})
      ->second;
}

void CallStats::Record(uint32_t opcode, std::string_view name, CallClass call_class,
                       SimTime latency, uint64_t bytes_in, uint64_t bytes_out,
                       Status outcome) {
  OpStats& op = RowFor(opcode);
  op.name = name;
  op.call_class = call_class;
  op.calls += 1;
  op.bytes_in += bytes_in;
  op.bytes_out += bytes_out;
  op.latency.Record(latency);
  if (outcome != Status::kOk) {
    op.errors += 1;
    op.error_codes[outcome] += 1;
  }
}

const OpStats* CallStats::Find(uint32_t opcode) const {
  const size_t at = LowerBound(opcode);
  return at < rows_.size() && rows_[at].first == opcode ? &rows_[at].second : nullptr;
}

uint64_t CallStats::total_calls() const {
  uint64_t n = 0;
  for (const auto& [op, s] : rows_) n += s.calls;
  return n;
}

uint64_t CallStats::total_errors() const {
  uint64_t n = 0;
  for (const auto& [op, s] : rows_) n += s.errors;
  return n;
}

uint64_t CallStats::total_bytes_in() const {
  uint64_t n = 0;
  for (const auto& [op, s] : rows_) n += s.bytes_in;
  return n;
}

uint64_t CallStats::total_bytes_out() const {
  uint64_t n = 0;
  for (const auto& [op, s] : rows_) n += s.bytes_out;
  return n;
}

std::map<CallClass, uint64_t> CallStats::Histogram() const {
  std::map<CallClass, uint64_t> h;
  for (const auto& [op, s] : rows_) h[s.call_class] += s.calls;
  return h;
}

void CallStats::Merge(const CallStats& other) {
  for (const auto& [op, s] : other.rows_) {
    OpStats& mine = RowFor(op);
    mine.name = s.name;
    mine.call_class = s.call_class;
    mine.calls += s.calls;
    mine.errors += s.errors;
    mine.bytes_in += s.bytes_in;
    mine.bytes_out += s.bytes_out;
    mine.latency.Merge(s.latency);
    for (const auto& [code, n] : s.error_codes) mine.error_codes[code] += n;
  }
}

}  // namespace itc::rpc
