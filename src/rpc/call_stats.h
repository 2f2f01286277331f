// Per-operation call statistics for the RPC package (Section 3.6).
//
// The paper calls for "monitoring tools ... required to ease day-to-day
// operations of the system"; CallStats is the RPC layer's contribution:
// per-op count, bytes in/out, latency histogram, and error-code breakdown,
// labelled from the service's op schema (src/rpc/op_registry.h). Server
// endpoints own one CallStats and record each call they serve once, timed
// from its arrival; client stubs (Venus, the protection client) may own
// another and record each call once, timed over all its attempts and
// backoffs. Campus aggregates the server-side tables; bench_call_histogram
// prints them (EXPERIMENTS.md E1).

#ifndef SRC_RPC_CALL_STATS_H_
#define SRC_RPC_CALL_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace itc::rpc {

// The aggregate call categories of the prototype measurement in Section 5.2
// ("cache validity checking ... 65%, obtain file status ... 27%, fetch 4%,
// store 2%"). Defined at the RPC layer so every service's op schema can
// label its procedures; vice::CallClass is an alias of this.
enum class CallClass { kValidate, kStatus, kFetch, kStore, kOther };
std::string_view CallClassName(CallClass c);

// Power-of-two latency histogram over SimTime (microseconds). Bucket i
// counts latencies in [2^(i-1), 2^i); bucket 0 counts zero latency.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 48;

  void Record(SimTime latency);
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  SimTime min() const { return count_ ? min_ : 0; }
  SimTime max() const { return max_; }
  SimTime sum() const { return sum_; }
  double Mean() const;
  // Approximate percentile (p in [0,1]): the upper bound of the bucket
  // holding the p-th sample, clamped to the observed max.
  SimTime Percentile(double p) const;

  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  SimTime min_ = 0;
  SimTime max_ = 0;
  SimTime sum_ = 0;
};

// Everything recorded about one procedure.
struct OpStats {
  std::string_view name = "unknown";  // static string from the op schema
  CallClass call_class = CallClass::kOther;
  uint64_t calls = 0;
  uint64_t errors = 0;      // transport failures + non-OK application replies
  uint64_t bytes_in = 0;    // request payload bytes
  uint64_t bytes_out = 0;   // reply payload bytes
  LatencyHistogram latency;
  std::map<Status, uint64_t> error_codes;  // non-OK outcomes by status
};

class CallStats {
 public:
  // One procedure's row: (opcode, stats).
  using Row = std::pair<uint32_t, OpStats>;

  void Record(uint32_t opcode, std::string_view name, CallClass call_class,
              SimTime latency, uint64_t bytes_in, uint64_t bytes_out, Status outcome);

  // Every recorded procedure, in ascending opcode order. The rows are held
  // in a vector: the reference, its iterators and a pointer from Find() are
  // valid only until the next Record, Merge or Reset.
  const std::vector<Row>& per_op() const { return rows_; }
  const OpStats* Find(uint32_t opcode) const;

  uint64_t total_calls() const;
  uint64_t total_errors() const;
  uint64_t total_bytes_in() const;
  uint64_t total_bytes_out() const;

  // Collapses the per-op table into the paper's Section 5.2 call classes.
  std::map<CallClass, uint64_t> Histogram() const;

  void Merge(const CallStats& other);
  void Reset() { rows_.clear(); }

 private:
  // The index of the first row whose opcode is not below `opcode`.
  size_t LowerBound(uint32_t opcode) const;
  // The row of `opcode`, added in order if it has none.
  OpStats& RowFor(uint32_t opcode);

  std::vector<Row> rows_;  // ascending opcode
};

}  // namespace itc::rpc

#endif  // SRC_RPC_CALL_STATS_H_
