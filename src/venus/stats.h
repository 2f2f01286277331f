// Venus client-side counters: one VenusStats per workstation, summed over
// workstations with operator+= for campus-wide totals.

#ifndef SRC_VENUS_STATS_H_
#define SRC_VENUS_STATS_H_

#include <cstdint>

#include "src/common/types.h"

namespace itc::venus {

struct VenusStats {
  uint64_t opens = 0;
  uint64_t cache_hits = 0;  // opens served without a Fetch
  uint64_t fetches = 0;
  uint64_t stores = 0;
  uint64_t validations = 0;  // Validate round trips (every scheme revalidates with it)
  uint64_t stat_calls = 0;
  uint64_t bytes_fetched = 0;
  uint64_t bytes_stored = 0;
  uint64_t callback_breaks_received = 0;
  // Times a server was marked suspect (restart detected or connection lost):
  // all its cached entries dropped back to check-on-open validation.
  uint64_t suspect_marks = 0;
  // Lease mode: grants piggybacked on replies, batched renewal calls, and
  // the per-fid outcomes of those batches.
  uint64_t lease_grants = 0;
  uint64_t lease_renew_calls = 0;
  uint64_t leases_renewed = 0;
  uint64_t leases_rejected = 0;
  // Total virtual time spent inside Open() — mean open latency is
  // open_time_total / opens.
  SimTime open_time_total = 0;

  double MeanOpenLatency() const {
    return opens == 0 ? 0.0
                      : static_cast<double>(open_time_total) / static_cast<double>(opens);
  }

  double HitRatio() const {
    return opens == 0 ? 0.0
                      : static_cast<double>(cache_hits) / static_cast<double>(opens);
  }

  // Field-by-field sum, for totals over workstations.
  VenusStats& operator+=(const VenusStats& o) {
    opens += o.opens;
    cache_hits += o.cache_hits;
    fetches += o.fetches;
    stores += o.stores;
    validations += o.validations;
    stat_calls += o.stat_calls;
    bytes_fetched += o.bytes_fetched;
    bytes_stored += o.bytes_stored;
    callback_breaks_received += o.callback_breaks_received;
    suspect_marks += o.suspect_marks;
    lease_grants += o.lease_grants;
    lease_renew_calls += o.lease_renew_calls;
    leases_renewed += o.leases_renewed;
    leases_rejected += o.leases_rejected;
    open_time_total += o.open_time_total;
    return *this;
  }
};

// A field added to VenusStats must join operator+= above; this fails the
// build until it does (and the count here is raised with it).
static_assert(sizeof(VenusStats) == 15 * sizeof(uint64_t),
              "VenusStats changed: update operator+= and this count");

}  // namespace itc::venus

#endif  // SRC_VENUS_STATS_H_
