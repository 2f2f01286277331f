// Venus configuration: prototype vs revised client behaviour.

#ifndef SRC_VENUS_CONFIG_H_
#define SRC_VENUS_CONFIG_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/vice/protocol.h"

namespace itc::venus {

// Lease scheme only: when a live lease is within this margin of expiry, an
// open renews every aging lease from that server in one batched call. This
// is a legal literal site for a lease duration (the no-raw-lease-term lint
// rule pins every other site to this constant and vice::kLeaseTerm).
inline constexpr SimTime kLeaseRenewMargin = Seconds(10);

struct VenusConfig {
  // Cache validation scheme (Section 3.2), which the servers must share.
  // kCheckOnOpen is the prototype: a Validate RPC on every open of a cached
  // file. kCallbacks is the revised invalidate-on-modification scheme:
  // cached entries stay valid until the server breaks the callback promise.
  // kLeases is the third scheme (Gray & Cheriton): a callback promise with
  // an expiry — entries are trusted while their lease is live, renewed in
  // per-server batches, and fall back to check-on-open once the lease
  // lapses.
  vice::Validation validation = vice::Validation::kCallbacks;

  // Cache limit policy (Section 3.5.1). The prototype limited "the total
  // number of files in the cache rather than the total size ... In view of
  // our negative experience with this approach, we will incorporate a
  // space-limited cache management algorithm."
  enum class CacheLimit { kFileCount, kSpace };
  CacheLimit cache_limit = CacheLimit::kSpace;
  uint64_t max_cache_bytes = 20ull * 1024 * 1024;
  uint32_t max_cache_files = 400;

  // Pathname traversal side (Section 5.3). true = the revised scheme: Venus
  // caches directories and walks them itself, presenting fids to Vice.
  // false = the prototype: full pathnames go to the server (ResolvePath).
  bool client_path_traversal = true;

  // Write-back policy (Section 3.2): "Changes to a cached file may be
  // transmitted on close ... or deferred until a later time. In our design,
  // Virtue stores a file back when it is closed ... to simplify recovery
  // from workstation crashes [and for] a better approximation to a
  // timesharing file system." kDeferred implements the alternative the
  // paper rejected, for the ablation: stores coalesce until FlushDirty(),
  // logout, or the dirty queue reaching max_dirty_files.
  enum class WriteBack { kOnClose, kDeferred };
  WriteBack write_back = WriteBack::kOnClose;
  uint32_t max_dirty_files = 10;
};

// The prototype, as measured in Section 5.2.
inline VenusConfig PrototypeVenusConfig() {
  VenusConfig c;
  c.validation = vice::Validation::kCheckOnOpen;
  c.cache_limit = VenusConfig::CacheLimit::kFileCount;
  c.client_path_traversal = false;
  return c;
}

}  // namespace itc::venus

#endif  // SRC_VENUS_CONFIG_H_
