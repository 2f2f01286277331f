// The replicated location database (Section 3.1).
//
// "Each cluster server contains a complete copy of a location database that
//  maps files to Custodians... The size of the replicated location database
//  is relatively small because custodianship is on a subtree basis."
//
// The subtree unit is the volume. The master copy lives in the
// VolumeRegistry; every server holds an immutable snapshot, replaced by a
// fresh one on the (rare, human-initiated) occasions the database changes —
// the paper's "avoid frequent, system-wide rapid change" principle. The
// volume map shares structure between snapshots (src/common/shared_map.h),
// so publishing one costs O(1) and a change O(log volumes) on the host.

#ifndef SRC_VICE_LOCATION_DB_H_
#define SRC_VICE_LOCATION_DB_H_

#include <optional>

#include "src/common/shared_map.h"
#include "src/common/types.h"
#include "src/vice/protocol.h"

namespace itc::vice {

struct LocationDb {
  SharedMap<VolumeId, VolumeInfo> volumes;
  VolumeId root_volume = kInvalidVolume;
  uint64_t version = 0;

  std::optional<VolumeInfo> Find(VolumeId v) const {
    const VolumeInfo* info = volumes.Find(v);
    if (info == nullptr) return std::nullopt;
    return *info;
  }
};

}  // namespace itc::vice

#endif  // SRC_VICE_LOCATION_DB_H_
