// Vice vnodes: the server-side representation of shared files.
//
// Every Vice file, directory, or symlink is a vnode inside a volume,
// identified by a Fid (volume, vnode, uniquifier). Directories are stored as
// interpretable file data (SerializeDirectory) so that Venus can cache a
// directory like any other file and traverse pathnames itself — the revised
// implementation's client-side name resolution (Section 5.3).
//
// A directory entry may be a mount point naming another volume's root; this
// is how volumes stitch into the single shared name space while remaining
// invisible to Virtue application programs (Section 5.3: "volumes will not
// be visible to Virtue application programs; they will only be visible at
// the Vice-Virtue interface").

#ifndef SRC_VICE_VNODE_H_
#define SRC_VICE_VNODE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/common/fid.h"
#include "src/common/result.h"
#include "src/common/types.h"

namespace itc::vice {

enum class VnodeType : uint8_t { kFile, kDirectory, kSymlink };

// Status information for a vnode — what FetchStatus returns and what Venus
// caches alongside file data. `version` is the data version number, bumped
// on every mutation; cache validation compares versions (the prototype
// compared timestamps, which is equivalent under a virtual clock but
// version numbers are immune to clock granularity).
struct VnodeStatus {
  Fid fid;
  VnodeType type = VnodeType::kFile;
  uint64_t length = 0;
  uint64_t version = 0;
  SimTime mtime = 0;
  UserId owner = kAnonymousUser;
  uint16_t mode = 0644;  // per-file Unix protection bits (revised impl)
  uint32_t link_count = 1;
  Fid parent;  // enclosing directory (kNullFid for a volume root)

  friend bool operator==(const VnodeStatus&, const VnodeStatus&) = default;
};

// One directory entry as stored in serialized directory data.
struct DirItem {
  enum class Kind : uint8_t { kFile, kDirectory, kSymlink, kMountPoint };

  Kind kind = Kind::kFile;
  Fid fid;                               // valid unless kMountPoint
  VolumeId mount_volume = kInvalidVolume;  // valid only for kMountPoint

  friend bool operator==(const DirItem&, const DirItem&) = default;
};

using DirMap = std::map<std::string, DirItem>;

// Directory data encoding shared by Vice (producer) and Venus (consumer).
Bytes SerializeDirectory(const DirMap& entries);
[[nodiscard]] Result<DirMap> DeserializeDirectory(const Bytes& data);
// The entry `name` of serialized directory `data`, found without building
// the map: what a pathname walk needs at each step. Validates the whole
// buffer exactly as DeserializeDirectory does (kProtocolError), lets the
// first of duplicate names win, and reports an absent name as kNotFound.
[[nodiscard]] Result<DirItem> LookupDirectory(const Bytes& data, std::string_view name);

// Root vnode convention: every volume's root directory is vnode 1,
// uniquifier 1.
inline Fid VolumeRootFid(VolumeId v) { return Fid{v, 1, 1}; }

}  // namespace itc::vice

#endif  // SRC_VICE_VNODE_H_
