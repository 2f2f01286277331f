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
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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

// The names of one serialized directory buffer, indexed once: what Venus's
// pathname walk steps and listings read. Building it validates the buffer
// exactly as DeserializeDirectory does; a malformed buffer makes every
// lookup return that error (kProtocolError). Each entry's offset is kept,
// stably sorted by name (a server-built buffer is already sorted), so Find
// is a binary search and the first of duplicate names wins, as in
// DeserializeDirectory's map.
class DirIndex {
 public:
  // The index of `buffer`, shared by every holder of that same buffer.
  // Buffers are one per directory version (the server builds each version's
  // bytes once, and sealed fetches are interned), so every workstation that
  // caches a version reads one index. Thread-safe: sharded kernels call it
  // concurrently.
  static std::shared_ptr<const DirIndex> Of(std::shared_ptr<const Bytes> buffer);

  explicit DirIndex(std::shared_ptr<const Bytes> buffer);

  // The entry `name`; kNotFound when absent.
  [[nodiscard]] Result<DirItem> Find(std::string_view name) const;
  // Every name once, in order (the keys of DeserializeDirectory's map).
  [[nodiscard]] Result<std::vector<std::string>> Names() const;
  // Bytes of the indexed buffer.
  uint64_t size() const { return buffer_->size(); }

 private:
  std::string_view NameAt(uint32_t offset) const;

  std::shared_ptr<const Bytes> buffer_;
  Status status_ = Status::kOk;
  // Offset of each entry's name-length field, sorted by name.
  std::vector<uint32_t> offsets_;
};

// Root vnode convention: every volume's root directory is vnode 1,
// uniquifier 1.
inline Fid VolumeRootFid(VolumeId v) { return Fid{v, 1, 1}; }

}  // namespace itc::vice

#endif  // SRC_VICE_VNODE_H_
