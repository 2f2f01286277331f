// Venus's on-disk whole-file cache.
//
// "Part of the disk on each workstation is used to store local files, while
//  the rest is used as a cache of files in Vice." (Section 3.2)
//
// Cached copies live as ordinary files in the workstation's local Unix file
// system under a cache directory, named by fid — exactly the prototype's
// representation. The cache tracks, per fid: the Vice status, the local
// inode of the cached copy, whether data is present and believed valid,
// whether a deferred write is pending, and LRU recency. Eviction honours
// either the prototype's file-count limit or the revised space limit.
//
// A copy is created in the cache directory's inode, and its path is used
// once, to unlink it at erase. Every read and write in between reaches it by
// its inode, the way the revised Vice server reaches files "via their
// low-level identifiers rather than their full Unix pathnames"
// (Section 3.5.1).
//
// A cached directory also keeps the name index of its data
// (vice::DirIndex), which pathname walks and listings read.

#ifndef SRC_VENUS_FILE_CACHE_H_
#define SRC_VENUS_FILE_CACHE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/fid.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/unixfs/file_system.h"
#include "src/venus/config.h"
#include "src/vice/vnode.h"

namespace itc::venus {

struct CacheEntry {
  vice::VnodeStatus status;
  // The cached copy in the local file system; set while has_data.
  unixfs::InodeNum inode = 0;
  // A directory's name index, of the data installed with it; shared by
  // every workstation that caches the same version.
  std::shared_ptr<const vice::DirIndex> dir_index;
  bool has_data = false;
  // Data (and status) known to be current: freshly fetched, validated this
  // open (check-on-open), or covered by an unbroken callback promise.
  bool valid = false;
  // Server that supplied (or last validated) this entry. When that server's
  // restart epoch changes, its callback promises died with it: every entry
  // from it is marked suspect (valid=false) and revalidated on next use.
  ServerId origin_server = kInvalidServer;
  // Lease mode only: the entry may be used without contacting the server
  // while `valid` holds AND virtual time is before this expiry. 0 = no
  // lease (grant refused, lease mode off, or the promise was surrendered).
  SimTime lease_expiry = 0;
  SimTime last_used = 0;
  uint32_t pin_count = 0;  // open handles; pinned entries are not evicted
  // Deferred-write-back mode only: the local copy holds changes not yet
  // stored to the custodian. Dirty entries are never evicted.
  bool dirty = false;
  // Bytes this entry contributes to the cache's space accounting. The
  // intercept layer writes the cached copy directly through the local file
  // system, so the real file size can drift from this until NoteLocalSize
  // resynchronizes (Venus calls it on close of a dirty file).
  uint64_t accounted_bytes = 0;
};

struct CacheStats {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t evicted_bytes = 0;
  uint64_t invalidations = 0;
};

class FileCache {
 public:
  FileCache(unixfs::FileSystem* local_fs, std::string cache_dir, const VenusConfig& config);

  CacheEntry* Find(const Fid& fid);
  const CacheEntry* Find(const Fid& fid) const;

  // Creates or refreshes an entry with status only (no data).
  CacheEntry& PutStatus(const Fid& fid, const vice::VnodeStatus& status);

  // Installs whole-file data for a fid, writing the local cache copy (the
  // fetched ref itself, not a copy of its bytes); the first install creates
  // the copy, later ones overwrite it by inode. A directory's entry gets the
  // index of the new data. Returns the entry; caller must then call
  // EnforceLimits and notify the custodian about any evicted fids.
  CacheEntry& InstallData(const Fid& fid, const vice::VnodeStatus& status, content::Ref data);

  // Reads the cached copy (entry must have data).
  [[nodiscard]] Result<Bytes> ReadData(const Fid& fid) const;
  // The cached copy as its stored ref, without materializing it.
  [[nodiscard]] Result<content::Ref> ReadRef(const Fid& fid) const;
  // Overwrites the cached copy in place (local writes before close).
  [[nodiscard]] Status WriteData(const Fid& fid, const Bytes& data);

  // Resynchronizes space accounting after the cached copy was mutated
  // directly through the local file system (dirty close path).
  void NoteLocalSize(const Fid& fid, uint64_t actual_bytes);

  // Marks an entry invalid (callback broken / validation failed). Data is
  // kept: a later Validate can resurrect it without refetching.
  void Invalidate(const Fid& fid);
  // Removes an entry and its cache file entirely.
  void Erase(const Fid& fid);
  // Invalidate everything (e.g. reconnection after a network partition).
  void InvalidateAll();

  void Touch(const Fid& fid, SimTime now);
  void Pin(const Fid& fid);
  void Unpin(const Fid& fid);

  // Evicts least-recently-used unpinned entries until the configured limit
  // holds. Returns the evicted fids (Venus tells the custodians to drop
  // their callback promises).
  std::vector<Fid> EnforceLimits();

  uint64_t data_bytes() const { return data_bytes_; }
  size_t entry_count() const { return entries_.size(); }
  size_t data_entry_count() const;
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  // All fids currently cached (diagnostics / tests).
  std::vector<Fid> CachedFids() const;

  // Local unixfs path of the cached copy for `fid`, used only to unlink it.
  // Derived from the fid on demand rather than stored per entry — at 10k
  // clients the per-entry path strings alone were a measurable share of
  // Venus's footprint.
  std::string PathFor(const Fid& fid) const;

 private:
  unixfs::FileSystem* local_fs_;
  std::string cache_dir_;
  unixfs::InodeNum cache_dir_inode_ = 0;
  VenusConfig config_;
  std::unordered_map<Fid, CacheEntry, FidHash> entries_;
  uint64_t data_bytes_ = 0;
  size_t data_entries_ = 0;  // entries with has_data (count-limit policy)
  CacheStats stats_;
};

}  // namespace itc::venus

#endif  // SRC_VENUS_FILE_CACHE_H_
