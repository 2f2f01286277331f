// In-memory hierarchical Unix-like file system.
//
// This substrate plays three roles in the reproduction, mirroring how the
// real system layered on 4.2BSD file systems:
//   * the Root File System of every Virtue workstation (local name space),
//   * cache storage for Venus (cached Vice files live in a cache directory),
//   * backing store for Vice servers (each Vice file is physically a Unix
//     file; in prototype mode a companion ".admin" file carries Vice status,
//     exactly as Section 3.5.2 describes).
//
// Semantics follow Unix: hierarchical directories, hard links to regular
// files, symbolic links with component-wise resolution and a loop limit,
// rename that replaces an existing target, mode bits, link counts, and
// mtimes taken from an externally supplied virtual clock.

#ifndef SRC_UNIXFS_FILE_SYSTEM_H_
#define SRC_UNIXFS_FILE_SYSTEM_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <unordered_set>

#include "src/common/content.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace itc::unixfs {

using InodeNum = uint64_t;
inline constexpr InodeNum kRootInode = 1;

enum class FileType : uint8_t { kRegular, kDirectory, kSymlink };

// Largest file the substrate will hold. Matches the design envelope
// ("files up to a few megabytes", with headroom); also the bound that keeps
// client-supplied offset/size arithmetic from overflowing or exhausting
// memory.
inline constexpr uint64_t kMaxFileSize = 1ull << 30;  // 1 GiB

// Unix permission bits (subset: rwx for user/group/other).
using Mode = uint16_t;
inline constexpr Mode kDefaultFileMode = 0644;
inline constexpr Mode kDefaultDirMode = 0755;

struct StatInfo {
  InodeNum inode = 0;
  FileType type = FileType::kRegular;
  Mode mode = 0;
  uint32_t link_count = 0;
  uint64_t size = 0;
  UserId owner = kAnonymousUser;
  SimTime mtime = 0;
};

struct DirEntry {
  std::string name;
  InodeNum inode;
  FileType type;
};

class FileSystem {
 public:
  FileSystem();

  // The virtual clock used to stamp mtimes. Callers advance it; the file
  // system never advances time itself.
  void set_now(SimTime t) { now_ = t; }
  SimTime now() const { return now_; }

  // --- Path-level operations (absolute, '/'-separated paths) --------------

  // Resolves a path to an inode. When `follow_final_symlink` is false, a
  // trailing symlink component is returned itself rather than followed
  // (lstat-style). Intermediate symlinks are always followed.
  [[nodiscard]] Result<InodeNum> Resolve(std::string_view path, bool follow_final_symlink = true) const;

  [[nodiscard]] Result<StatInfo> Stat(std::string_view path) const;
  [[nodiscard]] Result<StatInfo> LStat(std::string_view path) const;

  [[nodiscard]] Result<InodeNum> Create(std::string_view path, Mode mode = kDefaultFileMode,
                          UserId owner = kAnonymousUser);
  [[nodiscard]] Status MkDir(std::string_view path, Mode mode = kDefaultDirMode,
               UserId owner = kAnonymousUser);
  // Creates every missing directory along `path`.
  [[nodiscard]] Status MkDirAll(std::string_view path, Mode mode = kDefaultDirMode,
                  UserId owner = kAnonymousUser);
  [[nodiscard]] Status Symlink(std::string_view target, std::string_view link_path);
  [[nodiscard]] Result<std::string> ReadLink(std::string_view path) const;
  [[nodiscard]] Status HardLink(std::string_view existing, std::string_view new_path);
  [[nodiscard]] Status Unlink(std::string_view path);
  [[nodiscard]] Status RmDir(std::string_view path);
  // Recursively removes a subtree (not a Unix primitive; used by tests and
  // by Venus cache management).
  [[nodiscard]] Status RemoveAll(std::string_view path);
  [[nodiscard]] Status Rename(std::string_view from, std::string_view to);
  [[nodiscard]] Result<std::vector<DirEntry>> ReadDir(std::string_view path) const;

  // Whole-file convenience I/O (the granularity Vice and Venus move data at).
  [[nodiscard]] Result<Bytes> ReadFile(std::string_view path) const;
  // Creates the file if absent; truncates and replaces contents. The bytes
  // are canonicalized, so a synthetic file's copy comes to rest as a ref.
  [[nodiscard]] Status WriteFile(std::string_view path, const Bytes& data);

  [[nodiscard]] Status Chmod(std::string_view path, Mode mode);
  [[nodiscard]] Status Chown(std::string_view path, UserId owner);
  // Sets mtime explicitly (used when Venus installs a cached copy and must
  // preserve the Vice timestamp).
  [[nodiscard]] Status SetMTime(std::string_view path, SimTime mtime);

  // --- Inode-level operations ----------------------------------------------
  // The revised Vice server accesses files "via their low-level identifiers
  // rather than their full Unix pathnames" (Section 3.5.1); these are those
  // low-level entry points.

  [[nodiscard]] Result<StatInfo> StatInode(InodeNum inode) const;
  [[nodiscard]] Result<Bytes> ReadFileByInode(InodeNum inode) const;
  // The same contents as the stored ref, without materializing them.
  [[nodiscard]] Result<content::Ref> ReadRefByInode(InodeNum inode) const;
  [[nodiscard]] Status WriteFileByInode(InodeNum inode, content::Ref data);
  // Byte-range access (used by the remote-open baseline, Section 6).
  [[nodiscard]] Result<Bytes> ReadAt(InodeNum inode, uint64_t offset, uint64_t length) const;
  [[nodiscard]] Status WriteAt(InodeNum inode, uint64_t offset, const Bytes& data);
  [[nodiscard]] Status Truncate(InodeNum inode, uint64_t size);

  // --- Accounting -----------------------------------------------------------
  // Logical bytes of file contents (the simulated local-disk usage; cache
  // space limits are enforced against this, not against host memory).
  uint64_t total_data_bytes() const { return total_data_bytes_; }
  uint64_t inode_count() const { return inodes_.size(); }
  // Host bytes actually retained for file contents, counting buffers shared
  // with other file systems / volumes once per `seen` set.
  uint64_t RetainedContentBytes(std::unordered_set<const void*>* seen) const;

 private:
  struct Inode {
    FileType type = FileType::kRegular;
    Mode mode = kDefaultFileMode;
    uint32_t link_count = 0;
    UserId owner = kAnonymousUser;
    SimTime mtime = 0;
    // Regular files. Stored as a lazy content ref (generative prefix +
    // interned tail) so a workstation's cached copy of a synthetic file
    // costs ~32 bytes of host memory; size()/accounting stay logical.
    content::Ref data;
    std::map<std::string, InodeNum> entries;  // directories (sorted for determinism)
    std::string symlink_target;               // symlinks
  };

  // Resolution result for the parent directory of a path's final component.
  struct ParentRef {
    InodeNum parent;
    std::string leaf;
  };

  [[nodiscard]] Result<InodeNum> ResolveInternal(std::string_view path, bool follow_final,
                                   int depth) const;
  // Resolves all but the last component; fails if the path names the root.
  [[nodiscard]] Result<ParentRef> ResolveParent(std::string_view path) const;
  // WriteFile's create-or-replace, storing `data` as it is.
  [[nodiscard]] Status WriteFileRef(std::string_view path, content::Ref data);

  Inode& Node(InodeNum n) { return inodes_.at(n); }
  const Inode& Node(InodeNum n) const { return inodes_.at(n); }
  StatInfo MakeStat(InodeNum n, const Inode& inode) const;
  InodeNum AllocInode(FileType type, Mode mode, UserId owner);
  void ReleaseData(Inode& inode);
  void UnlinkInode(InodeNum n);
  void RemoveTreeRecursive(InodeNum n);
  bool IsAncestorOf(InodeNum maybe_ancestor, InodeNum node) const;

  std::unordered_map<InodeNum, Inode> inodes_;
  InodeNum next_inode_ = kRootInode + 1;
  uint64_t total_data_bytes_ = 0;
  SimTime now_ = 0;
};

}  // namespace itc::unixfs

#endif  // SRC_UNIXFS_FILE_SYSTEM_H_
