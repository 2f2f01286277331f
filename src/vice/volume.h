// Volumes: relocatable subtrees of Vice files (Section 5.3).
//
// "A volume is a complete subtree of files whose root may be arbitrarily
//  relocated in the Vice name space. It is thus similar to a mountable disk
//  pack... Each volume may be turned offline or online, moved between
//  servers and salvaged after a system crash. A volume may also be Cloned,
//  thereby creating a frozen, read-only replica... We will use copy-on-write
//  semantics to make cloning a relatively inexpensive operation."
//
// A Volume owns its vnode table. File data is held as a content::Ref — a
// lazy generative record plus a shared, interned literal tail — so a clone
// shares every byte with its parent until either side is written (the
// copy-on-write the paper calls for), and synthetic populated contents cost
// ~32 bytes however large the file. Quota, status lengths, and dump images
// are all accounted at the logical byte size; only code that needs real
// bytes (FetchData, Dump) materializes, transiently. A fetched directory's
// serialized entries are built once per version and shared with every
// fetcher (FetchRef). Volumes enforce quota (Section 3.6) and
// read-only-ness; protection checks belong to the FileServer above.

#ifndef SRC_VICE_VOLUME_H_
#define SRC_VICE_VOLUME_H_

#include <cstdint>
#include <memory>
#include <string>

#include <unordered_map>
#include <unordered_set>

#include "src/common/content.h"
#include "src/common/fid.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/protection/access_list.h"
#include "src/vice/vnode.h"

namespace itc::vice {

enum class VolumeType : uint8_t { kReadWrite, kReadOnly };

class Volume {
 public:
  // Fixed accounting overhead charged against quota per vnode.
  static constexpr uint64_t kPerVnodeOverhead = 128;

  // Creates a volume with a root directory (vnode 1.1) owned by `owner` and
  // protected by `root_acl`. `quota_bytes` of 0 means unlimited.
  Volume(VolumeId id, std::string name, VolumeType type, UserId owner,
         protection::AccessList root_acl, uint64_t quota_bytes);

  VolumeId id() const { return id_; }
  const std::string& name() const { return name_; }
  VolumeType type() const { return type_; }
  bool read_only() const { return type_ == VolumeType::kReadOnly; }
  Fid root() const { return VolumeRootFid(id_); }

  bool online() const { return online_; }
  void set_online(bool v) { online_ = v; }

  uint64_t quota_bytes() const { return quota_bytes_; }
  void set_quota_bytes(uint64_t q) { quota_bytes_ = q; }
  uint64_t usage_bytes() const { return usage_bytes_; }
  size_t vnode_count() const { return vnodes_.size(); }

  // Virtual time source for mtimes; the owning server keeps this current.
  SimTime now() const { return now_; }
  void set_now(SimTime t) { now_ = t; }

  struct Vnode {
    VnodeStatus status;
    content::Ref data;           // file contents / symlink target (dirs: empty)
    DirMap entries;              // directories only
    protection::AccessList acl;  // directories only
  };

  // --- Lookup ----------------------------------------------------------------
  // Fails with kVolumeOffline when offline, kStaleFid when the fid's vnode
  // slot is gone or its uniquifier does not match (deleted & never reused).
  [[nodiscard]] Result<const Vnode*> Lookup(const Fid& fid) const;
  // As Lookup, plus kNotDirectory unless the vnode is a directory.
  [[nodiscard]] Result<const Vnode*> LookupDir(const Fid& fid) const;

  // --- Directory operations ---------------------------------------------------
  [[nodiscard]] Result<Fid> CreateFile(const Fid& dir, const std::string& name, UserId owner,
                         uint16_t mode);
  [[nodiscard]] Result<Fid> MakeDir(const Fid& dir, const std::string& name, UserId owner,
                      const protection::AccessList& acl);
  [[nodiscard]] Result<Fid> MakeSymlink(const Fid& dir, const std::string& name, const std::string& target,
                          UserId owner);
  [[nodiscard]] Status MakeMountPoint(const Fid& dir, const std::string& name, VolumeId target);
  // Removes a file, symlink, or mount point entry.
  [[nodiscard]] Status RemoveFile(const Fid& dir, const std::string& name);
  // Removes an empty directory.
  [[nodiscard]] Status RemoveDir(const Fid& dir, const std::string& name);
  [[nodiscard]] Status Rename(const Fid& from_dir, const std::string& from_name, const Fid& to_dir,
                const std::string& to_name);

  // --- Data operations ---------------------------------------------------------
  // What a Fetch serves: a file's or symlink's stored contents, or a
  // directory's serialized entries as one immutable buffer, built and
  // interned on the first fetch of each directory version.
  [[nodiscard]] Result<content::Ref> FetchRef(const Fid& fid) const;
  // FetchRef's contents as literal bytes (a fresh buffer).
  [[nodiscard]] Result<Bytes> FetchData(const Fid& fid) const;
  // Stores literal bytes: canonicalized (generative prefix recognized,
  // literal tail interned) and handed to StoreRef.
  [[nodiscard]] Status StoreData(const Fid& fid, Bytes data);
  // Stores contents by reference without materializing — the populate path
  // and intention-log replay. Quota and status.length use the logical size.
  [[nodiscard]] Status StoreRef(const Fid& fid, content::Ref data);

  // --- Status / protection -------------------------------------------------------
  [[nodiscard]] Result<VnodeStatus> GetStatus(const Fid& fid) const;
  [[nodiscard]] Status SetMode(const Fid& fid, uint16_t mode);
  [[nodiscard]] Status SetOwner(const Fid& fid, UserId owner);
  [[nodiscard]] Status SetAcl(const Fid& dir, const protection::AccessList& acl);
  // For a directory: its own ACL. For a file or symlink: the ACL of its
  // parent directory ("the protected entities are directories", §3.4).
  // Points into the volume: valid until the volume next changes.
  [[nodiscard]] Result<const protection::AccessList*> EffectiveAcl(const Fid& fid) const;

  // --- Administration -------------------------------------------------------------
  // Frozen read-only copy sharing file data copy-on-write. Fids inside the
  // clone carry the clone's volume id with unchanged vnode/uniquifier.
  std::unique_ptr<Volume> Clone(VolumeId clone_id, const std::string& clone_name) const;

  // Serializes the whole volume — status, data, directories, access lists,
  // counters — to a flat byte stream, and reconstructs an identical volume
  // from one. This is the backup path behind the paper's Integrity goal
  // ("users should not feel compelled to make backup copies of their
  // files"): operations clones a volume (cheap, copy-on-write) and dumps
  // the frozen clone to tape. `new_id` rebrands all contained fids, as
  // Clone does; pass the dumped volume's own id to restore in place.
  Bytes Dump() const;
  [[nodiscard]] static Result<std::unique_ptr<Volume>> Restore(const Bytes& dump, VolumeId new_id,
                                                 const std::string& new_name,
                                                 VolumeType type);

  // Exact in-memory snapshot: same id, name, type, counters, and metadata,
  // sharing every data block with this volume copy-on-write. O(vnodes) with
  // no byte serialization, so StableStore can checkpoint on every interval
  // without re-copying file contents; Dump() remains the wire/backup format.
  std::unique_ptr<Volume> Snapshot() const;
  // The size of the stream Dump() would produce, computed without copying
  // file contents (the simulated checkpoint disk charge needs the byte
  // count, not the bytes). Pinned to Dump().size() by volume_test.
  uint64_t DumpSize() const;

  struct SalvageReport {
    uint32_t dangling_entries_removed = 0;  // dir entries pointing nowhere
    uint32_t orphan_vnodes_removed = 0;     // vnodes reachable from no directory
    uint32_t parents_fixed = 0;
    uint32_t dir_lengths_corrected = 0;     // directory status lengths rewritten
    uint64_t usage_corrected_bytes = 0;
    bool clean() const {
      return dangling_entries_removed == 0 && orphan_vnodes_removed == 0 &&
             parents_fixed == 0 && dir_lengths_corrected == 0 && usage_corrected_bytes == 0;
    }
    bool operator==(const SalvageReport&) const = default;
  };
  // Consistency check and repair after a crash: drops dangling directory
  // entries, removes unreachable vnodes, fixes parent pointers, recomputes
  // directory lengths and quota usage.
  SalvageReport Salvage();

  // Host bytes actually held for file contents, counting each buffer shared
  // across clones/snapshots/volumes once per `seen` set. This is the memory
  // diet's accounting, not the simulated disk usage (usage_bytes()).
  uint64_t RetainedContentBytes(std::unordered_set<const void*>* seen) const;

 private:
  [[nodiscard]] Result<Vnode*> LookupMutable(const Fid& fid);
  [[nodiscard]] Result<Vnode*> LookupDirMutable(const Fid& fid);
  Fid NewFid();
  Vnode& Node(uint32_t vnode) { return vnodes_.at(vnode); }
  // A directory's entries changed: bumps its version and mtime, drops its
  // fetched buffer, and moves its length by the serialized size of the
  // entries `added` minus those `removed`.
  void TouchDir(Vnode& dir, uint64_t added, uint64_t removed);
  // Charges (new - old) bytes against quota; kQuotaExceeded if over.
  [[nodiscard]] Status ChargeQuota(int64_t delta);
  static uint64_t DirEntrySize(const std::string& name);
  static uint64_t DirDataSize(const DirMap& entries);

  VolumeId id_;
  std::string name_;
  VolumeType type_;
  bool online_ = true;
  uint64_t quota_bytes_;
  uint64_t usage_bytes_ = 0;
  uint32_t next_vnode_ = 2;       // 1 is the root
  uint32_t next_uniquifier_ = 2;  // 1 is the root's
  SimTime now_ = 0;
  std::unordered_map<uint32_t, Vnode> vnodes_;
  // Serialized entries of the directories fetched since their last change,
  // by vnode: only fetched directories pay for a buffer.
  mutable std::unordered_map<uint32_t, content::Ref> dir_buffers_;
};

}  // namespace itc::vice

#endif  // SRC_VICE_VOLUME_H_
