// Write-ahead intention log for Vice stable storage (crash recovery).
//
// The revised design keeps callback state volatile but file state durable:
// "each workstation is critically dependent on noticing server crashes"
// (Section 3.2) only works if the server itself comes back with consistent
// volumes. Every mutating Vice operation appends an *intention* record here
// before applying the change to the in-memory volume, then marks the record
// committed once the change is applied. On restart, committed intentions are
// replayed against the last checkpoint image; uncommitted ones are discarded
// — the client never received a reply for them, so discarding preserves the
// store-on-close atomicity of Section 3.5 (a Store is either fully visible
// or absent, never torn).
//
// Replay is deterministic: volume fid counters are restored from the
// checkpoint dump, records carry the server clock at append time, and
// re-executing records in LSN order reproduces identical fids, versions and
// mtimes.

#ifndef SRC_VICE_RECOVERY_INTENTION_LOG_H_
#define SRC_VICE_RECOVERY_INTENTION_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/content.h"
#include "src/common/fid.h"
#include "src/common/result.h"
#include "src/common/types.h"

namespace itc::vice {
class Volume;
}  // namespace itc::vice

namespace itc::vice::recovery {

enum class IntentKind : uint8_t {
  kStore = 1,
  kCreateFile = 2,
  kMakeDir = 3,
  kMakeSymlink = 4,
  kRemoveFile = 5,
  kRemoveDir = 6,
  kRename = 7,
  kSetStatus = 8,
  kSetAcl = 9,
  kMakeMountPoint = 10,
};

const char* IntentKindName(IntentKind k);

enum class IntentState : uint8_t {
  kLogged = 0,     // appended, not yet applied — discarded on recovery
  kCommitted = 1,  // applied; replayed on recovery
  kAborted = 2,    // apply failed; discarded on recovery
};

struct Intention {
  uint64_t lsn = 0;
  IntentKind kind = IntentKind::kStore;
  VolumeId volume = kInvalidVolume;
  SimTime when = 0;  // server clock at append; replay re-installs it
  IntentState state = IntentState::kLogged;
  Bytes payload;  // op-specific encoding (Encode* below)
  // kStore via AppendStore only: the stored contents by reference — the log
  // shares the volume's (interned) buffers instead of holding a byte copy
  // until the next checkpoint truncates it. The *modeled* log traffic is
  // still the logical record (see AppendStore); only host memory changes.
  content::Ref contents;
};

// An append-only record list. In a real server this would be an fsync'd
// on-disk log; here durability is modeled by the cost charges the caller
// makes against the server disk resource.
class IntentionLog {
 public:
  // Appends a new record in state kLogged and returns its LSN.
  uint64_t Append(IntentKind kind, VolumeId volume, SimTime when, Bytes payload);
  // Appends a kStore record: the payload is the fid, and `contents` rides
  // by reference. bytes_appended (and the caller's disk charge) count the
  // logical record, the fid followed by the length-prefixed bytes, so the
  // representation can never change simulated times;
  // LogicalStoreRecordBytes is that size.
  uint64_t AppendStore(VolumeId volume, SimTime when, const Fid& fid, content::Ref contents);
  static uint64_t LogicalStoreRecordBytes(uint64_t data_size) { return 12 + 4 + data_size; }
  void MarkCommitted(uint64_t lsn);
  void MarkAborted(uint64_t lsn);

  // Drops every record — called after a checkpoint makes them redundant.
  void Truncate() { records_.clear(); }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<Intention>& records() const { return records_; }

  // Total payload bytes appended over the log's lifetime (for stats).
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  Intention* Find(uint64_t lsn);

  std::vector<Intention> records_;
  uint64_t next_lsn_ = 1;
  uint64_t bytes_appended_ = 0;
};

// --- Payload encoders --------------------------------------------------------
// One per IntentKind but kStore, which IntentionLog::AppendStore writes.
// MakeDir ACL inheritance is resolved by the caller before logging so replay
// needs no out-of-band context.
Bytes EncodeCreateFile(const Fid& dir, const std::string& name, UserId owner, uint16_t mode);
Bytes EncodeMakeDir(const Fid& dir, const std::string& name, UserId owner,
                    const Bytes& acl_bytes);
Bytes EncodeMakeSymlink(const Fid& dir, const std::string& name, const std::string& target,
                        UserId owner);
Bytes EncodeRemove(const Fid& dir, const std::string& name);  // file and dir
Bytes EncodeRename(const Fid& from_dir, const std::string& from_name, const Fid& to_dir,
                   const std::string& to_name);
Bytes EncodeSetStatus(const Fid& fid, bool set_mode, uint16_t mode, bool set_owner,
                      UserId owner);
Bytes EncodeSetAcl(const Fid& dir, const Bytes& acl_bytes);
Bytes EncodeMakeMountPoint(const Fid& dir, const std::string& name, VolumeId target);

// Re-executes one committed intention against `vol` during recovery.
// Decodes the payload and invokes the corresponding Volume operation with
// the record's logged clock installed.
[[nodiscard]] Status ApplyIntention(Volume& vol, const Intention& rec);

}  // namespace itc::vice::recovery

#endif  // SRC_VICE_RECOVERY_INTENTION_LOG_H_
