// The Vice-Virtue file system interface (Section 2.3).
//
// "There is a well-defined file system interface between Vice and Virtue.
//  This interface is relatively static and enhancements to it occur in an
//  upward-compatible manner..."
//
// Procedure numbers, reply conventions, and (de)serialization helpers shared
// by the Vice file server and Venus. Every reply begins with a Status; a
// non-OK status carries no payload except where noted (kNotCustodian replies
// carry the custodian hint, per "if a server receives a request for a file
// for which it is not the custodian, it will respond with the identity of
// the appropriate custodian", Section 3.1).

#ifndef SRC_VICE_PROTOCOL_H_
#define SRC_VICE_PROTOCOL_H_

#include <cstdint>
#include <string_view>

#include "src/common/result.h"
#include "src/rpc/op_registry.h"
#include "src/rpc/wire.h"
#include "src/vice/vnode.h"

namespace itc::vice {

// The cache validation scheme (Section 3.2; docs/VALIDATION.md). It is one
// setting on each side of the wire, ViceConfig::validation and
// VenusConfig::validation, and the two must agree: only a lease-scheme
// server's replies carry a lease expiry (CampusConfig::UseValidation sets
// both).
//   * kCheckOnOpen: the prototype. Venus validates a cached copy on every
//     open; the server promises nothing.
//   * kCallbacks: the revised scheme. The server promises to notify Venus
//     before its cached copy goes stale (a callback).
//   * kLeases: Gray & Cheriton's leases, a callback promise with a term.
enum class Validation { kCheckOnOpen, kCallbacks, kLeases };

enum class Proc : uint32_t {
  // Connection / environment.
  kTestAuth = 1,
  kGetTime = 2,

  // Location (Section 3.1).
  kGetVolumeInfo = 3,   // volume id -> custodian + read-only replica sites
  kGetRootVolume = 4,   // () -> volume id of the Vice name space root

  // Crash recovery: () -> the server's restart epoch. Venus compares the
  // epoch against what it remembered for this server; a bump means the
  // server crashed and every callback promise it held is gone (Section 3.2:
  // "each workstation is critically dependent on noticing server crashes").
  kProbeEpoch = 5,

  // Data and status.
  kFetch = 10,        // fid -> status + whole-file data (registers callback)
  kFetchStatus = 11,  // fid -> status                  (registers callback)
  kValidate = 12,     // fid + cached version -> valid? (registers callback)
  kStore = 13,        // fid + data -> new status       (breaks callbacks)
  kSetStatus = 14,    // fid + mode/owner bits -> new status

  // Name space.
  kCreateFile = 20,
  kMakeDir = 21,
  kMakeSymlink = 22,
  kRemoveFile = 23,
  kRemoveDir = 24,
  kRename = 25,
  kMakeMountPoint = 26,
  // Prototype-mode server-side pathname traversal: full path -> fid+status.
  kResolvePath = 27,

  // Protection (Section 3.4).
  kGetAcl = 30,
  kSetAcl = 31,

  // Locks (Section 3.6).
  kSetLock = 40,
  kReleaseLock = 41,

  // Cache management. 51 and 53 are retired: Validate and RemoveCallback
  // serve the lease scheme too.
  kRemoveCallback = 50,  // Venus dropped its cached copy (callback or lease)
  kRenewLeases = 52,     // batch: fids -> rejected fids (must revalidate)

  // Administration.
  kGetVolumeStatus = 60,  // quota, usage, type, online
};

// Schema flag: in prototype mode (server_side_pathnames) this op pays full
// pathname-resolution CPU and namei disk reads before its handler runs.
inline constexpr uint32_t kOpChargesPathname = 1u << 0;

// The typed op table of the Vice-Virtue interface: one OpSpec per Proc with
// its CallClass, idempotency (governs client-side retries), flags, and wire
// docs. ViceServer binds its handlers against this schema; ProcName/ClassOf
// below and the docs/PROTOCOL.md table are all derived from it.
const rpc::OpSchema& ViceOpSchema();

std::string_view ProcName(Proc p);

// The aggregate call categories of the prototype measurement in Section 5.2
// ("cache validity checking ... 65%, obtain file status ... 27%, fetch 4%,
// store 2%"). Shared with the RPC tracing layer.
using CallClass = rpc::CallClass;
using rpc::CallClassName;
CallClass ClassOf(Proc p);

// --- Wire helpers -----------------------------------------------------------

void PutVnodeStatus(rpc::Writer& w, const VnodeStatus& s);
[[nodiscard]] Result<VnodeStatus> ReadVnodeStatus(rpc::Reader& r);

// Volume location info returned by kGetVolumeInfo.
struct VolumeInfo {
  VolumeId volume = kInvalidVolume;
  VolumeId read_write_volume = kInvalidVolume;  // parent for RO clones
  VolumeId ro_clone = kInvalidVolume;           // released RO clone of a RW volume
  bool read_only = false;
  ServerId custodian = kInvalidServer;
  std::vector<ServerId> replica_sites;  // servers holding RO replicas
};

void PutVolumeInfo(rpc::Writer& w, const VolumeInfo& info);
[[nodiscard]] Result<VolumeInfo> ReadVolumeInfo(rpc::Reader& r);

// Encodes a reply of just a status code.
Bytes StatusReply(Status s);

}  // namespace itc::vice

#endif  // SRC_VICE_PROTOCOL_H_
