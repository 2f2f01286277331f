// Volume administration and the master location database.
//
// The VolumeRegistry is the operations side of Vice: creating volumes,
// assigning and re-assigning custodians ("the reassignment of subtrees to
// custodians is infrequent and typically involves human interaction",
// Section 3.1), cloning, and releasing read-only replicas ("the creation of
// a read-only subtree is an atomic operation, thus providing a convenient
// mechanism to support the orderly release of new system software",
// Section 3.2). Every change to the location database publishes a new
// snapshot to all servers before the call returns — the rare, global change
// the design principles call out. The snapshots share structure
// (src/common/shared_map.h), so on the host a publication costs O(1) per
// server and a change O(log volumes), not a copy of the whole database.

#ifndef SRC_VICE_VOLUME_REGISTRY_H_
#define SRC_VICE_VOLUME_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/protection/access_list.h"
#include "src/vice/file_server.h"
#include "src/vice/location_db.h"

namespace itc::vice {

class VolumeRegistry {
 public:
  // Registers a server; it immediately receives the current location
  // snapshot and will receive every future one.
  void RegisterServer(ViceServer* server);
  ViceServer* ServerById(ServerId id) const;
  // All registered servers, in id order.
  std::vector<ViceServer*> Servers() const;

  // Creates an empty read-write volume on `custodian`.
  [[nodiscard]] Result<VolumeId> CreateVolume(const std::string& name, ServerId custodian, UserId owner,
                                const protection::AccessList& root_acl,
                                uint64_t quota_bytes);

  // Declares which volume roots the Vice shared name space ("/").
  [[nodiscard]] Status SetRootVolume(VolumeId volume);

  // Adds a mount point entry `name` in directory `dir` referring to
  // `child`'s root. Administrative path: applied directly at the custodian;
  // outstanding promises (callbacks or leases) on the directory are broken
  // so connected clients see the new mount.
  [[nodiscard]] Status MountAt(const Fid& dir, const std::string& name, VolumeId child);

  // Breaks every promise (callback or lease) on `volume` at its custodian.
  // Invoked by administrative tooling after direct (non-RPC) mutations so
  // connected clients cannot keep trusting stale cached copies. Like every
  // administrative break it waits for no one (CallbackManager::BreakVolume).
  [[nodiscard]] Status BreakVolumeCallbacks(VolumeId volume, SimTime at = 0);

  // Requests a fresh stable-storage image of the volume at its custodian
  // (ViceServer::CheckpointVolume: the image is the volume as of this call,
  // snapshotted when first needed). Required after any direct (non-RPC)
  // mutation, which bypasses the custodian's intention log and would
  // otherwise be lost by a crash.
  [[nodiscard]] Status CheckpointVolume(VolumeId volume);

  // Moves a volume to a new custodian. The volume is offline for the
  // duration of the move; all outstanding promises on it are
  // broken. `at` is the administrative wall-clock instant used for the
  // callback traffic.
  [[nodiscard]] Status MoveVolume(VolumeId volume, ServerId new_custodian, SimTime at = 0);

  // Creates a frozen read-only clone of `volume`, hosted at the custodian.
  [[nodiscard]] Result<VolumeId> CloneVolume(VolumeId volume, const std::string& clone_name);

  // Atomically releases a read-only replica set of `volume` at `sites`:
  // clones the volume, installs a copy at every site, records the replica
  // sites in the location database, and points the read-write volume's
  // location entry at the new clone. Subsequent releases supersede earlier
  // clones in the location map (old clones remain as frozen versions at
  // their sites — "multiple coexisting versions of a subsystem are
  // represented by their respective read-only subtrees"). An unknown site
  // fails the release with kNotFound before anything is installed.
  [[nodiscard]] Result<VolumeId> ReleaseReadOnly(VolumeId volume, const std::string& clone_name,
                                   const std::vector<ServerId>& sites);

  [[nodiscard]] Status SetVolumeQuota(VolumeId volume, uint64_t quota_bytes);
  [[nodiscard]] Status SetVolumeOnline(VolumeId volume, bool online);

  // Backup workflow (the Integrity goal of Section 2.2): clones the volume
  // (frozen, copy-on-write) and dumps the clone; the transient clone is
  // discarded. The dump is self-contained and restorable on any server.
  [[nodiscard]] Result<Bytes> BackupVolume(VolumeId volume);
  // Restores a dump as a brand-new read-write volume at `custodian`,
  // mounted nowhere (use MountAt). Returns the new volume id.
  [[nodiscard]] Result<VolumeId> RestoreVolume(const Bytes& dump, const std::string& name,
                                 ServerId custodian);

  // Runs salvage on a volume at its custodian (crash recovery).
  [[nodiscard]] Result<Volume::SalvageReport> SalvageVolume(VolumeId volume);

  const LocationDb& location() const { return master_; }
  // Direct access to a hosted volume (admin/test convenience).
  Volume* FindVolume(VolumeId volume) const;

 private:
  void Publish();
  [[nodiscard]] Result<ViceServer*> CustodianOf(VolumeId volume) const;

  std::map<ServerId, ViceServer*> servers_;
  LocationDb master_;
  VolumeId next_volume_ = 1;
};

}  // namespace itc::vice

#endif  // SRC_VICE_VOLUME_REGISTRY_H_
