// Simulated stable storage for a Vice file server.
//
// Real Vice servers keep volumes on disk; this simulation keeps them in
// memory, so without a durability model a server crash cannot be expressed
// at all. StableStore is that model: a checkpoint image (a copy-on-write
// Volume::Snapshot) per volume plus the write-ahead IntentionLog. Together
// they define exactly what survives ViceServer::SimulateCrash() — everything
// else (callback promises, advisory locks, connections, in-flight replies)
// is volatile and is rebuilt or re-established after Restart().
//
// Images are snapshots rather than Volume::Dump byte streams so that the
// periodic checkpoint costs O(vnodes) pointer copies on the host instead of
// re-serializing every file byte. The *simulated* checkpoint disk charge is
// unchanged because image_bytes() still reports exactly what the dumps
// would have measured (Volume::DumpSize). An image is sized from its
// immutable snapshot the first time image_bytes() reads it, so an image
// overwritten before any disk charge is never sized at all. ViceServer
// takes an admin checkpoint when first needed rather than at the request
// (ViceServer::CheckpointVolume); the image it stores is the same.
//
// Checkpointing is the log-truncation mechanism: after every
// `checkpoint_interval` committed intentions the server re-checkpoints the
// affected volumes and truncates the log, bounding both recovery time and
// (modeled) log space.

#ifndef SRC_VICE_RECOVERY_STABLE_STORE_H_
#define SRC_VICE_RECOVERY_STABLE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/vice/recovery/intention_log.h"
#include "src/vice/volume.h"

namespace itc::vice::recovery {

// What Restart() reports back to the operator (and to tests/benches).
struct RecoveryReport {
  uint32_t volumes_restored = 0;
  uint32_t intentions_replayed = 0;   // committed records re-executed
  uint32_t intentions_discarded = 0;  // logged-but-uncommitted + aborted
  uint32_t replay_failures = 0;       // committed records that failed to re-apply
  Volume::SalvageReport salvage;      // aggregated across all volumes
  uint32_t restart_epoch = 0;         // server epoch after this restart
  SimTime recovery_time = 0;          // virtual time spent restoring/replaying

  bool clean() const { return replay_failures == 0 && salvage.clean(); }
  bool operator==(const RecoveryReport&) const = default;
};

class StableStore {
 public:
  // Overwrites the durable image of `vol` with a snapshot of it as it is
  // now, its volume clock set to `clock`: ViceServer takes an admin
  // checkpoint when first needed, and the image carries the clock of the
  // request. The snapshot's size waits for image_bytes().
  void CheckpointVolume(const Volume& vol, SimTime clock);
  void CheckpointVolume(const Volume& vol) { CheckpointVolume(vol, vol.now()); }
  void EraseVolume(VolumeId id) { images_.erase(id); }
  bool HasVolume(VolumeId id) const { return images_.contains(id); }
  size_t volume_count() const { return images_.size(); }

  // Total bytes the checkpoint images would occupy as Volume::Dump streams,
  // each as of its checkpoint (for cost accounting/stats; identical to the
  // pre-snapshot accounting). Sizes each image once, on first read.
  uint64_t image_bytes() const;

  // Host bytes retained for file contents in checkpoint images and logged
  // store records (dedup-aware via `seen`); memory accounting, not the
  // simulated image size above.
  uint64_t RetainedContentBytes(std::unordered_set<const void*>* seen) const;

  // Reconstructs every checkpointed volume from its image. Does not touch
  // the log; the caller replays committed intentions on top.
  [[nodiscard]] Result<std::vector<std::unique_ptr<Volume>>> RestoreVolumes() const;

  IntentionLog& log() { return log_; }
  const IntentionLog& log() const { return log_; }

 private:
  struct Image {
    std::unique_ptr<Volume> snap;  // copy-on-write, shares data blocks
    // What snap->Dump().size() would be; filled by the first image_bytes().
    mutable std::optional<uint64_t> dump_bytes;
  };

  std::map<VolumeId, Image> images_;
  IntentionLog log_;
};

}  // namespace itc::vice::recovery

#endif  // SRC_VICE_RECOVERY_STABLE_STORE_H_
