// The protection server (Sections 3.4, 3.5.2).
//
// "Information about users and groups is stored in a protection database
//  which is replicated at each cluster server. Manipulation of this database
//  is via a protection server, which coordinates the updating of the
//  database at all sites."
//
// ProtectionService owns the master database; each Vice server holds a
// Replica handle. Mutations go through the service, which publishes a new
// immutable snapshot to every registered replica before the mutating call
// returns (the rarely-exercised, system-wide path — "avoid frequent,
// system-wide rapid change"). The database's maps share structure between
// snapshots (src/common/shared_map.h), so on the host a publication costs a
// pointer per replica and a mutation O(log n), not a copy of the database.
// Reads (CPS evaluation, key lookup during the RPC handshake) hit the local
// replica snapshot.

#ifndef SRC_PROTECTION_PROTECTION_SERVICE_H_
#define SRC_PROTECTION_PROTECTION_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/protection/protection_db.h"

namespace itc::protection {

// A cluster server's replica of the protection database: an immutable
// snapshot, replaced by the next version's on every update. A reader holding
// an older snapshot keeps an exact view of its version.
class Replica {
 public:
  std::shared_ptr<const ProtectionDb> snapshot() const { return snapshot_; }
  uint64_t version() const { return snapshot_ ? snapshot_->version() : 0; }

 private:
  friend class ProtectionService;
  std::shared_ptr<const ProtectionDb> snapshot_;
};

class ProtectionService {
 public:
  ProtectionService() : master_(std::make_shared<ProtectionDb>()) {}

  // Registers a replica and immediately publishes the current snapshot to
  // it. The replica must outlive the service or be unregistered... replicas
  // are owned by Vice servers which share the service's lifetime in all of
  // our deployments.
  void RegisterReplica(Replica* replica);

  // Number of replica publications performed (a proxy for the cost of
  // system-wide change; benches report it).
  uint64_t publications() const { return publications_; }

  // --- Mutations (coordinated; republished to all replicas) ----------------
  [[nodiscard]] Result<UserId> CreateUser(const std::string& name, const std::string& password);
  [[nodiscard]] Result<GroupId> CreateGroup(const std::string& name);
  [[nodiscard]] Status AddToGroup(Principal member, GroupId group);
  [[nodiscard]] Status RemoveFromGroup(Principal member, GroupId group);
  [[nodiscard]] Status SetPassword(UserId user, const std::string& password);

  // --- Reads against the master (admin paths) ------------------------------
  const ProtectionDb& db() const { return *master_; }

 private:
  void Publish();

  std::shared_ptr<ProtectionDb> master_;
  std::vector<Replica*> replicas_;
  uint64_t publications_ = 0;
};

}  // namespace itc::protection

#endif  // SRC_PROTECTION_PROTECTION_SERVICE_H_
