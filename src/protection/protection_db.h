// The protection database: users, recursive groups, and CPS computation.
//
// "Entries on an access list are from a protection domain consisting of
//  Users ... and Groups, which are collections of users and other groups.
//  The recursive membership of groups is similar to that of the registration
//  database in Grapevine." (Section 3.4)
//
// The database also stores each user's long-term authentication key (derived
// from the password); the RPC layer's handshake looks keys up here.
//
// A user's Current Protection Subdomain (CPS) is himself plus every group he
// belongs to directly or indirectly, plus System:AnyUser. Membership cycles
// among groups are tolerated (the closure just converges).

#ifndef SRC_PROTECTION_PROTECTION_DB_H_
#define SRC_PROTECTION_PROTECTION_DB_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/shared_map.h"
#include "src/common/types.h"
#include "src/crypto/key.h"
#include "src/protection/principal.h"

namespace itc::protection {

class ProtectionDb {
 public:
  // Creates the database with the built-in System:AnyUser and
  // System:Administrators groups.
  ProtectionDb();

  // --- Users ---------------------------------------------------------------
  [[nodiscard]] Result<UserId> CreateUser(const std::string& name, const std::string& password);
  [[nodiscard]] Result<UserId> LookupUser(const std::string& name) const;
  std::optional<crypto::Key> UserKey(UserId user) const;
  [[nodiscard]] Result<std::string> UserName(UserId user) const;
  [[nodiscard]] Status SetPassword(UserId user, const std::string& password);
  bool UserExists(UserId user) const { return users_.contains(user); }

  // --- Groups ---------------------------------------------------------------
  [[nodiscard]] Result<GroupId> CreateGroup(const std::string& name);
  [[nodiscard]] Result<GroupId> LookupGroup(const std::string& name) const;
  [[nodiscard]] Result<std::string> GroupName(GroupId group) const;
  bool GroupExists(GroupId group) const { return groups_.contains(group); }

  // Adds `member` (a user or another group) to `group`. Adding a group to
  // itself is rejected; deeper cycles are permitted and handled by CPS.
  [[nodiscard]] Status AddToGroup(Principal member, GroupId group);
  [[nodiscard]] Status RemoveFromGroup(Principal member, GroupId group);
  bool IsDirectMember(Principal member, GroupId group) const;

  // Direct members of a group.
  [[nodiscard]] Result<std::vector<Principal>> Members(GroupId group) const;

  // --- CPS ------------------------------------------------------------------
  // Current Protection Subdomain of a user: {user} ∪ transitive groups ∪
  // {System:AnyUser}. Unknown users get just {user, System:AnyUser} (they can
  // still hold rights granted to AnyUser — the anonymous case).
  std::vector<Principal> CPS(UserId user) const;

  // Version increments on every mutation; replicas use it to detect
  // staleness.
  uint64_t version() const { return version_; }

  size_t user_count() const { return users_.size(); }
  size_t group_count() const { return groups_.size(); }

 private:
  struct UserRecord {
    std::string name;
    crypto::Key key;
  };
  struct GroupRecord {
    std::string name;
    SharedSet<Principal> members;
  };

  // Derivation salt for password keys; acts as the "cell name".
  static constexpr char kRealm[] = "itc.cmu.edu";

  // Structure-sharing maps: copying the database (one published snapshot per
  // mutation, src/protection/protection_service.h) is O(1), and a mutation
  // copies O(log n) nodes.
  SharedMap<UserId, UserRecord> users_;
  SharedMap<GroupId, GroupRecord> groups_;
  SharedMap<std::string, UserId> user_names_;
  SharedMap<std::string, GroupId> group_names_;
  // Reverse index: principal -> groups it is a direct member of.
  SharedMap<Principal, SharedSet<GroupId>> memberships_;
  UserId next_user_ = 100;    // ids below 100 reserved
  GroupId next_group_ = 100;  // built-ins live below 100
  uint64_t version_ = 0;
};

}  // namespace itc::protection

#endif  // SRC_PROTECTION_PROTECTION_DB_H_
