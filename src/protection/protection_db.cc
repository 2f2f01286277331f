#include "src/protection/protection_db.h"

#include <deque>
#include <set>

namespace itc::protection {

constexpr char ProtectionDb::kRealm[];

ProtectionDb::ProtectionDb() {
  groups_.Set(kAnyUserGroup, GroupRecord{"System:AnyUser", {}});
  group_names_.Set("System:AnyUser", kAnyUserGroup);
  groups_.Set(kAdministratorsGroup, GroupRecord{"System:Administrators", {}});
  group_names_.Set("System:Administrators", kAdministratorsGroup);
}

Result<UserId> ProtectionDb::CreateUser(const std::string& name, const std::string& password) {
  if (name.empty()) return Status::kInvalidArgument;
  if (user_names_.contains(name)) return Status::kAlreadyExists;
  const UserId id = next_user_++;
  users_.Set(id, UserRecord{name, crypto::DeriveKeyFromPassword(password, kRealm)});
  user_names_.Set(name, id);
  ++version_;
  return id;
}

Result<UserId> ProtectionDb::LookupUser(const std::string& name) const {
  const UserId* id = user_names_.Find(name);
  if (id == nullptr) return Status::kNotFound;
  return *id;
}

std::optional<crypto::Key> ProtectionDb::UserKey(UserId user) const {
  const UserRecord* rec = users_.Find(user);
  if (rec == nullptr) return std::nullopt;
  return rec->key;
}

Result<std::string> ProtectionDb::UserName(UserId user) const {
  const UserRecord* rec = users_.Find(user);
  if (rec == nullptr) return Status::kNotFound;
  return rec->name;
}

Status ProtectionDb::SetPassword(UserId user, const std::string& password) {
  const UserRecord* rec = users_.Find(user);
  if (rec == nullptr) return Status::kNotFound;
  users_.Set(user, UserRecord{rec->name, crypto::DeriveKeyFromPassword(password, kRealm)});
  ++version_;
  return Status::kOk;
}

Result<GroupId> ProtectionDb::CreateGroup(const std::string& name) {
  if (name.empty()) return Status::kInvalidArgument;
  if (group_names_.contains(name)) return Status::kAlreadyExists;
  const GroupId id = next_group_++;
  groups_.Set(id, GroupRecord{name, {}});
  group_names_.Set(name, id);
  ++version_;
  return id;
}

Result<GroupId> ProtectionDb::LookupGroup(const std::string& name) const {
  const GroupId* id = group_names_.Find(name);
  if (id == nullptr) return Status::kNotFound;
  return *id;
}

Result<std::string> ProtectionDb::GroupName(GroupId group) const {
  const GroupRecord* rec = groups_.Find(group);
  if (rec == nullptr) return Status::kNotFound;
  return rec->name;
}

Status ProtectionDb::AddToGroup(Principal member, GroupId group) {
  const GroupRecord* rec = groups_.Find(group);
  if (rec == nullptr) return Status::kNotFound;
  if (member.kind == Principal::Kind::kUser) {
    if (!users_.contains(member.id)) return Status::kNotFound;
  } else {
    if (!groups_.contains(member.id)) return Status::kNotFound;
    if (member.id == group) return Status::kInvalidArgument;
  }
  if (rec->members.contains(member)) return Status::kAlreadyExists;
  GroupRecord updated = *rec;
  updated.members.Set(member, {});
  groups_.Set(group, std::move(updated));
  const SharedSet<GroupId>* joined = memberships_.Find(member);
  SharedSet<GroupId> groups = joined != nullptr ? *joined : SharedSet<GroupId>{};
  groups.Set(group, {});
  memberships_.Set(member, std::move(groups));
  ++version_;
  return Status::kOk;
}

Status ProtectionDb::RemoveFromGroup(Principal member, GroupId group) {
  const GroupRecord* rec = groups_.Find(group);
  if (rec == nullptr) return Status::kNotFound;
  GroupRecord updated = *rec;
  if (!updated.members.Erase(member)) return Status::kNotFound;
  groups_.Set(group, std::move(updated));
  // A member of the group has a reverse-index entry naming it.
  SharedSet<GroupId> groups = *memberships_.Find(member);
  groups.Erase(group);
  memberships_.Set(member, std::move(groups));
  ++version_;
  return Status::kOk;
}

bool ProtectionDb::IsDirectMember(Principal member, GroupId group) const {
  const GroupRecord* rec = groups_.Find(group);
  return rec != nullptr && rec->members.contains(member);
}

Result<std::vector<Principal>> ProtectionDb::Members(GroupId group) const {
  const GroupRecord* rec = groups_.Find(group);
  if (rec == nullptr) return Status::kNotFound;
  std::vector<Principal> out;
  out.reserve(rec->members.size());
  for (const auto& entry : rec->members) out.push_back(entry.first);
  return out;
}

std::vector<Principal> ProtectionDb::CPS(UserId user) const {
  std::set<Principal> cps;
  cps.insert(Principal::User(user));
  cps.insert(Principal::Group(kAnyUserGroup));

  // Breadth-first closure over the reverse membership index.
  std::deque<Principal> frontier;
  frontier.push_back(Principal::User(user));
  while (!frontier.empty()) {
    const Principal p = frontier.front();
    frontier.pop_front();
    const SharedSet<GroupId>* groups = memberships_.Find(p);
    if (groups == nullptr) continue;
    for (const auto& entry : *groups) {
      const Principal g = Principal::Group(entry.first);
      if (cps.insert(g).second) frontier.push_back(g);
    }
  }
  return std::vector<Principal>(cps.begin(), cps.end());
}

}  // namespace itc::protection
