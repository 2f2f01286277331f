#include "src/protection/protection_service.h"

namespace itc::protection {

void ProtectionService::RegisterReplica(Replica* replica) {
  replicas_.push_back(replica);
  replica->snapshot_ = std::make_shared<const ProtectionDb>(*master_);
}

void ProtectionService::Publish() {
  // Copy-on-publish, O(1): the snapshot shares the master's map nodes, and
  // the master copies a node before it changes it, so readers holding the
  // old snapshot are unaffected.
  auto snapshot = std::make_shared<const ProtectionDb>(*master_);
  for (Replica* r : replicas_) r->snapshot_ = snapshot;
  publications_ += 1;
}

Result<UserId> ProtectionService::CreateUser(const std::string& name,
                                             const std::string& password) {
  auto r = master_->CreateUser(name, password);
  if (r.ok()) Publish();
  return r;
}

Result<GroupId> ProtectionService::CreateGroup(const std::string& name) {
  auto r = master_->CreateGroup(name);
  if (r.ok()) Publish();
  return r;
}

Status ProtectionService::AddToGroup(Principal member, GroupId group) {
  Status s = master_->AddToGroup(member, group);
  if (s == Status::kOk) Publish();
  return s;
}

Status ProtectionService::RemoveFromGroup(Principal member, GroupId group) {
  Status s = master_->RemoveFromGroup(member, group);
  if (s == Status::kOk) Publish();
  return s;
}

Status ProtectionService::SetPassword(UserId user, const std::string& password) {
  Status s = master_->SetPassword(user, password);
  if (s == Status::kOk) Publish();
  return s;
}

}  // namespace itc::protection
