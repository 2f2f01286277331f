#include "src/protection/protection_rpc.h"

#include "src/rpc/wire.h"

namespace itc::protection {

namespace {

Result<Principal> ReadPrincipal(rpc::Reader& r) {
  ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > 1) return Status::kProtocolError;
  ASSIGN_OR_RETURN(uint32_t id, r.U32());
  return Principal{static_cast<Principal::Kind>(kind), id};
}

void PutPrincipal(rpc::Writer& w, Principal p) {
  w.PutU8(static_cast<uint8_t>(p.kind));
  w.PutU32(p.id);
}

}  // namespace

const rpc::OpSchema& ProtectionOpSchema() {
  using P = ProtectionProc;
  auto op = [](P p) { return static_cast<uint32_t>(p); };
  static const rpc::OpSchema schema(
      "protection",
      {
          {op(P::kCreateUser), "CreateUser", rpc::CallClass::kOther, false, 0,
           "`string name, string password`", "`u32 user`"},
          {op(P::kCreateGroup), "CreateGroup", rpc::CallClass::kOther, false, 0,
           "`string name`", "`u32 group`"},
          {op(P::kAddToGroup), "AddToGroup", rpc::CallClass::kOther, false, 0,
           "`u8 kind (0 user, 1 group), u32 id, u32 group`", "—"},
          {op(P::kRemoveFromGroup), "RemoveFromGroup", rpc::CallClass::kOther, false, 0,
           "`u8 kind (0 user, 1 group), u32 id, u32 group`", "—"},
          {op(P::kSetPassword), "SetPassword", rpc::CallClass::kOther, false, 0,
           "`u32 user, string password`", "—"},
          {op(P::kWhoAmI), "WhoAmI", rpc::CallClass::kOther, true, 0, "—",
           "`u32 user, u32 cps_size`"},
      });
  return schema;
}

ProtectionRpcServer::ProtectionRpcServer(NodeId node, net::Network* network,
                                         const sim::CostModel& cost,
                                         rpc::RpcConfig rpc_config,
                                         ProtectionService* service, uint64_t nonce_seed)
    : service_(service),
      registry_(&ProtectionOpSchema()),
      endpoint_(
          node, network, cost, rpc_config,
          [service](UserId user) { return service->db().UserKey(user); }, nonce_seed) {
  BindOps();
  endpoint_.set_service(&registry_);
}

void ProtectionRpcServer::BindOps() {
  auto bind = [this](ProtectionProc proc, auto handler) {
    registry_.Bind(static_cast<uint32_t>(proc),
                   [this, handler](rpc::CallContext& ctx,
                                   const Bytes& request) -> Result<Bytes> {
                     rpc::Reader r(request);
                     return handler(ctx, r);
                   });
  };
  bind(ProtectionProc::kWhoAmI,
       [this](rpc::CallContext& ctx, rpc::Reader&) { return HandleWhoAmI(ctx); });
  bind(ProtectionProc::kCreateUser, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleCreateUser(ctx, r);
  });
  bind(ProtectionProc::kCreateGroup, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleCreateGroup(ctx, r);
  });
  bind(ProtectionProc::kAddToGroup, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleGroupMembership(ctx, r, /*add=*/true);
  });
  bind(ProtectionProc::kRemoveFromGroup, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleGroupMembership(ctx, r, /*add=*/false);
  });
  bind(ProtectionProc::kSetPassword, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleSetPassword(ctx, r);
  });
}

bool ProtectionRpcServer::IsAdministrator(UserId user) const {
  for (const Principal& p : service_->db().CPS(user)) {
    if (p.kind == Principal::Kind::kGroup && p.id == kAdministratorsGroup) return true;
  }
  return false;
}

Bytes ProtectionRpcServer::HandleWhoAmI(rpc::CallContext& ctx) {
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutU32(ctx.user());
  w.PutU32(static_cast<uint32_t>(service_->db().CPS(ctx.user()).size()));
  return w.Take();
}

// Every mutation except SetPassword-on-self is administrators-only.

Bytes ProtectionRpcServer::HandleCreateUser(rpc::CallContext& ctx, rpc::Reader& r) {
  if (!IsAdministrator(ctx.user())) return rpc::StatusOnlyReply(Status::kPermissionDenied);
  auto name = r.String();
  auto pw = name.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  if (!pw.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
  auto user = service_->CreateUser(*name, *pw);
  if (!user.ok()) return rpc::StatusOnlyReply(user.status());
  ctx.ChargeDisk(0);  // database update
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutU32(*user);
  return w.Take();
}

Bytes ProtectionRpcServer::HandleCreateGroup(rpc::CallContext& ctx, rpc::Reader& r) {
  if (!IsAdministrator(ctx.user())) return rpc::StatusOnlyReply(Status::kPermissionDenied);
  auto name = r.String();
  if (!name.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
  auto group = service_->CreateGroup(*name);
  if (!group.ok()) return rpc::StatusOnlyReply(group.status());
  ctx.ChargeDisk(0);
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutU32(*group);
  return w.Take();
}

Bytes ProtectionRpcServer::HandleGroupMembership(rpc::CallContext& ctx, rpc::Reader& r,
                                                 bool add) {
  if (!IsAdministrator(ctx.user())) return rpc::StatusOnlyReply(Status::kPermissionDenied);
  auto member = ReadPrincipal(r);
  auto group = member.ok() ? r.U32() : Result<uint32_t>(Status::kProtocolError);
  if (!group.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
  ctx.ChargeDisk(0);
  return rpc::StatusOnlyReply(add ? service_->AddToGroup(*member, *group)
                                  : service_->RemoveFromGroup(*member, *group));
}

Bytes ProtectionRpcServer::HandleSetPassword(rpc::CallContext& ctx, rpc::Reader& r) {
  auto user = r.U32();
  auto pw = user.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  if (!pw.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
  if (*user != ctx.user() && !IsAdministrator(ctx.user())) {
    return rpc::StatusOnlyReply(Status::kPermissionDenied);
  }
  ctx.ChargeDisk(0);
  return rpc::StatusOnlyReply(service_->SetPassword(*user, *pw));
}

ProtectionClient::ProtectionClient(NodeId node, sim::Clock* clock,
                                   ProtectionRpcServer* server, net::Network* network,
                                   const sim::CostModel& cost)
    : node_(node), clock_(clock), server_(server), network_(network), cost_(cost) {}

Status ProtectionClient::Connect(UserId user, const crypto::Key& user_key, uint64_t seed) {
  ASSIGN_OR_RETURN(conn_, rpc::ClientConnection::Connect(
                              node_, user, user_key, &server_->endpoint(), network_,
                              cost_, clock_, seed,
                              rpc::ClientOptions{&ProtectionOpSchema(), nullptr}));
  return Status::kOk;
}

Result<Bytes> ProtectionClient::Call(ProtectionProc proc, const Bytes& request) {
  if (conn_ == nullptr) return Status::kConnectionBroken;
  return conn_->Call(static_cast<uint32_t>(proc), request);
}

Result<UserId> ProtectionClient::CreateUser(const std::string& name,
                                            const std::string& password) {
  rpc::Writer w;
  w.PutString(name);
  w.PutString(password);
  ASSIGN_OR_RETURN(Bytes reply, Call(ProtectionProc::kCreateUser, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  return r.U32();
}

Result<GroupId> ProtectionClient::CreateGroup(const std::string& name) {
  rpc::Writer w;
  w.PutString(name);
  ASSIGN_OR_RETURN(Bytes reply, Call(ProtectionProc::kCreateGroup, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  return r.U32();
}

Status ProtectionClient::AddToGroup(Principal member, GroupId group) {
  rpc::Writer w;
  PutPrincipal(w, member);
  w.PutU32(group);
  ASSIGN_OR_RETURN(Bytes reply, Call(ProtectionProc::kAddToGroup, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status ProtectionClient::RemoveFromGroup(Principal member, GroupId group) {
  rpc::Writer w;
  PutPrincipal(w, member);
  w.PutU32(group);
  ASSIGN_OR_RETURN(Bytes reply, Call(ProtectionProc::kRemoveFromGroup, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status ProtectionClient::SetPassword(UserId user, const std::string& password) {
  rpc::Writer w;
  w.PutU32(user);
  w.PutString(password);
  ASSIGN_OR_RETURN(Bytes reply, Call(ProtectionProc::kSetPassword, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<std::pair<UserId, uint32_t>> ProtectionClient::WhoAmI() {
  ASSIGN_OR_RETURN(Bytes reply, Call(ProtectionProc::kWhoAmI, Bytes{}));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(UserId user, r.U32());
  ASSIGN_OR_RETURN(uint32_t cps, r.U32());
  return std::make_pair(user, cps);
}

}  // namespace itc::protection
