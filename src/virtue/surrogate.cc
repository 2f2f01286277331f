#include "src/virtue/surrogate.h"

#include "src/rpc/wire.h"

namespace itc::virtue {

namespace {

}  // namespace

SurrogateServer::SurrogateServer(Workstation* host, net::Network* network,
                                 const sim::CostModel& cost, rpc::RpcConfig rpc_config,
                                 rpc::ServerEndpoint::KeyLookup key_lookup,
                                 uint64_t nonce_seed)
    : host_(host),
      endpoint_(host->node(), network, cost, rpc_config, std::move(key_lookup),
                nonce_seed) {
  endpoint_.set_service(this);
}

Result<Bytes> SurrogateServer::Dispatch(rpc::CallContext& ctx, uint32_t proc_raw,
                                        const Bytes& request) {
  // The surrogate executes every operation through the HOST's Vice session.
  // Serving a differently-authenticated PC user would let that user act
  // with the host user's rights; refuse anyone but the session owner.
  if (ctx.user() != host_->venus().user()) {
    return rpc::StatusOnlyReply(Status::kPermissionDenied);
  }
  rpc::Reader r(request);
  switch (static_cast<SurrogateProc>(proc_raw)) {
    case SurrogateProc::kReadFile: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto data = host_->ReadWholeFile(*path);
      if (!data.ok()) return rpc::StatusOnlyReply(data.status());
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutBytes(*data);
      return w.Take();
    }
    case SurrogateProc::kWriteFile: {
      auto path = r.String();
      auto data = path.ok() ? r.BytesField() : Result<Bytes>(Status::kProtocolError);
      if (!data.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      return rpc::StatusOnlyReply(host_->WriteWholeFile(*path, *data));
    }
    case SurrogateProc::kStat: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto info = host_->Stat(*path);
      if (!info.ok()) return rpc::StatusOnlyReply(info.status());
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutU64(info->size);
      w.PutBool(info->type == FileInfo::Type::kDirectory);
      w.PutBool(info->shared);
      return w.Take();
    }
    case SurrogateProc::kMkDir: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      return rpc::StatusOnlyReply(host_->MkDir(*path));
    }
    case SurrogateProc::kUnlink: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      return rpc::StatusOnlyReply(host_->Unlink(*path));
    }
    case SurrogateProc::kReadDir: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto names = host_->ReadDir(*path);
      if (!names.ok()) return rpc::StatusOnlyReply(names.status());
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutU32(static_cast<uint32_t>(names->size()));
      for (const auto& name : *names) w.PutString(name);
      return w.Take();
    }
  }
  return Status::kProtocolError;
}

PcClient::PcClient(NodeId node, sim::Clock* clock, SurrogateServer* surrogate,
                   net::Network* network, const sim::CostModel& cost)
    : node_(node), clock_(clock), surrogate_(surrogate), network_(network), cost_(cost) {}

Status PcClient::Connect(UserId user, const crypto::Key& user_key, uint64_t seed) {
  ASSIGN_OR_RETURN(conn_, rpc::ClientConnection::Connect(node_, user, user_key,
                                                         &surrogate_->endpoint(),
                                                         network_, cost_, clock_, seed));
  return Status::kOk;
}

Result<Bytes> PcClient::Call(SurrogateProc proc, const Bytes& request) {
  if (conn_ == nullptr) return Status::kConnectionBroken;
  return conn_->Call(static_cast<uint32_t>(proc), request);
}

Result<Bytes> PcClient::ReadFile(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(SurrogateProc::kReadFile, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  return r.BytesField();
}

Status PcClient::WriteFile(const std::string& path, const Bytes& data) {
  rpc::Writer w;
  w.PutString(path);
  w.PutBytes(data);
  ASSIGN_OR_RETURN(Bytes reply, Call(SurrogateProc::kWriteFile, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<PcClient::PcStat> PcClient::Stat(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(SurrogateProc::kStat, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  PcStat out;
  ASSIGN_OR_RETURN(out.size, r.U64());
  ASSIGN_OR_RETURN(out.is_directory, r.Bool());
  ASSIGN_OR_RETURN(out.shared, r.Bool());
  return out;
}

Status PcClient::MkDir(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(SurrogateProc::kMkDir, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status PcClient::Unlink(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(SurrogateProc::kUnlink, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<std::vector<std::string>> PcClient::ReadDir(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(SurrogateProc::kReadDir, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(uint32_t n, r.Count(rpc::kStringMinWireBytes));
  std::vector<std::string> names;
  names.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.String());
    names.push_back(std::move(name));
  }
  return names;
}

}  // namespace itc::virtue
