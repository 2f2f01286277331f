#include "src/baseline/remote_open.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/rpc/wire.h"

namespace itc::baseline {

namespace {

}  // namespace

RemoteOpenServer::RemoteOpenServer(NodeId node, net::Network* network,
                                   const sim::CostModel& cost, rpc::RpcConfig rpc_config,
                                   rpc::ServerEndpoint::KeyLookup key_lookup,
                                   uint64_t nonce_seed)
    : cost_(cost),
      endpoint_(node, network, cost, rpc_config, std::move(key_lookup), nonce_seed) {
  endpoint_.set_service(this);
}

Result<Bytes> RemoteOpenServer::Dispatch(rpc::CallContext& ctx, uint32_t proc_raw,
                                         const Bytes& request) {
  rpc::Reader r(request);
  switch (static_cast<Proc>(proc_raw)) {
    case Proc::kOpen: {
      auto path = r.String();
      auto create = path.ok() ? r.Bool() : Result<bool>(Status::kProtocolError);
      if (!create.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto inode = storage_.Resolve(*path);
      if (!inode.ok() && inode.status() == Status::kNotFound && *create) {
        inode = storage_.Create(*path, unixfs::kDefaultFileMode, ctx.user());
      }
      if (!inode.ok()) return rpc::StatusOnlyReply(inode.status());
      auto st = storage_.StatInode(*inode);
      if (!st.ok()) return rpc::StatusOnlyReply(st.status());
      if (st->type == unixfs::FileType::kDirectory) return rpc::StatusOnlyReply(Status::kIsDirectory);
      const uint64_t handle = next_handle_++;
      handles_[handle] = *inode;
      ctx.ChargeDisk(0);  // open touches the inode
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutU64(handle);
      w.PutU64(st->size);
      return w.Take();
    }
    case Proc::kClose: {
      auto handle = r.U64();
      if (!handle.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      return rpc::StatusOnlyReply(handles_.erase(*handle) > 0 ? Status::kOk
                                                     : Status::kBadDescriptor);
    }
    case Proc::kRead: {
      auto handle = r.U64();
      auto offset = handle.ok() ? r.U64() : Result<uint64_t>(Status::kProtocolError);
      auto length = offset.ok() ? r.U64() : Result<uint64_t>(Status::kProtocolError);
      if (!length.ok() || *length > kPageSize) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto it = handles_.find(*handle);
      if (it == handles_.end()) return rpc::StatusOnlyReply(Status::kBadDescriptor);
      auto data = storage_.ReadAt(it->second, *offset, *length);
      if (!data.ok()) return rpc::StatusOnlyReply(data.status());
      ctx.ChargeDisk(data->size());
      ctx.ChargeCpu(cost_.ServerCopyCpu(data->size()));
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutBytes(*data);
      return w.Take();
    }
    case Proc::kWrite: {
      auto handle = r.U64();
      auto offset = handle.ok() ? r.U64() : Result<uint64_t>(Status::kProtocolError);
      auto data = offset.ok() ? r.BytesField() : Result<Bytes>(Status::kProtocolError);
      if (!data.ok() || data->size() > kPageSize) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto it = handles_.find(*handle);
      if (it == handles_.end()) return rpc::StatusOnlyReply(Status::kBadDescriptor);
      ctx.ChargeDisk(data->size());
      ctx.ChargeCpu(cost_.ServerCopyCpu(data->size()));
      return rpc::StatusOnlyReply(storage_.WriteAt(it->second, *offset, *data));
    }
    case Proc::kStat: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto st = storage_.Stat(*path);
      if (!st.ok()) return rpc::StatusOnlyReply(st.status());
      ctx.ChargeDisk(0);
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutU64(st->size);
      w.PutI64(st->mtime);
      w.PutBool(st->type == unixfs::FileType::kDirectory);
      return w.Take();
    }
    case Proc::kMkDir: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      ctx.ChargeDisk(0);
      return rpc::StatusOnlyReply(storage_.MkDir(*path));
    }
    case Proc::kUnlink: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      ctx.ChargeDisk(0);
      return rpc::StatusOnlyReply(storage_.Unlink(*path));
    }
    case Proc::kReadDir: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto entries = storage_.ReadDir(*path);
      if (!entries.ok()) return rpc::StatusOnlyReply(entries.status());
      ctx.ChargeDisk(0);
      rpc::Writer w;
      w.PutStatus(Status::kOk);
      w.PutU32(static_cast<uint32_t>(entries->size()));
      for (const auto& e : *entries) w.PutString(e.name);
      return w.Take();
    }
    case Proc::kRename: {
      auto from = r.String();
      auto to = from.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
      if (!to.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      ctx.ChargeDisk(0);
      return rpc::StatusOnlyReply(storage_.Rename(*from, *to));
    }
    case Proc::kRmDir: {
      auto path = r.String();
      if (!path.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      ctx.ChargeDisk(0);
      return rpc::StatusOnlyReply(storage_.RmDir(*path));
    }
    case Proc::kTruncate: {
      auto handle = r.U64();
      auto size = handle.ok() ? r.U64() : Result<uint64_t>(Status::kProtocolError);
      if (!size.ok()) return rpc::StatusOnlyReply(Status::kProtocolError);
      auto it = handles_.find(*handle);
      if (it == handles_.end()) return rpc::StatusOnlyReply(Status::kBadDescriptor);
      ctx.ChargeDisk(0);
      return rpc::StatusOnlyReply(storage_.Truncate(it->second, *size));
    }
  }
  return Status::kProtocolError;
}

RemoteOpenClient::RemoteOpenClient(NodeId node, sim::Clock* clock, RemoteOpenServer* server,
                                   net::Network* network, const sim::CostModel& cost)
    : node_(node), clock_(clock), server_(server), network_(network), cost_(cost) {}

Status RemoteOpenClient::Connect(UserId user, const crypto::Key& user_key, uint64_t seed) {
  ASSIGN_OR_RETURN(conn_, rpc::ClientConnection::Connect(node_, user, user_key,
                                                         &server_->endpoint(), network_,
                                                         cost_, clock_, seed));
  return Status::kOk;
}

Result<Bytes> RemoteOpenClient::Call(Proc proc, const Bytes& request) {
  if (conn_ == nullptr) return Status::kConnectionBroken;
  return conn_->Call(static_cast<uint32_t>(proc), request);
}

Result<uint64_t> RemoteOpenClient::Open(const std::string& path, bool create) {
  rpc::Writer w;
  w.PutString(path);
  w.PutBool(create);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kOpen, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(uint64_t handle, r.U64());
  return handle;
}

Status RemoteOpenClient::Close(uint64_t handle) {
  rpc::Writer w;
  w.PutU64(handle);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kClose, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<Bytes> RemoteOpenClient::Read(uint64_t handle, uint64_t offset, uint64_t length) {
  Bytes out;
  while (length > 0) {
    const uint64_t chunk = std::min(length, kPageSize);
    rpc::Writer w;
    w.PutU64(handle);
    w.PutU64(offset);
    w.PutU64(chunk);
    ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kRead, w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    ASSIGN_OR_RETURN(Bytes page, r.BytesField());
    out.insert(out.end(), page.begin(), page.end());
    if (page.size() < chunk) break;  // EOF
    offset += page.size();
    length -= page.size();
  }
  return out;
}

Status RemoteOpenClient::Write(uint64_t handle, uint64_t offset, const Bytes& data) {
  uint64_t off = 0;
  while (off < data.size() || data.empty()) {
    const uint64_t chunk = std::min<uint64_t>(data.size() - off, kPageSize);
    rpc::Writer w;
    w.PutU64(handle);
    w.PutU64(offset + off);
    w.PutBytes(Bytes(data.begin() + static_cast<ptrdiff_t>(off),
                     data.begin() + static_cast<ptrdiff_t>(off + chunk)));
    ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kWrite, w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    off += chunk;
    if (data.empty()) break;
  }
  return Status::kOk;
}

Result<RemoteOpenClient::RemoteStat> RemoteOpenClient::Stat(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kStat, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  RemoteStat out;
  ASSIGN_OR_RETURN(out.size, r.U64());
  ASSIGN_OR_RETURN(out.mtime, r.I64());
  ASSIGN_OR_RETURN(out.is_directory, r.Bool());
  return out;
}

Status RemoteOpenClient::MkDir(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kMkDir, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status RemoteOpenClient::Unlink(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kUnlink, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<std::vector<std::string>> RemoteOpenClient::ReadDir(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kReadDir, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(uint32_t count, r.Count(rpc::kStringMinWireBytes));
  std::vector<std::string> names;
  names.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.String());
    names.push_back(std::move(name));
  }
  return names;
}

Status RemoteOpenClient::Rename(const std::string& from, const std::string& to) {
  rpc::Writer w;
  w.PutString(from);
  w.PutString(to);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kRename, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status RemoteOpenClient::RmDir(const std::string& path) {
  rpc::Writer w;
  w.PutString(path);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kRmDir, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status RemoteOpenClient::Truncate(uint64_t handle, uint64_t size) {
  rpc::Writer w;
  w.PutU64(handle);
  w.PutU64(size);
  ASSIGN_OR_RETURN(Bytes reply, Call(Proc::kTruncate, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<Bytes> RemoteOpenClient::ReadWholeFile(const std::string& path) {
  ASSIGN_OR_RETURN(RemoteStat st, Stat(path));
  ASSIGN_OR_RETURN(uint64_t handle, Open(path, /*create=*/false));
  auto data = Read(handle, 0, st.size);
  // A failed close leaks the server-side handle; surface it like
  // WriteWholeFile does rather than handing back data as if all went well.
  const Status c = Close(handle);
  if (data.ok() && c != Status::kOk) return c;
  return data;
}

Status RemoteOpenClient::WriteWholeFile(const std::string& path, const Bytes& data) {
  ASSIGN_OR_RETURN(uint64_t handle, Open(path, /*create=*/true));
  Status s = Write(handle, 0, data);
  Status c = Close(handle);
  return s != Status::kOk ? s : c;
}

}  // namespace itc::baseline
