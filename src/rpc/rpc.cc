#include "src/rpc/rpc.h"

#include "src/common/logging.h"
#include "src/crypto/cbc.h"
#include "src/rpc/op_registry.h"
#include "src/rpc/wire.h"
#include "src/sim/kernel.h"
#include "src/sim/kernel_group.h"

#include <algorithm>

namespace itc::rpc {

namespace {

// Fixed per-message framing overhead on the wire (headers, addressing).
constexpr uint64_t kWireHeaderBytes = 32;

// A request frame's header: the procedure number (4) and the connection's
// sequence number (8), ahead of the request body.
constexpr size_t kFrameHeaderBytes = 12;

// The client stub waits this long before its first resend, and twice as
// long before each next one.
constexpr SimTime kRetryBackoff = Millis(20);

uint64_t WireSize(const Bytes& payload) { return payload.size() + kWireHeaderBytes; }

// Records one finished call into `stats`, labelled from the op schema (`op`
// null: outside it). The outcome is the transport status on failure, else
// the application status peeked from the reply prologue: every schema op's
// reply begins with a Status; replies outside a schema are opaque.
void RecordCall(CallStats& stats, uint32_t proc, const OpSpec* op, SimTime latency,
                uint64_t bytes_in, const Result<Bytes>& result, uint64_t bulk_bytes) {
  Status outcome = result.ok() ? Status::kOk : result.status();
  if (result.ok() && op != nullptr) {
    Reader r(result.value());
    if (r.ReadStatus(&outcome) != Status::kOk) outcome = Status::kProtocolError;
  }
  stats.Record(proc, op != nullptr ? op->name : "unknown",
               op != nullptr ? op->call_class : CallClass::kOther, latency, bytes_in,
               result.ok() ? result.value().size() + bulk_bytes : 0, outcome);
}

// In sharded mode a cross-cluster Transfer migrates the calling activity to
// the destination shard, and the reply transfer normally carries it home.
// Early exits — partition timeouts, handler failures, a handshake leg that
// fails authentication — would otherwise strand the client's activity on
// the server's shard. This guard walks it home on every exit path: a no-op
// when the activity is already on its home shard (all success paths, and
// everything outside a kernel group). Failure paths that end mid-flight on
// the far shard pay up to one extra lookahead of virtual time for the hop
// home; timeout paths (the common case) are already past it.
class HomeShardGuard {
 public:
  HomeShardGuard(net::Network* network, NodeId home, sim::Clock* clock)
      : network_(network), home_(home), clock_(clock) {}
  ~HomeShardGuard() {
    sim::KernelGroup* group = sim::KernelGroup::Current();
    if (group == nullptr) return;
    const ClusterId domain = network_->topology().ClusterOf(home_);
    sim::Kernel* host = sim::Kernel::Current();
    if (&group->shard(group->ShardOfDomain(domain)) == host) return;
    const SimTime at = std::max(clock_->now(), host->now() + group->lookahead());
    group->MigrateToDomain(domain, at);
    clock_->AdvanceTo(at);
  }
  HomeShardGuard(const HomeShardGuard&) = delete;
  HomeShardGuard& operator=(const HomeShardGuard&) = delete;

 private:
  net::Network* network_;
  NodeId home_;
  sim::Clock* clock_;
};

}  // namespace

ServerEndpoint::ServerEndpoint(NodeId node, net::Network* network, const sim::CostModel& cost,
                               RpcConfig config, KeyLookup key_lookup, uint64_t nonce_seed)
    : node_(node),
      network_(network),
      cost_(cost),
      config_(config),
      key_lookup_(std::move(key_lookup)),
      nonce_seed_(nonce_seed),
      cpu_("server.cpu.node" + std::to_string(node)),
      disk_("server.disk.node" + std::to_string(node)) {}

void ServerEndpoint::CloseConnectionsFrom(NodeId client_node) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second.client_node == client_node) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ServerEndpoint::ConnectionCountFrom(NodeId client_node) const {
  size_t n = 0;
  for (const auto& [id, conn] : connections_) {
    if (conn.client_node == client_node) ++n;
  }
  return n;
}

Result<Bytes> ServerEndpoint::HandleCall(uint64_t conn_id, NodeId client_node, Bytes request,
                                         SimTime arrival, SimTime* completion,
                                         std::optional<Bulk>* bulk) {
  *completion = arrival;
  if (!online_ || fault_.fail_all()) return Status::kUnavailable;
  auto conn_it = connections_.find(conn_id);
  if (conn_it == connections_.end()) return Status::kConnectionBroken;
  ConnState& conn = conn_it->second;

  if (config_.encrypt) {
    auto opened = crypto::Open(conn.secret.session_key, request);
    if (!opened.ok()) return Status::kTamperDetected;
    request = std::move(*opened);
  }
  // The pickup decrypt is charged for the whole frame, header included.
  const size_t framed_size = request.size();

  Reader header(request);
  ASSIGN_OR_RETURN(uint32_t proc, header.U32());
  ASSIGN_OR_RETURN(uint64_t client_seq, header.U64());
  // Anti-replay: even a perfectly sealed frame captured off the wire is
  // rejected when presented a second time.
  if (client_seq <= conn.last_client_seq) return Status::kTamperDetected;
  conn.last_client_seq = client_seq;
  // The body is the same buffer without its header.
  request.erase(request.begin(), request.begin() + kFrameHeaderBytes);

  ITC_CHECK(service_ != nullptr);
  const OpSchema* schema = service_->schema();
  const OpSpec* op = schema != nullptr ? schema->Find(proc) : nullptr;
  const FaultInjector::Decision fault =
      fault_.Decide(op != nullptr ? std::optional(op->call_class) : std::nullopt);
  if (fault.fail != Status::kOk) {
    // Answered unexecuted, the moment it arrived.
    RecordCall(call_stats_, proc, op, 0, request.size(), fault.fail, 0);
    return fault.fail;
  }

  // The call runs as three suspendable stages, so the server's resources
  // admit it in arrival order relative to every other client: (1) at
  // arrival, the CPU cost of picking up the request — structure switch +
  // per-call base + request decrypt; (2) the handler runs, then the CPU it
  // reported plus the reply encrypt; (3) the disk demand the handler
  // accumulated, serialized after the CPU.
  sim::AlignTo(arrival);
  SimTime pickup_cpu = cost_.server_cpu_per_call;
  pickup_cpu += config_.server_structure == ServerStructure::kProcessPerClient
                    ? cost_.server_context_switch
                    : cost_.server_lwp_switch;
  if (config_.encrypt) pickup_cpu += cost_.CryptoCpu(framed_size);
  SimTime t = sim::Charge(cpu_, arrival, pickup_cpu);

  CallContext ctx(conn.user, client_node, arrival);
  Result<Bytes> result = service_->Dispatch(ctx, proc, request);
  std::optional<Bulk> reply_bulk;
  if (result.ok()) {
    reply_bulk = ctx.TakeBulk();
    SimTime reply_cpu = ctx.cpu_demand();
    if (config_.encrypt) reply_cpu += cost_.CryptoCpu(result->size() + BulkSize(reply_bulk));
    t = sim::Charge(cpu_, t, reply_cpu);
    if (ctx.disk_ops() > 0 || ctx.disk_time() > 0) {
      const SimTime disk_demand =
          static_cast<SimTime>(ctx.disk_ops()) * cost_.disk_seek +
          static_cast<SimTime>(static_cast<double>(cost_.disk_per_kb) *
                               (static_cast<double>(ctx.disk_bytes()) / 1024.0)) +
          ctx.disk_time();
      t = sim::Charge(disk_, t, disk_demand);
    }
    if (ctx.completion_floor() > t) {
      // The handler waited on virtual time itself (lease expiry, grant
      // embargo), not on a server resource; no utilization is charged.
      sim::AlignTo(ctx.completion_floor());
      t = ctx.completion_floor();
    }
    *completion = t;
  }
  // The request reached the server and executed; only the reply is lost.
  if (fault.drop_reply) result = Status::kUnavailable;
  RecordCall(call_stats_, proc, op, *completion - arrival, request.size(), result,
             BulkSize(reply_bulk));
  if (!result.ok()) return result.status();

  Bytes reply = std::move(result).value();
  if (reply_bulk.has_value()) {
    // The one splice path: a sealed envelope covers every byte, and a
    // caller without a slot reads the inline layout.
    if (config_.encrypt || bulk == nullptr) {
      reply = Splice(reply, *reply_bulk);
    } else {
      *bulk = std::move(reply_bulk);
    }
  }
  if (config_.encrypt) {
    conn.seq += 1;
    return crypto::Seal(conn.secret.session_key, reply, conn.seq * 2 + 1);
  }
  return reply;
}

ClientConnection::ClientConnection(NodeId client_node, UserId user, ServerEndpoint* server,
                                   net::Network* network, const sim::CostModel& cost,
                                   sim::Clock* clock, uint64_t conn_id,
                                   crypto::SessionSecret secret, RpcConfig config,
                                   ClientOptions options)
    : client_node_(client_node),
      user_(user),
      server_(server),
      network_(network),
      cost_(cost),
      clock_(clock),
      conn_id_(conn_id),
      secret_(secret),
      config_(config),
      options_(options) {}

ClientConnection::~ClientConnection() { server_->CloseConnection(conn_id_); }

Result<std::unique_ptr<ClientConnection>> ClientConnection::Connect(
    NodeId client_node, UserId user, const crypto::Key& user_key, ServerEndpoint* server,
    net::Network* network, const sim::CostModel& cost, sim::Clock* clock,
    uint64_t nonce_seed, ClientOptions options) {
  if (!server->online_ || server->fault_.fail_all()) return Status::kUnavailable;
  const RpcConfig config = server->config_;
  const SimTime stream_penalty =
      config.transport == Transport::kStream ? cost.stream_transport_overhead : 0;

  HomeShardGuard home_guard(network, client_node, clock);
  crypto::ClientHandshake client_hs(user, user_key, nonce_seed);
  crypto::ServerHandshake server_hs(server->key_lookup_,
                                    server->nonce_seed_ ^ (nonce_seed * 0x9e3779b9ull));

  // The handshake exchanges four small messages; each leg pays network time
  // and the server legs pay dispatch CPU. A partition can open mid-handshake,
  // so every leg checks reachability; a lost leg costs the client its full
  // RPC timeout.
  // `at_node` is where the undeparted leg sits when the loss is observed —
  // it picks the accounting bucket and names the shard the caller is on.
  const auto leg_lost = [&](SimTime at, NodeId at_node) {
    if (network->Reachable(client_node, server->node_, at)) return false;
    network->NotePartitionDrop(at_node);
    clock->AdvanceTo(at + cost.rpc_timeout);
    return true;
  };
  SimTime t = clock->now() + cost.client_cpu_per_rpc;

  Bytes m1 = client_hs.Start();
  if (leg_lost(t, client_node)) return Status::kUnavailable;
  t = network->Transfer(client_node, server->node_, WireSize(m1), t) + stream_penalty;
  t = sim::Charge(server->cpu_, t, cost.server_cpu_per_call);
  server->stats_.handshakes += 1;  // counted where the server sees the hello
  auto m2 = server_hs.HandleHello(m1);
  if (!m2.ok()) {
    server->stats_.auth_failures += 1;
    clock->AdvanceTo(t);
    return m2.status();
  }
  if (leg_lost(t, server->node_)) return Status::kUnavailable;
  t = network->Transfer(server->node_, client_node, WireSize(*m2), t) + stream_penalty;
  t += cost.client_cpu_per_rpc;
  auto m3 = client_hs.HandleChallenge(*m2);
  if (!m3.ok()) {
    clock->AdvanceTo(t);
    return m3.status();
  }
  if (leg_lost(t, client_node)) return Status::kUnavailable;
  t = network->Transfer(client_node, server->node_, WireSize(*m3), t) + stream_penalty;
  t = sim::Charge(server->cpu_, t, cost.server_cpu_per_call);
  auto m4 = server_hs.HandleResponse(*m3);
  if (!m4.ok()) {
    server->stats_.auth_failures += 1;
    clock->AdvanceTo(t);
    return m4.status();
  }
  // The server's side of the handshake is complete: install the connection
  // here, while the activity is still on the server's shard (mutating the
  // connection table after the m4 transfer would touch server state from the
  // client's shard). If the final leg is lost the entry stays behind — the
  // server granted a session the client never learned about — until the
  // client's next successful epoch drops it.
  const uint64_t conn_id = server->next_connection_id_++;
  server->connections_[conn_id] =
      ServerEndpoint::ConnState{server_hs.user(), server_hs.secret(), 0, 0, client_node};

  if (leg_lost(t, server->node_)) return Status::kUnavailable;
  t = network->Transfer(server->node_, client_node, WireSize(*m4), t) + stream_penalty;
  t += cost.client_cpu_per_rpc;
  auto secret = client_hs.HandleSessionGrant(*m4);
  clock->AdvanceTo(t);
  if (!secret.ok()) return secret.status();

  // Both sides have independently derived the same session secret.
  ITC_CHECK(*secret == server_hs.secret());

  return std::unique_ptr<ClientConnection>(new ClientConnection(
      client_node, user, server, network, cost, clock, conn_id, *secret, config,
      options));
}

Result<Bytes> ClientConnection::Call(uint32_t proc, const Bytes& request,
                                     std::optional<Bulk>* bulk) {
  const OpSpec* op = options_.schema != nullptr ? options_.schema->Find(proc) : nullptr;
  // The stream transport already delivers reliably, and without schema
  // metadata declaring the op idempotent a blind resend could run a mutator
  // twice: at-most-once wins (§3.5.3).
  const uint32_t max_retries =
      config_.transport == Transport::kDatagram && op != nullptr && op->idempotent
          ? config_.retry.max_retries
          : 0;
  const auto attempt = [&]() -> Result<Bytes> {
    const SimTime sent = clock_->now();
    Result<Bytes> reply = SendOnce(proc, request, bulk);
    if (config_.call_deadline > 0 && clock_->now() - sent > config_.call_deadline) {
      return Status::kTimedOut;
    }
    return reply;
  };

  const SimTime start = clock_->now();
  Result<Bytes> result = attempt();
  SimTime backoff = kRetryBackoff;
  for (uint32_t retry = 0; retry < max_retries; ++retry) {
    if (result.ok() || (result.status() != Status::kUnavailable &&
                        result.status() != Status::kTimedOut)) {
      break;
    }
    clock_->Advance(backoff);
    backoff *= 2;
    result = attempt();
  }
  // The workstation's view: latency over every attempt and backoff.
  if (options_.stats != nullptr) {
    RecordCall(*options_.stats, proc, op, clock_->now() - start, request.size(), result,
               bulk != nullptr ? BulkSize(*bulk) : 0);
  }
  return result;
}

Result<Bytes> ClientConnection::SendOnce(uint32_t proc, const Bytes& request,
                                         std::optional<Bulk>* bulk) {
  // Every attempt starts empty, so the slot only ever holds the bulk of the
  // attempt that returned.
  if (bulk != nullptr) bulk->reset();
  HomeShardGuard home_guard(network_, client_node_, clock_);
  const SimTime stream_penalty =
      config_.transport == Transport::kStream ? cost_.stream_transport_overhead : 0;

  // One buffer holds the frame: the procedure number and an increasing
  // sequence number (the server's anti-replay check), then the request. An
  // unsealed connection hands that buffer itself to the server.
  seq_ += 1;
  Bytes message(kFrameHeaderBytes + request.size());
  StoreU32(message.data(), proc);
  StoreU64(message.data() + 4, seq_);
  std::copy(request.begin(), request.end(), message.begin() + kFrameHeaderBytes);

  SimTime t = clock_->now() + cost_.client_cpu_per_rpc;
  if (config_.encrypt) {
    t += cost_.CryptoCpu(message.size());
    message = crypto::Seal(secret_.session_key, message, (conn_id_ << 20) ^ (seq_ * 2));
  }

  // A partition between the endpoints eats the request (or below, the
  // reply); the client burns its full timeout either way.
  if (!network_->Reachable(client_node_, server_->node_, t)) {
    network_->NotePartitionDrop(client_node_);
    clock_->AdvanceTo(t + cost_.rpc_timeout);
    return Status::kUnavailable;
  }
  const SimTime arrival =
      network_->Transfer(client_node_, server_->node_, WireSize(message), t) + stream_penalty;

  SimTime completion = arrival;
  std::optional<Bulk> side;
  auto sealed_reply =
      server_->HandleCall(conn_id_, client_node_, std::move(message), arrival, &completion,
                          bulk != nullptr ? &side : nullptr);
  if (!sealed_reply.ok()) {
    clock_->AdvanceTo(completion);
    return sealed_reply.status();
  }

  if (!network_->Reachable(server_->node_, client_node_, completion)) {
    // The call executed but the reply is lost: at-most-once semantics are
    // preserved by the anti-replay sequence check on any retry. The client
    // gave up at its timeout, whatever the server did afterwards.
    network_->NotePartitionDrop(server_->node_);
    clock_->AdvanceTo(t + cost_.rpc_timeout);
    return Status::kUnavailable;
  }
  // The bulk shares the reply's transfer: the wire carries the inline layout.
  SimTime t2 = network_->Transfer(server_->node_, client_node_,
                                  WireSize(*sealed_reply) + BulkSize(side), completion) +
               stream_penalty;
  t2 += cost_.client_cpu_per_rpc;

  Bytes reply;
  if (config_.encrypt) {
    t2 += cost_.CryptoCpu(sealed_reply->size());
    auto opened = crypto::Open(secret_.session_key, *sealed_reply);
    clock_->AdvanceTo(t2);
    if (!opened.ok()) return Status::kTamperDetected;
    reply = std::move(*opened);
  } else {
    clock_->AdvanceTo(t2);
    reply = std::move(*sealed_reply);
  }
  if (bulk != nullptr) *bulk = std::move(side);
  return reply;
}

}  // namespace itc::rpc
