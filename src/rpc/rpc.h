// Remote procedure call package (Section 3.5.3).
//
// Both generations of the paper's RPC are reproduced as configuration:
//
//   * Transport. The prototype used "a reliable byte-stream protocol
//     supported by Unix" — modelled as extra per-message protocol overhead.
//     The revised implementation uses "an unreliable datagram protocol" with
//     RPC-level reliability — modelled without that overhead.
//   * Server structure (Section 3.5.2). The prototype ran one Unix process
//     per (user, workstation), paying a full context switch per call. The
//     revised server is a single process with lightweight processes (LWPs)
//     sharing global state, paying only an LWP dispatch.
//   * Security (Section 3.4). Connection establishment runs the mutual
//     authentication handshake of src/crypto; afterwards every request and
//     reply is sealed under the per-session key.
//   * Whole-file transfer is a side effect of the call ("generalized
//     side-effects"): a reply's file contents travel as a Bulk beside its
//     control bytes. Only a sealed connection, or a caller that does not
//     take the bulk, materializes them into the reply; every size the
//     network and the stats see is that of the inline layout either way.
//
// A call runs as straight-line code on each side. The server endpoint
// refuses calls while offline, opens and checks the frame, asks its
// FaultInjector about the call, runs the service in three charged stages and
// records one CallStats row. The client stub gives each attempt its deadline,
// resends idempotent datagram calls after a transport failure (§3.5.3:
// mutators run at most once) and records one row over all attempts.
//
// Functionally everything is synchronous and in-process; timing flows
// through src/net (LAN segments) and the server's CPU/disk resources, so
// utilization and latency come out of the same code path that moves bytes.

#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/crypto/handshake.h"
#include "src/crypto/key.h"
#include "src/net/network.h"
#include "src/rpc/call_stats.h"
#include "src/rpc/fault_injector.h"
#include "src/rpc/wire.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"

namespace itc::rpc {

class OpSchema;

enum class Transport { kStream, kDatagram };
enum class ServerStructure { kProcessPerClient, kLwp };

// Client-stub retry policy (§3.5.3 RPC-level reliability): datagram calls
// on ops the schema marks idempotent are resent after kUnavailable or
// kTimedOut, waiting 20 ms before the first resend and twice as long before
// each next one; mutators are never blindly resent (at-most-once).
struct RetryPolicy {
  uint32_t max_retries = 0;  // resends after the first attempt
};

struct RpcConfig {
  Transport transport = Transport::kDatagram;
  ServerStructure server_structure = ServerStructure::kLwp;
  // When false, messages travel unsealed (no crypto CPU, no integrity);
  // exists for the security-cost ablation only.
  bool encrypt = true;
  // Client stub: resends and a per-attempt deadline (0 = none).
  RetryPolicy retry;
  SimTime call_deadline = 0;
};

// Per-call server-side context handed to the service implementation. The
// handler reports the resources its work consumes; the endpoint serializes
// those demands through the server's CPU and disk.
class CallContext {
 public:
  CallContext(UserId user, NodeId client_node, SimTime arrival)
      : user_(user), client_node_(client_node), arrival_(arrival) {}

  UserId user() const { return user_; }
  NodeId client_node() const { return client_node_; }
  SimTime arrival() const { return arrival_; }

  // Extra CPU demand beyond the per-call base cost.
  void ChargeCpu(SimTime t) { cpu_demand_ += t; }
  // One disk operation moving `bytes` (0 for a pure seek, e.g. status read).
  void ChargeDisk(uint64_t bytes) {
    disk_ops_ += 1;
    disk_bytes_ += bytes;
  }
  // Pre-computed disk time (log appends/fsyncs, whose cost is not a plain
  // seek + per-kb transfer). Added to the disk demand as-is.
  void ChargeDiskTime(SimTime t) { disk_time_ += t; }
  // Holds the reply back until at least virtual time `t`: the handler waited
  // on something other than a server resource (a lease on an unreachable
  // holder running out, a post-restart grant embargo). The endpoint takes
  // the max of this floor and the resource completion time.
  void DelayCompletionUntil(SimTime t) {
    if (t > completion_floor_) completion_floor_ = t;
  }
  // The reply's bulk field (Writer::PutBulk), which the endpoint passes
  // beside the reply or splices into it.
  void set_bulk(Bulk bulk) { bulk_ = std::move(bulk); }
  std::optional<Bulk> TakeBulk() { return std::exchange(bulk_, std::nullopt); }

  SimTime cpu_demand() const { return cpu_demand_; }
  uint32_t disk_ops() const { return disk_ops_; }
  uint64_t disk_bytes() const { return disk_bytes_; }
  SimTime disk_time() const { return disk_time_; }
  SimTime completion_floor() const { return completion_floor_; }

 private:
  UserId user_;
  NodeId client_node_;
  SimTime arrival_;
  SimTime cpu_demand_ = 0;
  uint32_t disk_ops_ = 0;
  uint64_t disk_bytes_ = 0;
  SimTime disk_time_ = 0;
  SimTime completion_floor_ = 0;
  std::optional<Bulk> bulk_;
};

// A service implementation registered at a ServerEndpoint: an OpRegistry
// (the Vice file server, the protection server) or a hand-written dispatcher
// (the remote-open baseline server, the PC surrogate).
class Service {
 public:
  virtual ~Service() = default;

  // Dispatches procedure `proc` with serialized arguments `request`.
  // Application-level failures are encoded inside the reply; a non-OK
  // Result here means the call itself could not be performed.
  [[nodiscard]] virtual Result<Bytes> Dispatch(CallContext& ctx, uint32_t proc, const Bytes& request) = 0;

  // The procedure table, if the service has one: it labels the endpoint's
  // CallStats rows and lets faults pick calls by class. Without one every
  // call is recorded as "unknown", class kOther.
  virtual const OpSchema* schema() const { return nullptr; }
};

// Session counters; per-call counts and bytes live in CallStats.
struct RpcStats {
  uint64_t handshakes = 0;
  uint64_t auth_failures = 0;
};

// Server side of the RPC package: owns the server's simulated CPU and disk,
// the per-connection session state, and the registered service.
class ServerEndpoint {
 public:
  using KeyLookup = std::function<std::optional<crypto::Key>(UserId)>;

  ServerEndpoint(NodeId node, net::Network* network, const sim::CostModel& cost,
                 RpcConfig config, KeyLookup key_lookup, uint64_t nonce_seed);

  // The one service every call dispatches to.
  void set_service(Service* service) { service_ = service; }

  // Simulated outage: while offline the endpoint accepts no handshakes and
  // answers no calls (kUnavailable). Toggling this alone keeps connection
  // state (a network partition); a machine crash additionally calls
  // DropAllConnections — the paper's servers kept no hard client state that
  // a reboot plus salvage could not rebuild.
  void set_online(bool v) { online_ = v; }
  bool online() const { return online_; }

  // Volatile-state teardown for a simulated machine crash, and targeted
  // cleanup when one workstation disconnects or crashes. Orchestration-only
  // under the sharded scheduler: they touch the connection table, which the
  // server's shard owns.
  ITC_KERNEL_QUIESCENT void DropAllConnections() { connections_.clear(); }
  ITC_KERNEL_QUIESCENT void CloseConnectionsFrom(NodeId client_node);
  ITC_KERNEL_QUIESCENT size_t ConnectionCountFrom(NodeId client_node) const;

  NodeId node() const { return node_; }
  sim::Resource& cpu() { return cpu_; }
  sim::Resource& disk() { return disk_; }
  ITC_KERNEL_QUIESCENT const RpcStats& stats() const { return stats_; }
  // One row per call that passed the refusal and frame checks.
  CallStats& call_stats() { return call_stats_; }
  const CallStats& call_stats() const { return call_stats_; }
  // The endpoint's fault controls (tests: set_fail_all, FailCalls,
  // DropNextReplies, ArmCrash).
  FaultInjector& fault() { return fault_; }
  void ResetStats() {
    stats_ = RpcStats{};
    call_stats_.Reset();
  }

  // Internal API used by ClientConnection (in-process message delivery).
  struct ConnState {
    UserId user = kAnonymousUser;
    crypto::SessionSecret secret;
    uint64_t seq = 0;              // reply counter (IV diversification)
    uint64_t last_client_seq = 0;  // anti-replay: requests must increase
    NodeId client_node = kInvalidNode;  // workstation that opened the channel
  };

  // Processes one call on connection `conn_id`, arriving at `arrival`:
  // `request` is the frame as it travelled (sealed on a sealed connection).
  // The endpoint takes the buffer and reads the body in it, after the
  // header. Returns the reply as it travels back and sets `*completion` to
  // the time it leaves the server. A reply's bulk field lands in `*bulk` when
  // the caller passes a slot and the connection is unsealed; otherwise it is
  // spliced into the returned bytes.
  [[nodiscard]] Result<Bytes> HandleCall(uint64_t conn_id, NodeId client_node, Bytes request,
                                         SimTime arrival, SimTime* completion,
                                         std::optional<Bulk>* bulk = nullptr);

  // Called from the client connection's destructor, i.e. potentially from
  // the client's shard. Known cross-shard touch when sharded: a mid-run
  // teardown erases server-side state from the client's thread. Today every
  // connection teardown in the tree happens quiescently (prologue/epilogue,
  // crash orchestration) or on the server's own shard; the lint rule keeps
  // new callers honest.
  ITC_SHARD_FOREIGN void CloseConnection(uint64_t conn_id) { connections_.erase(conn_id); }

 private:
  friend class ClientConnection;

  NodeId node_;
  net::Network* network_;
  sim::CostModel cost_;
  RpcConfig config_;
  KeyLookup key_lookup_;
  uint64_t nonce_seed_;
  bool online_ = true;
  ITC_OWNED_BY_SHARD uint64_t next_connection_id_ = 1;
  Service* service_ = nullptr;
  sim::Resource cpu_;
  sim::Resource disk_;
  ITC_OWNED_BY_SHARD std::unordered_map<uint64_t, ConnState> connections_;
  ITC_OWNED_BY_SHARD RpcStats stats_;
  ITC_OWNED_BY_SHARD CallStats call_stats_;
  FaultInjector fault_;
};

// Optional client-stub wiring: the op schema of the service being called
// (resends need its idempotency flag; it labels rows) and a CallStats table
// to record the client-observed round trips into.
struct ClientOptions {
  const OpSchema* schema = nullptr;
  CallStats* stats = nullptr;
};

// Client side: an authenticated, encrypted connection from one user on one
// workstation to one server. Created via Connect(); each Call() advances the
// workstation's clock through the full network/server round trip.
class ClientConnection {
 public:
  // Establishes the connection, running the mutual handshake over the
  // simulated network. Fails with kAuthFailed if either side cannot prove
  // knowledge of the user's key.
  [[nodiscard]] static Result<std::unique_ptr<ClientConnection>> Connect(
      NodeId client_node, UserId user, const crypto::Key& user_key, ServerEndpoint* server,
      net::Network* network, const sim::CostModel& cost, sim::Clock* clock,
      uint64_t nonce_seed, ClientOptions options = {});

  ~ClientConnection();
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  // Performs one RPC: seals `request`, ships it to the server, runs the
  // service, ships the reply back, advancing the client clock to the moment
  // the reply has been decrypted. An attempt that takes longer than the
  // deadline fails kTimedOut; idempotent datagram calls are resent per the
  // retry policy. With a `bulk` slot the reply's bulk field may arrive there
  // instead of inline; read it with Reader::RefField when the call succeeds.
  // Every attempt starts by clearing the slot.
  [[nodiscard]] Result<Bytes> Call(uint32_t proc, const Bytes& request,
                                   std::optional<Bulk>* bulk = nullptr);

  UserId user() const { return user_; }
  NodeId server_node() const { return server_->node(); }
  ServerEndpoint* server() const { return server_; }

 private:
  ClientConnection(NodeId client_node, UserId user, ServerEndpoint* server,
                   net::Network* network, const sim::CostModel& cost, sim::Clock* clock,
                   uint64_t conn_id, crypto::SessionSecret secret, RpcConfig config,
                   ClientOptions options);

  // One wire attempt: frame, seal, ship, await, unseal.
  [[nodiscard]] Result<Bytes> SendOnce(uint32_t proc, const Bytes& request,
                                       std::optional<Bulk>* bulk);

  NodeId client_node_;
  UserId user_;
  ServerEndpoint* server_;
  net::Network* network_;
  sim::CostModel cost_;
  sim::Clock* clock_;
  uint64_t conn_id_;
  crypto::SessionSecret secret_;
  RpcConfig config_;
  ClientOptions options_;
  uint64_t seq_ = 0;
};

}  // namespace itc::rpc

#endif  // SRC_RPC_RPC_H_
