// Composable interceptor chains for the RPC package.
//
// Server side, every decrypted call runs through the endpoint's chain:
//
//   tracing (CallStats) -> fault injection -> [dispatch + resource charging]
//
// Client side, every stub call runs through the connection's chain:
//
//   tracing (CallStats) -> retry/backoff -> deadline -> [seal + ship]
//
// The retry interceptor implements §3.5.3's RPC-level reliability for the
// datagram transport: only idempotent operations (per the op schema) are
// retried, so mutators keep at-most-once semantics. The fault-injection
// interceptor gives availability tests a seeded, deterministic way to fail a
// server (or drop individual replies) without poking server internals.

#ifndef SRC_RPC_INTERCEPTOR_H_
#define SRC_RPC_INTERCEPTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/function_ref.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/rpc/call_stats.h"
#include "src/rpc/op_registry.h"
#include "src/rpc/rpc.h"
#include "src/sim/clock.h"

namespace itc::rpc {

// --- Server side -------------------------------------------------------------

// Adversarial moments inside a mutating Vice operation at which a test can
// schedule a server crash (tentpole 4 of the crash-recovery subsystem). The
// server's handlers poll ConsumeCrashAt() at each point:
//   kBeforeLogAppend — crash before the intention is logged: the op leaves
//     no trace at all; after restart it is simply absent.
//   kAfterLogAppend — the intention is durable but uncommitted: recovery
//     must DISCARD it (the client never got a reply; §3.5 store-on-close
//     atomicity).
//   kBeforeReply — applied and committed, reply lost: recovery must REPLAY
//     it; the client sees a transport failure for a change that stuck.
enum class CrashPoint : uint8_t {
  kNone = 0,
  kBeforeLogAppend,
  kAfterLogAppend,
  kBeforeReply,
};

// Per-call metadata visible to server interceptors. `op` is null for opcodes
// outside the registered schema (including the legacy Service path).
// `arrival` may be pushed later by a delay-injecting interceptor; the
// terminal stage serves CPU/disk from it and stores the reply-departure time
// through `completion`, and the reply's bulk field, if any, in `bulk`.
struct ServerCallInfo {
  const OpSpec* op = nullptr;
  uint32_t opcode = 0;
  UserId user = kAnonymousUser;
  NodeId client_node = kInvalidNode;
  SimTime arrival = 0;
  SimTime* completion = nullptr;
  std::optional<Bulk> bulk;
};

// `Next` runs the rest of the chain. It refers to a callable owned by the
// caller of Intercept, so it is valid only during that call: an interceptor
// may call it any number of times but must not keep it.
class ServerInterceptor {
 public:
  using Next = FunctionRef<Result<Bytes>(const Bytes& request)>;

  virtual ~ServerInterceptor() = default;
  [[nodiscard]] virtual Result<Bytes> Intercept(ServerCallInfo& info, const Bytes& request,
                                                Next next) = 0;
};

class ServerInterceptorChain {
 public:
  // Interceptors are not owned; they run in insertion order (first added is
  // outermost).
  void Add(ServerInterceptor* interceptor) { interceptors_.push_back(interceptor); }

  [[nodiscard]] Result<Bytes> Run(ServerCallInfo& info, const Bytes& request,
                                  ServerInterceptor::Next terminal) const;

 private:
  [[nodiscard]] Result<Bytes> RunFrom(size_t index, ServerCallInfo& info, const Bytes& request,
                                      ServerInterceptor::Next terminal) const;

  std::vector<ServerInterceptor*> interceptors_;
};

// Records every call into a CallStats table: count, bytes in/out, latency
// (reply departure minus arrival), and the outcome status. For schema ops
// the application status is peeked from the reply prologue; transport-level
// failures are recorded under their own status code.
class ServerTracingInterceptor : public ServerInterceptor {
 public:
  explicit ServerTracingInterceptor(CallStats* stats) : stats_(stats) {}

  [[nodiscard]] Result<Bytes> Intercept(ServerCallInfo& info, const Bytes& request,
                                        Next next) override;

 private:
  CallStats* stats_;
};

// Seeded fault injection (drop / delay / error, filtered by call class via
// FaultConfig), plus two deterministic controls for tests:
//   * set_fail_all(true) — total outage: every call (and, via the endpoint,
//     every handshake) fails kUnavailable until cleared;
//   * DropNextReplies(n, cls) — the next n matching calls EXECUTE on the
//     server but their replies are lost, which is exactly the §3.5.3 case
//     that distinguishes retryable idempotent ops from at-most-once mutators.
class FaultInjectionInterceptor : public ServerInterceptor {
 public:
  explicit FaultInjectionInterceptor(uint64_t seed) : rng_(seed) {}

  void set_config(const FaultConfig& config) { config_ = config; }
  const FaultConfig& config() const { return config_; }

  void set_fail_all(bool v) { fail_all_ = v; }
  bool fail_all() const { return fail_all_; }

  void DropNextReplies(uint32_t n, std::optional<CallClass> only_class = std::nullopt) {
    drop_replies_ = n;
    drop_replies_class_ = only_class;
  }

  // After letting `skip` calls through, fails the next `count` calls with
  // `error` (not executed). Deterministic: lets a test target a specific
  // call inside a multi-RPC client operation (e.g. the trailing Close of
  // ReadWholeFile) without guessing at seeded probabilities.
  void FailCalls(uint32_t skip, uint32_t count, Status error = Status::kUnavailable) {
    fail_skip_ = skip;
    fail_count_ = count;
    fail_error_ = error;
  }

  // Arms a one-shot crash at `point`: the next handler that polls
  // ConsumeCrashAt(point) sees true (and the armed point clears). The
  // handler then calls ViceServer::SimulateCrash and aborts the call.
  void ArmCrash(CrashPoint point) { armed_crash_ = point; }
  CrashPoint armed_crash() const { return armed_crash_; }
  bool ConsumeCrashAt(CrashPoint point) {
    if (armed_crash_ != point || point == CrashPoint::kNone) return false;
    armed_crash_ = CrashPoint::kNone;
    return true;
  }

  [[nodiscard]] Result<Bytes> Intercept(ServerCallInfo& info, const Bytes& request,
                                        Next next) override;

 private:
  static bool Matches(const ServerCallInfo& info, const std::optional<CallClass>& only);

  FaultConfig config_;
  Rng rng_;
  bool fail_all_ = false;
  uint32_t drop_replies_ = 0;
  std::optional<CallClass> drop_replies_class_;
  uint32_t fail_skip_ = 0;
  uint32_t fail_count_ = 0;
  Status fail_error_ = Status::kUnavailable;
  CrashPoint armed_crash_ = CrashPoint::kNone;
};

// --- Client side -------------------------------------------------------------

struct ClientCallInfo {
  const OpSpec* op = nullptr;
  uint32_t opcode = 0;
  NodeId server_node = kInvalidNode;
  sim::Clock* clock = nullptr;
  Transport transport = Transport::kDatagram;
  uint32_t attempts = 1;  // total send attempts (retries bump it)
  // The caller's slot for the reply's bulk field (null: the reply arrives
  // inline); filled by the terminal stage of a successful attempt.
  std::optional<Bulk>* bulk = nullptr;
};

// As ServerInterceptor::Next: valid only during the Intercept call.
class ClientInterceptor {
 public:
  using Next = FunctionRef<Result<Bytes>(const Bytes& request)>;

  virtual ~ClientInterceptor() = default;
  [[nodiscard]] virtual Result<Bytes> Intercept(ClientCallInfo& info, const Bytes& request,
                                                Next next) = 0;
};

class ClientInterceptorChain {
 public:
  void Add(std::unique_ptr<ClientInterceptor> interceptor) {
    interceptors_.push_back(std::move(interceptor));
  }
  bool empty() const { return interceptors_.empty(); }

  [[nodiscard]] Result<Bytes> Run(ClientCallInfo& info, const Bytes& request,
                                  ClientInterceptor::Next terminal) const;

 private:
  [[nodiscard]] Result<Bytes> RunFrom(size_t index, ClientCallInfo& info, const Bytes& request,
                                      ClientInterceptor::Next terminal) const;

  std::vector<std::unique_ptr<ClientInterceptor>> interceptors_;
};

// Client-side view of the same per-op accounting: latency is the full round
// trip including retries and backoff, as the workstation experienced it.
class ClientTracingInterceptor : public ClientInterceptor {
 public:
  explicit ClientTracingInterceptor(CallStats* stats) : stats_(stats) {}

  [[nodiscard]] Result<Bytes> Intercept(ClientCallInfo& info, const Bytes& request,
                                        Next next) override;

 private:
  CallStats* stats_;
};

// Retries transport failures (kUnavailable, kTimedOut) with doubling backoff
// — datagram transport only, idempotent ops only (§3.5.3: the stream
// transport already guarantees delivery; mutators must stay at-most-once).
class RetryInterceptor : public ClientInterceptor {
 public:
  explicit RetryInterceptor(RetryPolicy policy) : policy_(policy) {}

  [[nodiscard]] Result<Bytes> Intercept(ClientCallInfo& info, const Bytes& request,
                                        Next next) override;

 private:
  RetryPolicy policy_;
};

// Converts any attempt whose round trip exceeds `deadline` into kTimedOut.
// Sits inside the retry interceptor, so the deadline is per attempt and a
// timed-out idempotent call is retried.
class DeadlineInterceptor : public ClientInterceptor {
 public:
  explicit DeadlineInterceptor(SimTime deadline) : deadline_(deadline) {}

  [[nodiscard]] Result<Bytes> Intercept(ClientCallInfo& info, const Bytes& request,
                                        Next next) override;

 private:
  SimTime deadline_;
};

}  // namespace itc::rpc

#endif  // SRC_RPC_INTERCEPTOR_H_
