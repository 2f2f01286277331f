// Deterministic fault injection at a server endpoint.
//
// Availability and recovery tests fail a server, or single calls, through
// these controls instead of poking server internals. Every fault is a count
// the test sets, never a probability: a schedule generator that wants
// randomness owns its seed and calls these.

#ifndef SRC_RPC_FAULT_INJECTOR_H_
#define SRC_RPC_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>

#include "src/common/status.h"
#include "src/rpc/call_stats.h"

namespace itc::rpc {

// Adversarial moments inside a mutating Vice operation at which a test can
// schedule a server crash. The server's handlers poll ConsumeCrashAt() at
// each point:
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

// The endpoint's fault controls (ServerEndpoint::fault()). `only_class`
// restricts a fault to calls of one class; calls of other classes, and of
// ops outside the service's schema, pass through and do not count.
class FaultInjector {
 public:
  // What happens to one call: `fail` non-OK answers it with that status
  // unexecuted; `drop_reply` executes it and loses the reply.
  struct Decision {
    Status fail = Status::kOk;
    bool drop_reply = false;
  };

  // Total outage: every call and every handshake is refused kUnavailable
  // until cleared, before the server records anything.
  void set_fail_all(bool v) { fail_all_ = v; }
  bool fail_all() const { return fail_all_; }

  // After letting `skip` matching calls through, fails the next `count`
  // with `error`. Lets a test target one call inside a multi-RPC client
  // operation (e.g. the trailing Close of ReadWholeFile).
  void FailCalls(uint32_t skip, uint32_t count, Status error = Status::kUnavailable,
                 std::optional<CallClass> only_class = std::nullopt) {
    fail_skip_ = skip;
    fail_count_ = count;
    fail_error_ = error;
    fail_class_ = only_class;
  }

  // The next `n` matching calls EXECUTE but their replies are lost: the
  // §3.5.3 case that tells retryable idempotent ops from at-most-once
  // mutators.
  void DropNextReplies(uint32_t n, std::optional<CallClass> only_class = std::nullopt) {
    drop_replies_ = n;
    drop_class_ = only_class;
  }

  // Arms a one-shot crash at `point`: the next handler that polls
  // ConsumeCrashAt(point) sees true (and the armed point clears). The
  // handler then calls ViceServer::SimulateCrash and aborts the call.
  void ArmCrash(CrashPoint point) { armed_crash_ = point; }
  bool ConsumeCrashAt(CrashPoint point) {
    if (armed_crash_ != point || point == CrashPoint::kNone) return false;
    armed_crash_ = CrashPoint::kNone;
    return true;
  }

  // Decides one call of class `call_class` (nullopt: outside the schema),
  // counting it against the fault it matches. FailCalls is checked first.
  Decision Decide(std::optional<CallClass> call_class) {
    if (fail_count_ > 0 && Matches(fail_class_, call_class)) {
      if (fail_skip_ > 0) {
        fail_skip_ -= 1;
      } else {
        fail_count_ -= 1;
        return {fail_error_, false};
      }
    }
    if (drop_replies_ > 0 && Matches(drop_class_, call_class)) {
      drop_replies_ -= 1;
      return {Status::kOk, true};
    }
    return {};
  }

 private:
  static bool Matches(std::optional<CallClass> only, std::optional<CallClass> call_class) {
    return !only.has_value() || call_class == only;
  }

  bool fail_all_ = false;
  uint32_t fail_skip_ = 0;
  uint32_t fail_count_ = 0;
  Status fail_error_ = Status::kUnavailable;
  std::optional<CallClass> fail_class_;
  uint32_t drop_replies_ = 0;
  std::optional<CallClass> drop_class_;
  CrashPoint armed_crash_ = CrashPoint::kNone;
};

}  // namespace itc::rpc

#endif  // SRC_RPC_FAULT_INJECTOR_H_
