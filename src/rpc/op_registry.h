// Typed operation registry for RPC services.
//
// Every service (the Vice file server, the protection server) describes its
// procedures once in an OpSchema — `{opcode, name, CallClass, idempotent,
// flags, wire docs}` — and binds handlers into an OpRegistry, the Service
// its server endpoint dispatches to, instead of a hand-rolled opcode switch.
// That gives every layer the same metadata: both ends label their CallStats
// rows from it, the endpoint's FaultInjector picks calls by class, the
// client stub resends only ops marked `idempotent` (§3.5.3 at-most-once
// semantics for mutators), and docs/PROTOCOL.md's opcode tables are rendered
// from it (RenderOpTable), so the document cannot drift from the code.

#ifndef SRC_RPC_OP_REGISTRY_H_
#define SRC_RPC_OP_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/rpc/call_stats.h"
#include "src/rpc/rpc.h"

namespace itc::rpc {

// Static description of one procedure. `flags` carries service-defined bits
// (e.g. vice::kOpChargesPathname); `request_doc`/`reply_doc` are the wire
// formats as they appear in docs/PROTOCOL.md (verbatim markdown).
struct OpSpec {
  uint32_t opcode = 0;
  std::string_view name;
  CallClass call_class = CallClass::kOther;
  bool idempotent = false;
  uint32_t flags = 0;
  std::string_view request_doc = "\xe2\x80\x94";  // "—"
  std::string_view reply_doc = "\xe2\x80\x94";
};

// The full, immutable procedure table of one service.
class OpSchema {
 public:
  OpSchema(std::string_view service_name, std::initializer_list<OpSpec> ops);

  std::string_view service_name() const { return service_name_; }
  // Ascending opcode order.
  const std::vector<OpSpec>& ops() const { return ops_; }
  const OpSpec* Find(uint32_t opcode) const;

 private:
  std::string_view service_name_;
  std::vector<OpSpec> ops_;
};

using OpHandler = std::function<Result<Bytes>(CallContext& ctx, const Bytes& request)>;

// Handler bindings for a schema. Dispatch of an opcode that is unknown or
// unbound yields kProtocolError — the same clean error a malformed request
// body produces, never a crash.
class OpRegistry : public Service {
 public:
  explicit OpRegistry(const OpSchema* schema);

  const OpSchema* schema() const override { return schema_; }

  // Dies (ITC_CHECK) if the opcode is not in the schema or is already bound:
  // both are wiring bugs, not runtime conditions.
  void Bind(uint32_t opcode, OpHandler handler);
  bool Bound(uint32_t opcode) const {
    return opcode < handlers_.size() && handlers_[opcode] != nullptr;
  }

  [[nodiscard]] Result<Bytes> Dispatch(CallContext& ctx, uint32_t opcode,
                                       const Bytes& request) override;

 private:
  const OpSchema* schema_;
  // Indexed by opcode, up to the schema's largest; empty where unbound.
  std::vector<OpHandler> handlers_;
};

// Renders the schema's opcode table as the GitHub-markdown block embedded in
// docs/PROTOCOL.md between BEGIN/END GENERATED markers; protocol_doc_test
// compares the two so the doc cannot drift.
std::string RenderOpTable(const OpSchema& schema);

}  // namespace itc::rpc

#endif  // SRC_RPC_OP_REGISTRY_H_
