#include "src/rpc/op_registry.h"

#include <algorithm>

#include "src/common/logging.h"

namespace itc::rpc {

OpSchema::OpSchema(std::string_view service_name, std::initializer_list<OpSpec> ops)
    : service_name_(service_name), ops_(ops) {
  std::sort(ops_.begin(), ops_.end(),
            [](const OpSpec& a, const OpSpec& b) { return a.opcode < b.opcode; });
  for (size_t i = 1; i < ops_.size(); ++i) {
    ITC_CHECK(ops_[i - 1].opcode != ops_[i].opcode);
  }
}

const OpSpec* OpSchema::Find(uint32_t opcode) const {
  auto it = std::lower_bound(
      ops_.begin(), ops_.end(), opcode,
      [](const OpSpec& op, uint32_t code) { return op.opcode < code; });
  if (it == ops_.end() || it->opcode != opcode) return nullptr;
  return &*it;
}

OpRegistry::OpRegistry(const OpSchema* schema) : schema_(schema) {
  ITC_CHECK(schema_ != nullptr);
  if (!schema_->ops().empty()) handlers_.resize(schema_->ops().back().opcode + 1);
}

void OpRegistry::Bind(uint32_t opcode, OpHandler handler) {
  ITC_CHECK(schema_->Find(opcode) != nullptr);
  ITC_CHECK(!Bound(opcode));
  handlers_[opcode] = std::move(handler);
}

Result<Bytes> OpRegistry::Dispatch(CallContext& ctx, uint32_t opcode, const Bytes& request) {
  if (!Bound(opcode)) return Status::kProtocolError;
  return handlers_[opcode](ctx, request);
}

std::string RenderOpTable(const OpSchema& schema) {
  std::string out;
  out += "| proc | name | class | idempotent | request body | OK reply payload |\n";
  out += "|---:|---|---|---|---|---|\n";
  for (const OpSpec& op : schema.ops()) {
    out += "| " + std::to_string(op.opcode) + " | ";
    out += op.name;
    out += " | ";
    out += CallClassName(op.call_class);
    out += op.idempotent ? " | yes | " : " | no | ";
    out += op.request_doc;
    out += " | ";
    out += op.reply_doc;
    out += " |\n";
  }
  return out;
}

}  // namespace itc::rpc
