#include "src/vice/vnode.h"

#include <optional>

#include "src/rpc/wire.h"

namespace itc::vice {

namespace {

// The one decoder of the directory entry format. Walks every entry of `data`
// through `visit(name, item)`, where `name` is a view into `data`, and
// validates the whole buffer: kProtocolError on a kind above 3, truncation or
// trailing bytes.
template <typename Visit>
Status ForEachEntry(const Bytes& data, Visit visit) {
  rpc::Reader r(data);
  ASSIGN_OR_RETURN(uint32_t count, r.U32());
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string_view name, r.StringView());
    ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > 3) return Status::kProtocolError;
    DirItem item;
    item.kind = static_cast<DirItem::Kind>(kind);
    ASSIGN_OR_RETURN(item.fid, r.FidField());
    ASSIGN_OR_RETURN(item.mount_volume, r.U32());
    visit(name, item);
  }
  if (!r.AtEnd()) return Status::kProtocolError;
  return Status::kOk;
}

}  // namespace

Bytes SerializeDirectory(const DirMap& entries) {
  rpc::Writer w;
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [name, item] : entries) {
    w.PutString(name);
    w.PutU8(static_cast<uint8_t>(item.kind));
    w.PutFid(item.fid);
    w.PutU32(item.mount_volume);
  }
  return w.Take();
}

Result<DirMap> DeserializeDirectory(const Bytes& data) {
  DirMap out;
  RETURN_IF_ERROR(ForEachEntry(
      data, [&out](std::string_view name, const DirItem& item) { out.emplace(name, item); }));
  return out;
}

Result<DirItem> LookupDirectory(const Bytes& data, std::string_view name) {
  std::optional<DirItem> found;
  RETURN_IF_ERROR(ForEachEntry(data, [&](std::string_view entry, const DirItem& item) {
    // The first of duplicate names wins, as DeserializeDirectory's emplace.
    if (!found && entry == name) found = item;
  }));
  if (!found) return Status::kNotFound;
  return *found;
}

}  // namespace itc::vice
