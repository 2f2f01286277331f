#include "src/vice/vnode.h"

#include <optional>

#include "src/rpc/wire.h"

namespace itc::vice {

namespace {

// The fixed-size part of an entry after its name: kind (1 byte), fid (12)
// and mount volume (4), as SerializeDirectory writes them.
constexpr size_t kTailBytes = 1 + rpc::kFidWireBytes + 4;

// An entry's tail, decoded only when a visitor asks for it.
class EntryTail {
 public:
  explicit EntryTail(const uint8_t* p) : p_(p) {}
  DirItem Decode() const {
    DirItem item;
    item.kind = static_cast<DirItem::Kind>(p_[0]);
    item.fid = Fid{rpc::LoadU32(p_ + 1), rpc::LoadU32(p_ + 5), rpc::LoadU32(p_ + 9)};
    item.mount_volume = rpc::LoadU32(p_ + 13);
    return item;
  }

 private:
  const uint8_t* p_;
};

// The one decoder of the directory entry format. Walks every entry of `data`
// through `visit(name, tail)`, where `name` is a view into `data` and
// `tail.Decode()` yields the entry's DirItem, and validates the whole
// buffer: kProtocolError on a kind above 3, truncation or trailing bytes.
// One check per entry covers its name and tail, in 64-bit arithmetic so no
// name length can wrap it.
template <typename Visit>
Status ForEachEntry(const Bytes& data, Visit visit) {
  const size_t size = data.size();
  if (size < 4) return Status::kProtocolError;
  const uint8_t* const base = data.data();
  const uint32_t count = rpc::LoadU32(base);
  size_t pos = 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (size - pos < 4) return Status::kProtocolError;
    const uint64_t name_len = rpc::LoadU32(base + pos);
    pos += 4;
    if (size - pos < name_len + kTailBytes) return Status::kProtocolError;
    const std::string_view name(reinterpret_cast<const char*>(base + pos), name_len);
    pos += name_len;
    if (base[pos] > 3) return Status::kProtocolError;
    visit(name, EntryTail(base + pos));
    pos += kTailBytes;
  }
  if (pos != size) return Status::kProtocolError;
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
  RETURN_IF_ERROR(ForEachEntry(data, [&out](std::string_view name, EntryTail tail) {
    out.emplace(name, tail.Decode());
  }));
  return out;
}

Result<DirItem> LookupDirectory(const Bytes& data, std::string_view name) {
  std::optional<DirItem> found;
  RETURN_IF_ERROR(ForEachEntry(data, [&](std::string_view entry, EntryTail tail) {
    // The first of duplicate names wins, as DeserializeDirectory's emplace.
    if (!found && entry == name) found = tail.Decode();
  }));
  if (!found) return Status::kNotFound;
  return *found;
}

}  // namespace itc::vice
