#include "src/vice/vnode.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "src/rpc/wire.h"

namespace itc::vice {

namespace {

// The fixed-size part of an entry after its name: kind (1 byte), fid (12)
// and mount volume (4), as SerializeDirectory writes them.
constexpr size_t kTailBytes = 1 + rpc::kFidWireBytes + 4;
// The smallest entry: a name's length field and a tail.
constexpr size_t kMinEntryBytes = 4 + kTailBytes;

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

DirIndex::DirIndex(std::shared_ptr<const Bytes> buffer) : buffer_(std::move(buffer)) {
  const Bytes& data = *buffer_;
  // Offsets are 32-bit: a buffer past 4 GiB, four times the largest file a
  // file system here holds, reads as malformed.
  if (data.size() > UINT32_MAX) {
    status_ = Status::kProtocolError;
    return;
  }
  // One allocation: the entry count, clamped to what the bytes can hold so
  // a hostile count never sizes it.
  if (data.size() >= 4) {
    const size_t fits = (data.size() - 4) / kMinEntryBytes;
    offsets_.reserve(std::min<size_t>(rpc::LoadU32(data.data()), fits));
  }
  status_ = ForEachEntry(data, [&](std::string_view name, EntryTail) {
    offsets_.push_back(static_cast<uint32_t>(
        reinterpret_cast<const uint8_t*>(name.data()) - data.data() - 4));
  });
  if (status_ != Status::kOk) return;
  std::stable_sort(offsets_.begin(), offsets_.end(),
                   [this](uint32_t a, uint32_t b) { return NameAt(a) < NameAt(b); });
}

std::shared_ptr<const DirIndex> DirIndex::Of(std::shared_ptr<const Bytes> buffer) {
  // Keyed by the buffer's address. A live index holds its buffer, so the
  // address of a live entry still names that buffer; a dead entry is
  // replaced, and swept every 1024 builds.
  struct Table {
    std::mutex mu;
    std::unordered_map<const Bytes*, std::weak_ptr<const DirIndex>> indexes;
    size_t builds_since_sweep = 0;
  };
  static Table* const table = new Table();
  std::lock_guard<std::mutex> lock(table->mu);
  std::weak_ptr<const DirIndex>& slot = table->indexes[buffer.get()];
  if (auto live = slot.lock()) return live;
  auto index = std::make_shared<const DirIndex>(std::move(buffer));
  slot = index;
  if (++table->builds_since_sweep >= 1024) {
    table->builds_since_sweep = 0;
    std::erase_if(table->indexes, [](const auto& entry) { return entry.second.expired(); });
  }
  return index;
}

std::string_view DirIndex::NameAt(uint32_t offset) const {
  const uint8_t* const p = buffer_->data() + offset;
  return {reinterpret_cast<const char*>(p + 4), rpc::LoadU32(p)};
}

Result<DirItem> DirIndex::Find(std::string_view name) const {
  RETURN_IF_ERROR(status_);
  // The first offset whose name is not below `name`: with a stable sort,
  // the first of duplicate names.
  const auto it = std::partition_point(offsets_.begin(), offsets_.end(),
                                       [&](uint32_t offset) { return NameAt(offset) < name; });
  if (it == offsets_.end() || NameAt(*it) != name) return Status::kNotFound;
  return EntryTail(buffer_->data() + *it + 4 + name.size()).Decode();
}

Result<std::vector<std::string>> DirIndex::Names() const {
  RETURN_IF_ERROR(status_);
  std::vector<std::string> names;
  names.reserve(offsets_.size());
  for (const uint32_t offset : offsets_) {
    const std::string_view name = NameAt(offset);
    if (names.empty() || names.back() != name) names.emplace_back(name);
  }
  return names;
}

}  // namespace itc::vice
