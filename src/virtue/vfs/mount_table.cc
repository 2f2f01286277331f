#include "src/virtue/vfs/mount_table.h"

#include "src/common/path.h"

namespace itc::virtue::vfs {

namespace {

// "/" or "/a/b" with every component a legal directory-entry name.
bool IsNormalizedPrefix(const std::string& prefix) {
  if (prefix == "/") return true;
  if (prefix.empty() || prefix.front() != '/' || prefix.back() == '/') return false;
  PathCursor cursor(prefix);
  size_t rebuilt = 0;
  for (std::string_view c; cursor.Next(&c);) {
    if (!IsValidName(c)) return false;
    rebuilt += 1 + c.size();
  }
  // Rejects duplicate slashes ("/a//b"), which the cursor skips.
  return rebuilt == prefix.size();
}

}  // namespace

Status MountTable::Add(const std::string& prefix, Mount* mount) {
  if (mount == nullptr) return Status::kInvalidArgument;
  if (!IsNormalizedPrefix(prefix)) return Status::kInvalidArgument;
  auto [it, inserted] = mounts_.emplace(prefix, mount);
  (void)it;
  return inserted ? Status::kOk : Status::kAlreadyExists;
}

Status MountTable::Remove(const std::string& prefix) {
  return mounts_.erase(prefix) != 0 ? Status::kOk : Status::kNotFound;
}

std::optional<MountTable::Hit> MountTable::Match(std::string_view path) const {
  std::optional<Hit> best;
  for (const auto& [prefix, mount] : mounts_) {
    if (!PathHasPrefix(path, prefix)) continue;
    if (!best || prefix.size() > best->prefix.size()) best = Hit{mount, prefix};
  }
  return best;
}

Mount* MountTable::AtExactly(const std::string& prefix) const {
  auto it = mounts_.find(prefix);
  return it == mounts_.end() ? nullptr : it->second;
}

std::string MountRelative(std::string_view path, std::string_view prefix) {
  if (prefix == "/") return std::string(path);
  if (path.size() == prefix.size()) return "/";
  return std::string(path.substr(prefix.size()));
}

}  // namespace itc::virtue::vfs
