#include "src/virtue/vfs/mount_table.h"

#include "src/common/path.h"

namespace itc::virtue::vfs {

namespace {

// "/" or "/a/b" with every component a legal directory-entry name.
bool IsNormalizedPrefix(const std::string& prefix) {
  if (prefix == "/") return true;
  if (prefix.empty() || prefix.front() != '/' || prefix.back() == '/') return false;
  const std::vector<std::string> comps = SplitPath(prefix);
  if (comps.empty()) return false;
  size_t rebuilt = 0;
  for (const std::string& c : comps) {
    if (!IsValidName(c)) return false;
    rebuilt += 1 + c.size();
  }
  // Rejects duplicate slashes ("/a//b"), which SplitPath would hide.
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

std::optional<MountTable::Hit> MountTable::Match(const std::string& path) const {
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

std::vector<std::pair<std::string, Mount*>> MountTable::entries() const {
  return {mounts_.begin(), mounts_.end()};
}

std::string MountRelative(const std::string& path, const std::string& prefix) {
  if (prefix == "/") return path;
  if (path.size() == prefix.size()) return "/";
  return path.substr(prefix.size());
}

}  // namespace itc::virtue::vfs
