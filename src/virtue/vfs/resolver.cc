#include "src/virtue/vfs/resolver.h"

#include "src/common/path.h"

namespace itc::virtue::vfs {

namespace {

// Mount prefixes match only paths with single slashes between components
// and none at the end.
bool HasSingleSlashes(std::string_view path) {
  return path.find("//") == std::string_view::npos && (path.size() == 1 || path.back() != '/');
}

// Appends "/<component>" to *out for each component of `path`.
void AppendComponents(std::string_view path, std::string* out) {
  PathCursor cursor(path);
  for (std::string_view component; cursor.Next(&component);) {
    *out += '/';
    *out += component;
  }
}

}  // namespace

Result<ResolvedPath> ResolvePath(const MountTable& table, std::string_view path,
                                 int* symlink_budget) {
  if (path.empty() || path.front() != '/') return Status::kInvalidArgument;

  // The text being walked, with single slashes: `path` itself unless it
  // needs rewriting or a symlink splices a target in. text[0, done) is
  // resolved ("" stands for "/").
  std::string owned;
  std::string_view text = path;
  if (!HasSingleSlashes(path)) {
    AppendComponents(path, &owned);
    text = owned;
  }
  size_t done = 0;

  auto finish = [&table](std::string_view full) -> Result<ResolvedPath> {
    if (full.empty()) full = "/";
    auto hit = table.Match(full);
    if (!hit) return Status::kNotFound;
    return ResolvedPath{hit->mount, std::string(hit->prefix), MountRelative(full, hit->prefix)};
  };

  PathCursor cursor(text);
  for (std::string_view comp; cursor.Next(&comp);) {
    const std::string_view candidate =
        text.substr(0, static_cast<size_t>(comp.data() - text.data()) + comp.size());
    auto hit = table.Match(candidate);
    if (!hit) return Status::kNotFound;
    // Crossed into a non-root mount. From here ownership is textual: the
    // longest prefix of the whole path picks the owner, so a mount at
    // /vice/pc shadows the one at /vice.
    if (hit->prefix != "/") return finish(text);

    if (hit->mount->resolves_locally()) {
      auto lst = hit->mount->LStat(candidate);
      if (lst.ok() && lst->type == FileInfo::Type::kSymlink) {
        if (++*symlink_budget > kMaxSymlinkDepth) return Status::kSymlinkLoop;
        ASSIGN_OR_RETURN(std::string target, hit->mount->ReadTarget(candidate));
        // Walk the target's components, then the unconsumed rest (built
        // apart: the rest may point into `owned`). An absolute target
        // restarts at the workstation root; a relative one continues from
        // the directory holding the link.
        if (!target.empty() && target.front() == '/') done = 0;
        std::string next(text.substr(0, done));
        AppendComponents(target, &next);
        AppendComponents(cursor.rest(), &next);
        owned = std::move(next);
        text = owned;
        cursor = PathCursor(text.substr(done));
        continue;
      }
    }
    // Missing components are fine (creation paths); they stay on this
    // mount since they cannot be symlinks.
    done = candidate.size();
  }
  return finish(text.substr(0, done));
}

}  // namespace itc::virtue::vfs
