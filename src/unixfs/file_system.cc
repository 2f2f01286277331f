#include "src/unixfs/file_system.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/path.h"

namespace itc::unixfs {

FileSystem::FileSystem() {
  Inode root;
  root.type = FileType::kDirectory;
  root.mode = kDefaultDirMode;
  root.link_count = 1;
  inodes_.emplace(kRootInode, std::move(root));
}

StatInfo FileSystem::MakeStat(InodeNum n, const Inode& inode) const {
  StatInfo s;
  s.inode = n;
  s.type = inode.type;
  s.mode = inode.mode;
  s.link_count = inode.link_count;
  s.size = inode.type == FileType::kRegular ? inode.data.size()
           : inode.type == FileType::kSymlink ? inode.symlink_target.size()
                                              : inode.entries.size();
  s.owner = inode.owner;
  s.mtime = inode.mtime;
  return s;
}

InodeNum FileSystem::AllocInode(FileType type, Mode mode, UserId owner) {
  Inode inode;
  inode.type = type;
  inode.mode = mode;
  inode.owner = owner;
  inode.mtime = now_;
  inode.link_count = 1;
  const InodeNum n = next_inode_++;
  inodes_.emplace(n, std::move(inode));
  return n;
}

void FileSystem::ReleaseData(Inode& inode) {
  total_data_bytes_ -= inode.data.size();
  inode.data = content::Ref();
}

void FileSystem::UnlinkInode(InodeNum n) {
  Inode& inode = Node(n);
  ITC_CHECK(inode.link_count > 0);
  if (--inode.link_count == 0) {
    ReleaseData(inode);
    inodes_.erase(n);
  }
}

Result<InodeNum> FileSystem::Resolve(std::string_view path, bool follow_final_symlink) const {
  return ResolveInternal(path, follow_final_symlink, 0);
}

Result<InodeNum> FileSystem::ResolveInternal(std::string_view path, bool follow_final,
                                             int depth) const {
  if (depth > kMaxSymlinkDepth) return Status::kSymlinkLoop;
  if (path.empty() || path.front() != '/') return Status::kInvalidArgument;

  const std::vector<std::string> components = SplitPath(path);
  std::vector<InodeNum> stack{kRootInode};
  std::vector<std::string> names;  // canonical path of stack.back()

  for (size_t i = 0; i < components.size(); ++i) {
    const std::string& comp = components[i];
    if (comp == ".") continue;
    if (comp == "..") {
      if (stack.size() > 1) {
        stack.pop_back();
        names.pop_back();
      }
      continue;
    }
    if (comp.size() > kMaxNameLength) return Status::kNameTooLong;

    const Inode& dir = Node(stack.back());
    if (dir.type != FileType::kDirectory) return Status::kNotDirectory;
    auto it = dir.entries.find(comp);
    if (it == dir.entries.end()) return Status::kNotFound;
    const InodeNum child = it->second;
    const Inode& child_inode = Node(child);

    const bool is_final = (i + 1 == components.size());
    if (child_inode.type == FileType::kSymlink && (!is_final || follow_final)) {
      // Splice the link target: absolute targets restart from the root,
      // relative targets continue from the current directory.
      std::string rest;
      for (size_t j = i + 1; j < components.size(); ++j) {
        rest += '/';
        rest += components[j];
      }
      std::string new_path;
      if (!child_inode.symlink_target.empty() && child_inode.symlink_target.front() == '/') {
        new_path = child_inode.symlink_target + rest;
      } else {
        new_path = JoinPath(names) + "/" + child_inode.symlink_target + rest;
      }
      return ResolveInternal(new_path, follow_final, depth + 1);
    }
    stack.push_back(child);
    names.push_back(comp);
  }
  return stack.back();
}

Result<FileSystem::ParentRef> FileSystem::ResolveParent(std::string_view path) const {
  if (path.empty() || path.front() != '/') return Status::kInvalidArgument;
  const std::string_view dir = Dirname(path);
  const std::string_view leaf = Basename(path);
  if (!IsValidName(leaf)) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(InodeNum parent, ResolveInternal(dir, /*follow_final=*/true, 0));
  if (Node(parent).type != FileType::kDirectory) return Status::kNotDirectory;
  return ParentRef{parent, std::string(leaf)};
}

Result<StatInfo> FileSystem::Stat(std::string_view path) const {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path, /*follow_final_symlink=*/true));
  return MakeStat(n, Node(n));
}

Result<StatInfo> FileSystem::LStat(std::string_view path) const {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path, /*follow_final_symlink=*/false));
  return MakeStat(n, Node(n));
}

Result<InodeNum> FileSystem::Create(std::string_view path, Mode mode, UserId owner) {
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(path));
  Inode& dir = Node(ref.parent);
  if (dir.entries.contains(ref.leaf)) return Status::kAlreadyExists;
  const InodeNum n = AllocInode(FileType::kRegular, mode, owner);
  dir.entries.emplace(ref.leaf, n);
  dir.mtime = now_;
  return n;
}

Status FileSystem::MkDir(std::string_view path, Mode mode, UserId owner) {
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(path));
  Inode& dir = Node(ref.parent);
  if (dir.entries.contains(ref.leaf)) return Status::kAlreadyExists;
  const InodeNum n = AllocInode(FileType::kDirectory, mode, owner);
  dir.entries.emplace(ref.leaf, n);
  dir.mtime = now_;
  return Status::kOk;
}

Status FileSystem::MkDirAll(std::string_view path, Mode mode, UserId owner) {
  if (path.empty() || path.front() != '/') return Status::kInvalidArgument;
  const std::vector<std::string> components = SplitPath(path);
  std::string prefix;
  for (const auto& comp : components) {
    prefix += '/';
    prefix += comp;
    auto resolved = Resolve(prefix);
    if (resolved.ok()) {
      if (Node(*resolved).type != FileType::kDirectory) return Status::kNotDirectory;
      continue;
    }
    if (resolved.status() != Status::kNotFound) return resolved.status();
    RETURN_IF_ERROR(MkDir(prefix, mode, owner));
  }
  return Status::kOk;
}

Status FileSystem::Symlink(std::string_view target, std::string_view link_path) {
  if (target.empty()) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(link_path));
  Inode& dir = Node(ref.parent);
  if (dir.entries.contains(ref.leaf)) return Status::kAlreadyExists;
  const InodeNum n = AllocInode(FileType::kSymlink, 0777, kAnonymousUser);
  Node(n).symlink_target = std::string(target);
  dir.entries.emplace(ref.leaf, n);
  dir.mtime = now_;
  return Status::kOk;
}

Result<std::string> FileSystem::ReadLink(std::string_view path) const {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path, /*follow_final_symlink=*/false));
  const Inode& inode = Node(n);
  if (inode.type != FileType::kSymlink) return Status::kNotSymlink;
  return inode.symlink_target;
}

Status FileSystem::HardLink(std::string_view existing, std::string_view new_path) {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(existing, /*follow_final_symlink=*/true));
  if (Node(n).type == FileType::kDirectory) return Status::kIsDirectory;
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(new_path));
  Inode& dir = Node(ref.parent);
  if (dir.entries.contains(ref.leaf)) return Status::kAlreadyExists;
  Node(n).link_count += 1;
  dir.entries.emplace(ref.leaf, n);
  dir.mtime = now_;
  return Status::kOk;
}

Status FileSystem::Unlink(std::string_view path) {
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(path));
  Inode& dir = Node(ref.parent);
  auto it = dir.entries.find(ref.leaf);
  if (it == dir.entries.end()) return Status::kNotFound;
  if (Node(it->second).type == FileType::kDirectory) return Status::kIsDirectory;
  const InodeNum victim = it->second;
  dir.entries.erase(it);
  dir.mtime = now_;
  UnlinkInode(victim);
  return Status::kOk;
}

Status FileSystem::RmDir(std::string_view path) {
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(path));
  Inode& dir = Node(ref.parent);
  auto it = dir.entries.find(ref.leaf);
  if (it == dir.entries.end()) return Status::kNotFound;
  Inode& victim = Node(it->second);
  if (victim.type != FileType::kDirectory) return Status::kNotDirectory;
  if (!victim.entries.empty()) return Status::kNotEmpty;
  const InodeNum n = it->second;
  dir.entries.erase(it);
  dir.mtime = now_;
  UnlinkInode(n);
  return Status::kOk;
}

void FileSystem::RemoveTreeRecursive(InodeNum n) {
  Inode& inode = Node(n);
  if (inode.type == FileType::kDirectory) {
    // Copy the child list: UnlinkInode mutates the map we are iterating.
    std::vector<InodeNum> children;
    children.reserve(inode.entries.size());
    for (const auto& [name, child] : inode.entries) children.push_back(child);
    inode.entries.clear();
    for (InodeNum child : children) RemoveTreeRecursive(child);
  }
  UnlinkInode(n);
}

Status FileSystem::RemoveAll(std::string_view path) {
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParent(path));
  Inode& dir = Node(ref.parent);
  auto it = dir.entries.find(ref.leaf);
  if (it == dir.entries.end()) return Status::kNotFound;
  const InodeNum victim = it->second;
  dir.entries.erase(it);
  dir.mtime = now_;
  RemoveTreeRecursive(victim);
  return Status::kOk;
}

bool FileSystem::IsAncestorOf(InodeNum maybe_ancestor, InodeNum node) const {
  if (maybe_ancestor == node) return true;
  const Inode& inode = Node(maybe_ancestor);
  if (inode.type != FileType::kDirectory) return false;
  for (const auto& [name, child] : inode.entries) {
    if (IsAncestorOf(child, node)) return true;
  }
  return false;
}

Status FileSystem::Rename(std::string_view from, std::string_view to) {
  ASSIGN_OR_RETURN(ParentRef src, ResolveParent(from));
  auto src_it = Node(src.parent).entries.find(src.leaf);
  if (src_it == Node(src.parent).entries.end()) return Status::kNotFound;
  const InodeNum moving = src_it->second;

  ASSIGN_OR_RETURN(ParentRef dst, ResolveParent(to));

  // A directory must not be moved into its own subtree.
  if (Node(moving).type == FileType::kDirectory && IsAncestorOf(moving, dst.parent)) {
    return Status::kInvalidArgument;
  }

  Inode& dst_dir = Node(dst.parent);
  auto dst_it = dst_dir.entries.find(dst.leaf);
  if (dst_it != dst_dir.entries.end()) {
    const InodeNum target = dst_it->second;
    if (target == moving) return Status::kOk;  // rename to itself
    Inode& target_inode = Node(target);
    if (Node(moving).type == FileType::kDirectory) {
      if (target_inode.type != FileType::kDirectory) return Status::kNotDirectory;
      if (!target_inode.entries.empty()) return Status::kNotEmpty;
    } else {
      if (target_inode.type == FileType::kDirectory) return Status::kIsDirectory;
    }
    dst_dir.entries.erase(dst_it);
    UnlinkInode(target);
  }

  Node(src.parent).entries.erase(src.leaf);
  Node(src.parent).mtime = now_;
  Node(dst.parent).entries.emplace(dst.leaf, moving);
  Node(dst.parent).mtime = now_;
  return Status::kOk;
}

Result<std::vector<DirEntry>> FileSystem::ReadDir(std::string_view path) const {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path));
  const Inode& dir = Node(n);
  if (dir.type != FileType::kDirectory) return Status::kNotDirectory;
  std::vector<DirEntry> out;
  out.reserve(dir.entries.size());
  for (const auto& [name, child] : dir.entries) {
    out.push_back(DirEntry{name, child, Node(child).type});
  }
  return out;
}

Result<Bytes> FileSystem::ReadFile(std::string_view path) const {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path));
  return ReadFileByInode(n);
}

Status FileSystem::WriteFile(std::string_view path, const Bytes& data) {
  // Canonicalizing on every write keeps cached copies of synthetic files
  // lazy: bytes collapse back to a ref the moment they come to rest.
  return WriteFileRef(path, content::Ref::Canonicalize(data));
}

Status FileSystem::WriteFileRef(std::string_view path, content::Ref data) {
  auto resolved = Resolve(path);
  InodeNum n;
  if (resolved.ok()) {
    n = *resolved;
  } else if (resolved.status() == Status::kNotFound) {
    // open(O_CREAT) semantics for a dangling symlink: create the target,
    // not a "file already exists" error at the link's own name.
    auto link = ReadLink(path);
    if (link.ok()) {
      std::string target = *link;
      if (target.empty() || target.front() != '/') {
        target = PathConcat(Dirname(path), target);
      }
      return WriteFileRef(target, std::move(data));
    }
    ASSIGN_OR_RETURN(n, Create(path));
  } else {
    return resolved.status();
  }
  return WriteFileByInode(n, std::move(data));
}

Status FileSystem::Chmod(std::string_view path, Mode mode) {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path));
  Node(n).mode = mode;
  return Status::kOk;
}

Status FileSystem::Chown(std::string_view path, UserId owner) {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path));
  Node(n).owner = owner;
  return Status::kOk;
}

Status FileSystem::SetMTime(std::string_view path, SimTime mtime) {
  ASSIGN_OR_RETURN(InodeNum n, Resolve(path));
  Node(n).mtime = mtime;
  return Status::kOk;
}

Result<StatInfo> FileSystem::StatInode(InodeNum inode) const {
  auto it = inodes_.find(inode);
  if (it == inodes_.end()) return Status::kNotFound;
  return MakeStat(inode, it->second);
}

Result<Bytes> FileSystem::ReadFileByInode(InodeNum inode) const {
  ASSIGN_OR_RETURN(content::Ref data, ReadRefByInode(inode));
  return data.Materialize();
}

Result<content::Ref> FileSystem::ReadRefByInode(InodeNum inode) const {
  auto it = inodes_.find(inode);
  if (it == inodes_.end()) return Status::kNotFound;
  if (it->second.type == FileType::kDirectory) return Status::kIsDirectory;
  if (it->second.type == FileType::kSymlink) return Status::kInvalidArgument;
  return it->second.data;
}

Status FileSystem::WriteFileByInode(InodeNum inode, content::Ref data) {
  auto it = inodes_.find(inode);
  if (it == inodes_.end()) return Status::kNotFound;
  Inode& node = it->second;
  if (node.type == FileType::kDirectory) return Status::kIsDirectory;
  if (node.type == FileType::kSymlink) return Status::kInvalidArgument;
  if (data.size() > kMaxFileSize) return Status::kFileTooLarge;
  total_data_bytes_ -= node.data.size();
  node.data = std::move(data);
  total_data_bytes_ += node.data.size();
  node.mtime = now_;
  return Status::kOk;
}

Result<Bytes> FileSystem::ReadAt(InodeNum inode, uint64_t offset, uint64_t length) const {
  auto it = inodes_.find(inode);
  if (it == inodes_.end()) return Status::kNotFound;
  const Inode& node = it->second;
  if (node.type != FileType::kRegular) return Status::kInvalidArgument;
  return node.data.Slice(offset, length);
}

Status FileSystem::WriteAt(InodeNum inode, uint64_t offset, const Bytes& data) {
  auto it = inodes_.find(inode);
  if (it == inodes_.end()) return Status::kNotFound;
  Inode& node = it->second;
  if (node.type != FileType::kRegular) return Status::kInvalidArgument;
  // Bound before adding: offset comes off the wire in the remote-open
  // baseline, and unchecked offset+size would overflow past the resize.
  if (offset > kMaxFileSize || data.size() > kMaxFileSize - offset) {
    return Status::kFileTooLarge;
  }
  const uint64_t end = offset + data.size();
  total_data_bytes_ -= node.data.size();
  Bytes full = node.data.Materialize();
  if (end > full.size()) full.resize(end, 0);
  std::copy(data.begin(), data.end(), full.begin() + static_cast<ptrdiff_t>(offset));
  node.data = content::Ref::Canonicalize(std::move(full));
  total_data_bytes_ += node.data.size();
  node.mtime = now_;
  return Status::kOk;
}

Status FileSystem::Truncate(InodeNum inode, uint64_t size) {
  auto it = inodes_.find(inode);
  if (it == inodes_.end()) return Status::kNotFound;
  Inode& node = it->second;
  if (node.type != FileType::kRegular) return Status::kInvalidArgument;
  if (size > kMaxFileSize) return Status::kFileTooLarge;
  total_data_bytes_ -= node.data.size();
  if (size <= node.data.gen_len()) {
    // The generative stream is prefix-stable: shrinking within the prefix
    // needs no bytes at all.
    node.data = content::Ref::Generative(node.data.phase(), size);
  } else if (size <= node.data.size()) {
    node.data = content::Ref::Canonicalize(node.data.Slice(0, size));
  } else {
    Bytes full = node.data.Materialize();
    full.resize(size, 0);
    node.data = content::Ref::Canonicalize(std::move(full));
  }
  total_data_bytes_ += node.data.size();
  node.mtime = now_;
  return Status::kOk;
}

uint64_t FileSystem::RetainedContentBytes(std::unordered_set<const void*>* seen) const {
  uint64_t total = 0;
  for (const auto& [n, inode] : inodes_) total += inode.data.RetainedBytes(seen);
  return total;
}

}  // namespace itc::unixfs
