#include "src/common/path.h"

namespace itc {

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> out;
  PathCursor cursor(path);
  for (std::string_view component; cursor.Next(&component);) out.emplace_back(component);
  return out;
}

std::string PathConcat(std::string_view base, std::string_view rest) {
  while (!base.empty() && base.back() == '/') base.remove_suffix(1);
  while (!rest.empty() && rest.front() == '/') rest.remove_prefix(1);
  std::string out(base);
  out += '/';
  out += rest;
  return out;
}

bool PathHasPrefix(std::string_view path, std::string_view prefix) {
  while (prefix.size() > 1 && prefix.back() == '/') prefix.remove_suffix(1);
  if (prefix == "/") return !path.empty() && path.front() == '/';
  if (!path.starts_with(prefix)) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

std::string_view Basename(std::string_view path) {
  while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
  if (path == "/") return "";
  size_t pos = path.rfind('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

std::string_view Dirname(std::string_view path) {
  while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
  if (path == "/") return "/";
  size_t pos = path.rfind('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

bool IsValidName(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLength) return false;
  if (name == "." || name == "..") return false;
  return name.find('/') == std::string_view::npos;
}

}  // namespace itc
