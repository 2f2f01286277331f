// Slash-separated path utilities shared by the local file system (unixfs),
// Venus, and Vice. Paths are Unix-style: absolute paths begin with '/',
// components are separated by single slashes, "." and ".." are resolved by
// the file-system layers (not here).

#ifndef SRC_COMMON_PATH_H_
#define SRC_COMMON_PATH_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace itc {

// Walks a path's components left to right as views into the path, which
// must outlive them: "//a///b/" yields "a", then "b". Empty components
// (leading, duplicate and trailing slashes) are skipped; "." and ".." are
// components like any other.
class PathCursor {
 public:
  explicit PathCursor(std::string_view path) : rest_(path) {}

  // Sets *component to the next component; false once none is left.
  bool Next(std::string_view* component) {
    const size_t start = rest_.find_first_not_of('/');
    if (start == std::string_view::npos) {
      rest_.remove_prefix(rest_.size());
      return false;
    }
    const size_t end = std::min(rest_.find('/', start), rest_.size());
    *component = rest_.substr(start, end - start);
    rest_.remove_prefix(end);
    return true;
  }
  // True when Next would return false.
  bool AtEnd() const { return rest_.find_first_not_of('/') == std::string_view::npos; }
  // The text after the last component returned, as written: "/c//d/" after
  // "b" in "/a/b/c//d/".
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

// A walk's trail of directories, most recent last: the first N entries live
// inline, deeper walks spill onto the heap.
template <typename T, size_t N = 16>
class Breadcrumbs {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const T& operator[](size_t i) const { return i < N ? inline_[i] : spill_[i - N]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) {
    if (size_ < N) {
      inline_[size_] = v;
    } else {
      spill_.push_back(v);
    }
    size_ += 1;
  }
  void pop_back() {
    size_ -= 1;
    if (size_ >= N) spill_.pop_back();
  }
  void clear() {
    size_ = 0;
    spill_.clear();
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> spill_;
  size_t size_ = 0;
};

// Splits "/a/b/c" or "a/b/c" into {"a","b","c"}: PathCursor's components as
// strings. "/" splits to {}.
std::vector<std::string> SplitPath(std::string_view path);

// Concatenates two paths with exactly one separating slash.
std::string PathConcat(std::string_view base, std::string_view rest);

// True if `path` equals `prefix` or is beneath it ("/a/b" is under "/a").
bool PathHasPrefix(std::string_view path, std::string_view prefix);

// "/a/b/c" -> "c"; "/" -> "".
std::string_view Basename(std::string_view path);

// "/a/b/c" -> "/a/b"; "/a" -> "/"; "/" -> "/".
std::string_view Dirname(std::string_view path);

// True for names legal as a single directory entry: nonempty, no '/',
// not "." or "..", and at most kMaxNameLength bytes.
bool IsValidName(std::string_view name);

inline constexpr size_t kMaxNameLength = 255;
inline constexpr int kMaxSymlinkDepth = 16;

}  // namespace itc

#endif  // SRC_COMMON_PATH_H_
