#include "src/common/fid.h"

#include <charconv>
#include <ostream>

namespace itc {

std::string Fid::ToString() const {
  // "<volume>.<vnode>.<uniquifier>": three 32-bit decimals and two dots.
  char buf[3 * 10 + 2];
  char* const end = buf + sizeof(buf);
  char* p = std::to_chars(buf, end, volume).ptr;
  *p++ = '.';
  p = std::to_chars(p, end, vnode).ptr;
  *p++ = '.';
  p = std::to_chars(p, end, uniquifier).ptr;
  return std::string(buf, p);
}

std::ostream& operator<<(std::ostream& os, const Fid& fid) {
  return os << fid.ToString();
}

}  // namespace itc
