#include "src/common/fid.h"

#include <charconv>
#include <initializer_list>
#include <ostream>

namespace itc {

std::string Fid::ToString() const {
  // "<volume>.<vnode>.<uniquifier>". Each 32-bit decimal is written into a
  // field of ten bytes, its most digits, and followed by a dot, so every
  // write provably stays in `buf`; the last dot is not returned.
  char buf[3 * 11];
  char* p = buf;
  for (const uint32_t part : {volume, vnode, uniquifier}) {
    p = std::to_chars(p, p + 10, part).ptr;
    *p++ = '.';
  }
  return std::string(buf, p - 1);
}

std::ostream& operator<<(std::ostream& os, const Fid& fid) {
  return os << fid.ToString();
}

}  // namespace itc
