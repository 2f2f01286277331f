// Wire-format serialization for RPC requests and replies.
//
// A deliberately simple, explicit little-endian format: fixed-width
// integers, length-prefixed strings/byte-strings. Writer never fails;
// Reader is bounds-checked and returns kProtocolError on malformed input
// (which, combined with the encrypted envelope's integrity check, means a
// tampered or truncated message can never be misinterpreted).
//
// One byte-string field of a reply may travel as a Bulk: the field's
// contents as a content::Ref beside the control bytes, which hold only its
// length. Splice() rebuilds the inline layout, so the bytes a message
// denotes never depend on how the field travelled.

#ifndef SRC_RPC_WIRE_H_
#define SRC_RPC_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/content.h"
#include "src/common/fid.h"
#include "src/common/result.h"
#include "src/common/types.h"

namespace itc::rpc {

// Wire sizes of the items a count can precede, for Reader::Count.
inline constexpr size_t kFidWireBytes = 12;        // PutFid
inline constexpr size_t kStringMinWireBytes = 4;   // PutString: the length alone

// A byte-string field carried beside a reply's control bytes (§3.5.3: a
// whole file moves as a side effect of the call). The control bytes hold
// the field's 4-byte length; `offset` is where its contents would follow.
struct Bulk {
  content::Ref data;
  size_t offset = 0;
};

inline uint64_t BulkSize(const std::optional<Bulk>& bulk) {
  return bulk.has_value() ? bulk->data.size() : 0;
}

// The inline layout of `control` with `bulk`'s contents at their offset.
inline Bytes Splice(const Bytes& control, const Bulk& bulk) {
  const Bytes data = bulk.data.Materialize();
  const auto at = control.begin() + static_cast<ptrdiff_t>(bulk.offset);
  Bytes out;
  out.reserve(control.size() + data.size());
  out.insert(out.end(), control.begin(), at);
  out.insert(out.end(), data.begin(), data.end());
  out.insert(out.end(), at, control.end());
  return out;
}

// The little-endian 32-bit field at `p`, as Writer::PutU32 lays it out. The
// caller has checked that four bytes are there.
inline uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void PutBytes(const Bytes& b) {
    PutU32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void PutFid(const Fid& f) {
    PutU32(f.volume);
    PutU32(f.vnode);
    PutU32(f.uniquifier);
  }
  void PutStatus(Status s) { PutU32(static_cast<uint32_t>(s)); }
  // Writes the length of a byte-string field whose contents travel as the
  // returned Bulk instead of inline.
  [[nodiscard]] Bulk PutBulk(content::Ref data) {
    PutU32(static_cast<uint32_t>(data.size()));
    return Bulk{std::move(data), buf_.size()};
  }

  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  [[nodiscard]] Result<uint8_t> U8() {
    if (pos_ + 1 > buf_.size()) return Status::kProtocolError;
    return buf_[pos_++];
  }
  [[nodiscard]] Result<uint32_t> U32() {
    if (pos_ + 4 > buf_.size()) return Status::kProtocolError;
    const uint32_t v = LoadU32(buf_.data() + pos_);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] Result<uint64_t> U64() {
    if (pos_ + 8 > buf_.size()) return Status::kProtocolError;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] Result<int64_t> I64() {
    ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  [[nodiscard]] Result<bool> Bool() {
    ASSIGN_OR_RETURN(uint8_t v, U8());
    return v != 0;
  }
  [[nodiscard]] Result<std::string> String() {
    ASSIGN_OR_RETURN(std::string_view s, StringView());
    return std::string(s);
  }
  // The same field as String(), as a view into the buffer being read: valid
  // only while that buffer lives, but free of any allocation.
  [[nodiscard]] Result<std::string_view> StringView() {
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (pos_ + n > buf_.size()) return Status::kProtocolError;
    std::string_view s(reinterpret_cast<const char*>(buf_.data()) + pos_, n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] Result<Bytes> BytesField() {
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (pos_ + n > buf_.size()) return Status::kProtocolError;
    Bytes b(buf_.begin() + static_cast<ptrdiff_t>(pos_),
            buf_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }
  // Reads a byte-string field that may have travelled as `bulk`: the bulk's
  // contents when it belongs at this field, else the inline bytes as a
  // canonical ref. Either way the result denotes the same bytes.
  [[nodiscard]] Result<content::Ref> RefField(const std::optional<Bulk>& bulk) {
    if (!bulk.has_value()) {
      ASSIGN_OR_RETURN(Bytes inline_bytes, BytesField());
      return content::Ref::Canonicalize(std::move(inline_bytes));
    }
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (bulk->offset != pos_ || bulk->data.size() != n) return Status::kProtocolError;
    return bulk->data;
  }
  // Reads the count of the items that follow, each at least
  // `min_item_bytes` on the wire; kProtocolError when the remaining bytes
  // cannot hold that many, so a hostile count never sizes an allocation.
  [[nodiscard]] Result<uint32_t> Count(size_t min_item_bytes) {
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > remaining() / min_item_bytes) return Status::kProtocolError;
    return n;
  }
  [[nodiscard]] Result<Fid> FidField() {
    Fid f;
    ASSIGN_OR_RETURN(f.volume, U32());
    ASSIGN_OR_RETURN(f.vnode, U32());
    ASSIGN_OR_RETURN(f.uniquifier, U32());
    return f;
  }
  // Reads a Status encoded by PutStatus into *out. The return value reports
  // whether decoding succeeded; *out may itself be any (non-)OK Status.
  [[nodiscard]] Status ReadStatus(Status* out) {
    ASSIGN_OR_RETURN(uint32_t v, U32());
    *out = static_cast<Status>(v);
    return Status::kOk;
  }

  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  const Bytes& buf_;
  size_t pos_ = 0;
};

// Encodes a reply carrying only a status code — the error shape every
// service shares.
inline Bytes StatusOnlyReply(Status s) {
  Writer w;
  w.PutStatus(s);
  return w.Take();
}

// Consumes a reply's status prologue and returns it; kProtocolError if the
// buffer is too short. Callers: RETURN_IF_ERROR(rpc::ExpectOk(r)); or
// `return rpc::ExpectOk(r);` for status-only replies.
[[nodiscard]] inline Status ExpectOk(Reader& r) {
  Status st = Status::kOk;
  RETURN_IF_ERROR(r.ReadStatus(&st));
  return st;
}

}  // namespace itc::rpc

#endif  // SRC_RPC_WIRE_H_
