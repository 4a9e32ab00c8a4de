#include "common/byte_codec.hpp"

#include <istream>

namespace imrdmd {

ByteReader::ByteReader(std::istream& in) : in_(&in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return;  // non-seekable
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end != std::istream::pos_type(-1) && end >= pos) {
    remaining_ = static_cast<std::uint64_t>(end - pos);
  }
}

void ByteReader::require(std::uint64_t count, std::uint64_t unit,
                         const char* what) const {
  constexpr std::uint64_t kUnknownSizeCeiling = std::uint64_t{1} << 30;
  const std::uint64_t limit =
      remaining_ == kUnknown ? kUnknownSizeCeiling : remaining_;
  if (unit != 0 && count > limit / unit) {
    throw ParseError(std::string("input truncated (") + what + ")");
  }
}

void ByteReader::raw(void* dst, std::uint64_t size, const char* what) {
  require(size, 1, what);
  if (size == 0) return;
  if (in_ == nullptr) {
    std::memcpy(dst, at_, static_cast<std::size_t>(size));
    at_ += size;
  } else if (!in_->read(static_cast<char*>(dst),
                        static_cast<std::streamsize>(size))) {
    throw ParseError(std::string("input truncated (") + what + ")");
  }
  if (remaining_ != kUnknown) remaining_ -= size;
}

}  // namespace imrdmd
