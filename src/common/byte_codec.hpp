// The byte codec of every binary format in this library: the checkpoint
// images (IMRDMD1 model sections, the IMRDFL4 engine container, IMRDPT3
// delta parts), the IMRDWP1 wire and the IMRDJL1 journal. Words are
// little-endian and copied in host order, which the static_assert below
// pins, so a matrix's row-major buffer is its own encoding.
//
// ByteReader decodes an in-memory span or a std::istream, and bounds every
// read by the bytes actually there before it copies or allocates: truncated
// or corrupted input throws ParseError, never an over-read or a
// fantasy-sized allocation. A non-seekable stream has no known size, so
// each read there is held to a 1 GiB ceiling instead.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies host-order words: little-endian only");

namespace imrdmd {

class ByteWriter {
 public:
  void raw(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t at = bytes_.size();
    bytes_.resize(at + size);
    std::memcpy(bytes_.data() + at, data, size);
  }
  void u8(std::uint8_t value) { raw(&value, sizeof value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void f64(double value) { raw(&value, sizeof value); }

  /// rows and cols as u64, then the row-major elements.
  template <class Matrix>
  void matrix(const Matrix& m) {
    u64(m.rows());
    u64(m.cols());
    raw(m.data(), m.size() * sizeof(typename Matrix::value_type));
  }

  /// Overwrites the u64 already written at `offset`: a length known only
  /// once what it prefixes is written.
  void patch_u64(std::size_t offset, std::uint64_t value) {
    std::memcpy(bytes_.data() + offset, &value, sizeof value);
  }

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  /// remaining() of a stream whose size is unknown.
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};

  /// Decodes `bytes` in place; they must outlive the reader.
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : at_(bytes.data()), remaining_(bytes.size()) {}
  /// Decodes from the stream's position, bounded by its remaining size
  /// when it is seekable.
  explicit ByteReader(std::istream& in);

  std::uint64_t remaining() const { return remaining_; }

  /// Throws ParseError unless `count` items of `unit` bytes each can still
  /// be read. Computed by division, so a garbage count cannot wrap.
  void require(std::uint64_t count, std::uint64_t unit,
               const char* what) const;
  void raw(void* dst, std::uint64_t size, const char* what);

  std::uint8_t u8() { return word<std::uint8_t>(); }
  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }
  double f64() { return word<double>(); }

  template <class T>
  std::vector<T> array(std::uint64_t count, const char* what) {
    require(count, sizeof(T), what);
    std::vector<T> values(static_cast<std::size_t>(count));
    raw(values.data(), count * sizeof(T), what);
    return values;
  }

  std::string string(std::uint64_t size, const char* what) {
    const std::vector<char> chars = array<char>(size, what);
    return {chars.begin(), chars.end()};
  }

  /// The inverse of ByteWriter::matrix. Each dimension is capped first, so
  /// rows * cols * sizeof(T) cannot wrap.
  template <class Matrix>
  Matrix matrix() {
    using T = typename Matrix::value_type;
    const std::uint64_t rows = u64();
    const std::uint64_t cols = u64();
    if (rows > kMaxDimension || cols > kMaxDimension) {
      throw ParseError("matrix shape implausible");
    }
    require(rows * cols, sizeof(T), "matrix");
    Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    raw(m.data(), m.size() * sizeof(T), "matrix");
    return m;
  }

 private:
  static constexpr std::uint64_t kMaxDimension = std::uint64_t{1} << 26;

  template <class T>
  T word() {
    T value{};
    raw(&value, sizeof value, "word");
    return value;
  }

  const std::uint8_t* at_ = nullptr;  // span backing
  std::istream* in_ = nullptr;        // stream backing
  std::uint64_t remaining_ = kUnknown;
};

}  // namespace imrdmd
