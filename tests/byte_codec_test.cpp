// The shared byte codec (common/byte_codec.hpp): every word and matrix
// round-trips bitwise through both reader backings, words land in
// little-endian order, every strict prefix of a record throws ParseError,
// and a corrupted length fails before it drives an allocation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_codec.hpp"
#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using linalg::CMat;
using linalg::Complex;
using linalg::Mat;
using testing::NoSeekBuf;

struct Record {
  std::uint8_t small = 0;
  std::uint32_t word = 0;
  std::uint64_t wide = 0;
  double value = 0.0;
  std::string text;
  std::vector<Complex> values;
  Mat mat;
  CMat cmat;
};

Record sample_record() {
  Record r;
  r.small = 0xA5;
  r.word = 0x01020304u;
  r.wide = 0x0102030405060708ull;
  r.value = -0.0;
  r.text = "IMRD";
  r.values = {{1.5, -2.25}, {std::numeric_limits<double>::infinity(), 0.0}};
  r.mat = Mat(2, 3);
  for (std::size_t i = 0; i < r.mat.size(); ++i) {
    r.mat.data()[i] = 0.1 * static_cast<double>(i) - 0.3;
  }
  r.mat.data()[4] = std::numeric_limits<double>::quiet_NaN();
  r.cmat = CMat(1, 2);
  r.cmat(0, 0) = {3.0, -4.0};
  r.cmat(0, 1) = {-0.0, 1e-300};
  return r;
}

std::vector<std::uint8_t> encode(const Record& r) {
  ByteWriter out;
  out.u8(r.small);
  out.u32(r.word);
  out.u64(r.wide);
  out.f64(r.value);
  out.u64(r.text.size());
  out.raw(r.text.data(), r.text.size());
  out.u64(r.values.size());
  out.raw(r.values.data(), r.values.size() * sizeof(Complex));
  out.matrix(r.mat);
  out.matrix(r.cmat);
  out.matrix(Mat());
  return out.take();
}

Record decode(ByteReader& in) {
  Record r;
  r.small = in.u8();
  r.word = in.u32();
  r.wide = in.u64();
  r.value = in.f64();
  r.text = in.string(in.u64(), "text");
  r.values = in.array<Complex>(in.u64(), "values");
  r.mat = in.matrix<Mat>();
  r.cmat = in.matrix<CMat>();
  const Mat empty = in.matrix<Mat>();
  EXPECT_TRUE(empty.empty());
  return r;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same(const Record& a, const Record& b) {
  EXPECT_EQ(a.small, b.small);
  EXPECT_EQ(a.word, b.word);
  EXPECT_EQ(a.wide, b.wide);
  EXPECT_EQ(bits(a.value), bits(b.value));
  EXPECT_EQ(a.text, b.text);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(bits(a.values[i].real()), bits(b.values[i].real()));
    EXPECT_EQ(bits(a.values[i].imag()), bits(b.values[i].imag()));
  }
  ASSERT_EQ(a.mat.rows(), b.mat.rows());
  ASSERT_EQ(a.mat.cols(), b.mat.cols());
  for (std::size_t i = 0; i < a.mat.size(); ++i) {
    EXPECT_EQ(bits(a.mat.data()[i]), bits(b.mat.data()[i]));
  }
  ASSERT_EQ(a.cmat.rows(), b.cmat.rows());
  ASSERT_EQ(a.cmat.cols(), b.cmat.cols());
  for (std::size_t i = 0; i < a.cmat.size(); ++i) {
    EXPECT_EQ(bits(a.cmat.data()[i].real()), bits(b.cmat.data()[i].real()));
    EXPECT_EQ(bits(a.cmat.data()[i].imag()), bits(b.cmat.data()[i].imag()));
  }
}

std::string as_string(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

TEST(ByteCodec, WordsAndMatricesRoundTripThroughEveryBacking) {
  const Record record = sample_record();
  const std::vector<std::uint8_t> bytes = encode(record);

  // The layout is the format: words little-endian, a matrix as rows, cols
  // and its row-major elements.
  ASSERT_GE(bytes.size(), 21u);
  EXPECT_EQ(bytes[0], 0xA5);
  EXPECT_EQ((std::vector<std::uint8_t>(bytes.begin() + 1, bytes.begin() + 5)),
            (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ((std::vector<std::uint8_t>(bytes.begin() + 5, bytes.begin() + 13)),
            (std::vector<std::uint8_t>{8, 7, 6, 5, 4, 3, 2, 1}));
  EXPECT_EQ(bytes.size(),
            1 + 4 + 8 + 8 + (8 + 4) + (8 + 2 * 16) + (16 + 6 * 8) +
                (16 + 2 * 16) + 16);

  {
    ByteReader in(bytes);
    expect_same(decode(in), record);
    EXPECT_EQ(in.remaining(), 0u);
  }
  {
    std::istringstream stream(as_string(bytes));
    ByteReader in(stream);
    EXPECT_EQ(in.remaining(), bytes.size());
    expect_same(decode(in), record);
    EXPECT_EQ(in.remaining(), 0u);
  }
  {
    NoSeekBuf buffer(as_string(bytes));
    std::istream stream(&buffer);
    ByteReader in(stream);
    EXPECT_EQ(in.remaining(), ByteReader::kUnknown);
    expect_same(decode(in), record);
  }
}

TEST(ByteCodec, EveryStrictPrefixThrowsParseError) {
  const std::vector<std::uint8_t> bytes = encode(sample_record());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    {
      ByteReader in(prefix);
      EXPECT_THROW(decode(in), ParseError) << "span prefix of " << cut;
    }
    {
      std::istringstream stream(as_string(prefix));
      ByteReader in(stream);
      EXPECT_THROW(decode(in), ParseError) << "stream prefix of " << cut;
    }
    {
      NoSeekBuf buffer(as_string(prefix));
      std::istream stream(&buffer);
      ByteReader in(stream);
      EXPECT_THROW(decode(in), ParseError)
          << "non-seekable prefix of " << cut;
    }
  }
}

TEST(ByteCodec, HugeLengthFailsBeforeAllocation) {
  // A length word of 2^60 would throw bad_alloc or length_error if it
  // reached an allocation; the bound must reject it first, on every
  // backing (the non-seekable one by its ceiling). So must a matrix whose
  // dimensions each pass the shape cap but whose product does not fit.
  const std::uint64_t huge = std::uint64_t{1} << 60;
  ByteWriter length;
  length.u64(huge);
  length.u64(0);
  ByteWriter shape;
  shape.u64(std::uint64_t{1} << 25);
  shape.u64(std::uint64_t{1} << 25);
  shape.u64(0);

  const auto each_backing = [](const std::vector<std::uint8_t>& bytes,
                               const auto& parse) {
    {
      ByteReader in(bytes);
      EXPECT_THROW(parse(in), ParseError) << "span";
    }
    {
      std::istringstream stream(as_string(bytes));
      ByteReader in(stream);
      EXPECT_THROW(parse(in), ParseError) << "stream";
    }
    {
      NoSeekBuf buffer(as_string(bytes));
      std::istream stream(&buffer);
      ByteReader in(stream);
      EXPECT_THROW(parse(in), ParseError) << "non-seekable stream";
    }
  };
  each_backing(length.bytes(),
               [](ByteReader& in) { in.string(in.u64(), "text"); });
  each_backing(length.bytes(),
               [](ByteReader& in) { in.array<double>(in.u64(), "values"); });
  each_backing(length.bytes(),
               [](ByteReader& in) { in.array<Complex>(in.u64(), "values"); });
  each_backing(length.bytes(), [](ByteReader& in) { in.matrix<Mat>(); });
  each_backing(shape.bytes(), [](ByteReader& in) { in.matrix<Mat>(); });
  each_backing(shape.bytes(), [](ByteReader& in) { in.matrix<CMat>(); });
}

}  // namespace
}  // namespace imrdmd
