#include "net/wire.hpp"

#include <bit>
#include <cstring>

#include "common/fnv.hpp"

namespace imrdmd::net {

namespace {

bool known_frame_type(std::uint32_t raw) {
  return raw >= static_cast<std::uint32_t>(FrameType::Hello) &&
         raw <= static_cast<std::uint32_t>(FrameType::Error);
}

}  // namespace

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

std::uint32_t get_u32(const std::uint8_t* bytes) {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) value = (value << 8) | bytes[i];
  return value;
}

std::uint64_t get_u64(const std::uint8_t* bytes) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | bytes[i];
  return value;
}

void put_matrix(std::vector<std::uint8_t>& out, const linalg::Mat& mat) {
  const std::size_t count = mat.rows() * mat.cols();
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t at = out.size();
    out.resize(at + count * sizeof(double));
    std::memcpy(out.data() + at, mat.data(), count * sizeof(double));
  } else {
    out.reserve(out.size() + count * sizeof(double));
    for (std::size_t i = 0; i < count; ++i) {
      put_u64(out, std::bit_cast<std::uint64_t>(mat.data()[i]));
    }
  }
}

linalg::Mat get_matrix(const std::uint8_t* bytes, std::size_t rows,
                       std::size_t cols) {
  linalg::Mat mat(rows, cols);
  const std::size_t count = rows * cols;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(mat.data(), bytes, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      mat.data()[i] =
          std::bit_cast<double>(get_u64(bytes + i * sizeof(double)));
    }
  }
  return mat;
}

std::vector<std::uint8_t> encode_hello_payload(const std::string& stream_id,
                                               std::size_t sensors) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, sensors);
  put_u32(payload, static_cast<std::uint32_t>(stream_id.size()));
  payload.insert(payload.end(), stream_id.begin(), stream_id.end());
  return payload;
}

HelloPayload decode_hello_payload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 12) {
    throw ProtocolError("IMRDWP1: hello payload truncated");
  }
  HelloPayload hello;
  hello.sensors = static_cast<std::size_t>(get_u64(payload.data()));
  const std::uint32_t id_len = get_u32(payload.data() + 8);
  if (payload.size() != 12 + static_cast<std::size_t>(id_len)) {
    throw ProtocolError("IMRDWP1: hello id length disagrees with payload");
  }
  hello.stream_id.assign(payload.begin() + 12, payload.end());
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack_payload(std::uint64_t next_seq,
                                                   std::uint64_t position,
                                                   bool ended) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, next_seq);
  put_u64(payload, position);
  payload.push_back(ended ? 1 : 0);
  return payload;
}

HelloAckPayload decode_hello_ack_payload(
    const std::vector<std::uint8_t>& payload) {
  if (payload.size() != 17) {
    throw ProtocolError("IMRDWP1: hello-ack payload malformed");
  }
  HelloAckPayload ack;
  ack.next_seq = get_u64(payload.data());
  ack.position = get_u64(payload.data() + 8);
  ack.ended = payload[16] != 0;
  return ack;
}

std::vector<std::uint8_t> encode_chunk_payload(const linalg::Mat& chunk) {
  std::vector<std::uint8_t> payload;
  payload.reserve(16 + chunk.rows() * chunk.cols() * sizeof(double));
  put_u64(payload, chunk.rows());
  put_u64(payload, chunk.cols());
  put_matrix(payload, chunk);
  return payload;
}

linalg::Mat decode_chunk_payload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 16) {
    throw ProtocolError("IMRDWP1: chunk payload truncated");
  }
  const std::uint64_t rows = get_u64(payload.data());
  const std::uint64_t cols = get_u64(payload.data() + 8);
  // Divide rather than multiply: a hostile rows * cols wraps u64.
  const std::uint64_t body = payload.size() - 16;
  const std::uint64_t count = body / sizeof(double);
  if (rows == 0 || cols == 0 || body % sizeof(double) != 0 ||
      count % rows != 0 || count / rows != cols) {
    throw ProtocolError("IMRDWP1: chunk shape disagrees with payload size");
  }
  return get_matrix(payload.data() + 16, static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols));
}

std::vector<std::uint8_t> encode_error_payload(ErrorCode code,
                                               const std::string& message) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, static_cast<std::uint32_t>(code));
  put_u32(payload, static_cast<std::uint32_t>(message.size()));
  payload.insert(payload.end(), message.begin(), message.end());
  return payload;
}

ErrorPayload decode_error_payload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 8) {
    throw ProtocolError("IMRDWP1: error payload truncated");
  }
  ErrorPayload error;
  error.code = static_cast<ErrorCode>(get_u32(payload.data()));
  const std::uint32_t msg_len = get_u32(payload.data() + 4);
  if (payload.size() != 8 + static_cast<std::size_t>(msg_len)) {
    throw ProtocolError("IMRDWP1: error message length disagrees");
  }
  error.message.assign(payload.begin() + 8, payload.end());
  return error;
}

void send_magic(Socket& socket) {
  socket.send_all(kWireMagic, sizeof(kWireMagic));
}

void expect_magic(Socket& socket) {
  char magic[sizeof(kWireMagic)];
  socket.recv_all(magic, sizeof(magic));
  if (std::memcmp(magic, kWireMagic, sizeof(kWireMagic)) != 0) {
    throw ProtocolError(
        "IMRDWP1: peer did not open with the protocol magic");
  }
}

std::size_t send_frame(Socket& socket, FrameType type, std::uint64_t seq,
                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  wire.reserve(kFrameHeaderSize + payload.size());
  put_u32(wire, static_cast<std::uint32_t>(type));
  put_u64(wire, seq);
  put_u64(wire, fnv1a64(payload.data(), payload.size()));
  put_u64(wire, payload.size());
  wire.insert(wire.end(), payload.begin(), payload.end());
  socket.send_all(wire.data(), wire.size());
  return wire.size();
}

Frame recv_frame(Socket& socket, std::size_t* wire_bytes) {
  std::uint8_t header[kFrameHeaderSize];
  socket.recv_all(header, sizeof(header));
  const std::uint32_t raw_type = get_u32(header);
  if (!known_frame_type(raw_type)) {
    throw ProtocolError("IMRDWP1: unknown frame type " +
                        std::to_string(raw_type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.seq = get_u64(header + 4);
  const std::uint64_t digest = get_u64(header + 12);
  const std::uint64_t length = get_u64(header + 20);
  if (length > kMaxFramePayload) {
    throw ProtocolError("IMRDWP1: frame payload of " +
                        std::to_string(length) + " bytes exceeds the cap");
  }
  frame.payload.resize(static_cast<std::size_t>(length));
  if (length > 0) {
    socket.recv_all(frame.payload.data(), frame.payload.size());
  }
  if (wire_bytes != nullptr) {
    *wire_bytes += kFrameHeaderSize + frame.payload.size();
  }
  if (fnv1a64(frame.payload.data(), frame.payload.size()) != digest) {
    throw DigestMismatch("IMRDWP1: payload digest mismatch on frame seq " +
                         std::to_string(frame.seq));
  }
  return frame;
}

}  // namespace imrdmd::net
