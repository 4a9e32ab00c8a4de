#include "net/wire.hpp"

#include <cstring>

#include "common/byte_codec.hpp"
#include "common/fnv.hpp"

namespace imrdmd::net {

namespace {

bool known_frame_type(std::uint32_t raw) {
  return raw >= static_cast<std::uint32_t>(FrameType::Hello) &&
         raw <= static_cast<std::uint32_t>(FrameType::Error);
}

/// Runs `parse` over the whole payload. A decode failure, or bytes left
/// over, is the peer's fault: ProtocolError.
template <class Parse>
auto decode(const std::vector<std::uint8_t>& payload, const char* what,
            Parse parse) {
  try {
    ByteReader in(payload);
    auto value = parse(in);
    if (in.remaining() != 0) throw ParseError("trailing bytes");
    return value;
  } catch (const ParseError& e) {
    throw ProtocolError(std::string("IMRDWP1: ") + what +
                        " payload malformed: " + e.what());
  }
}

}  // namespace

std::vector<std::uint8_t> encode_hello_payload(const std::string& stream_id,
                                               std::size_t sensors) {
  ByteWriter out;
  out.u64(sensors);
  out.u32(static_cast<std::uint32_t>(stream_id.size()));
  out.raw(stream_id.data(), stream_id.size());
  return out.take();
}

HelloPayload decode_hello_payload(const std::vector<std::uint8_t>& payload) {
  return decode(payload, "hello", [](ByteReader& in) {
    HelloPayload hello;
    hello.sensors = static_cast<std::size_t>(in.u64());
    hello.stream_id = in.string(in.u32(), "hello stream id");
    return hello;
  });
}

std::vector<std::uint8_t> encode_hello_ack_payload(std::uint64_t next_seq,
                                                   std::uint64_t position,
                                                   bool ended) {
  ByteWriter out;
  out.u64(next_seq);
  out.u64(position);
  out.u8(ended ? 1 : 0);
  return out.take();
}

HelloAckPayload decode_hello_ack_payload(
    const std::vector<std::uint8_t>& payload) {
  return decode(payload, "hello-ack", [](ByteReader& in) {
    HelloAckPayload ack;
    ack.next_seq = in.u64();
    ack.position = in.u64();
    const std::uint8_t ended = in.u8();
    if (ended > 1) throw ParseError("ended flag out of range");
    ack.ended = ended != 0;
    return ack;
  });
}

std::vector<std::uint8_t> encode_chunk_payload(const linalg::Mat& chunk) {
  ByteWriter out;
  out.matrix(chunk);
  return out.take();
}

linalg::Mat decode_chunk_payload(const std::vector<std::uint8_t>& payload) {
  return decode(payload, "chunk", [](ByteReader& in) {
    linalg::Mat chunk = in.matrix<linalg::Mat>();
    if (chunk.empty()) throw ParseError("empty chunk");
    return chunk;
  });
}

std::vector<std::uint8_t> encode_error_payload(ErrorCode code,
                                               const std::string& message) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(code));
  out.u32(static_cast<std::uint32_t>(message.size()));
  out.raw(message.data(), message.size());
  return out.take();
}

ErrorPayload decode_error_payload(const std::vector<std::uint8_t>& payload) {
  return decode(payload, "error", [](ByteReader& in) {
    ErrorPayload error;
    error.code = static_cast<ErrorCode>(in.u32());
    error.message = in.string(in.u32(), "error message");
    return error;
  });
}

std::vector<std::uint8_t> encode_position_payload(std::uint64_t position) {
  ByteWriter out;
  out.u64(position);
  return out.take();
}

std::uint64_t decode_position_payload(
    const std::vector<std::uint8_t>& payload) {
  return decode(payload, "position",
                [](ByteReader& in) { return in.u64(); });
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
  ByteWriter wire;
  wire.u32(static_cast<std::uint32_t>(type));
  wire.u64(seq);
  wire.u64(fnv1a64(payload.data(), payload.size()));
  wire.u64(payload.size());
  wire.raw(payload.data(), payload.size());
  socket.send_all(wire.bytes().data(), wire.size());
  return wire.size();
}

Frame recv_frame(Socket& socket, std::size_t* wire_bytes) {
  std::uint8_t header[kFrameHeaderSize];
  socket.recv_all(header, sizeof(header));
  ByteReader in(header);
  const std::uint32_t raw_type = in.u32();
  if (!known_frame_type(raw_type)) {
    throw ProtocolError("IMRDWP1: unknown frame type " +
                        std::to_string(raw_type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.seq = in.u64();
  const std::uint64_t digest = in.u64();
  const std::uint64_t length = in.u64();
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
