// IMRDWP1 — the versioned framed binary wire protocol that puts a TCP
// wire between telemetry producers (net::ChunkShipper) and the serving
// layer (net::IngestListener -> net::TcpChunkSource).
//
// A connection opens with the 8-byte magic "IMRDWP1\n" (protocol + version
// in one token: an incompatible peer fails the very first read), followed
// by frames. Every frame is a fixed 28-byte header plus a payload:
//
//   offset  size  field
//   0       4     frame type (u32 LE; FrameType below)
//   4       8     sequence number (u64 LE; Chunk frames carry a monotonic
//                 counter starting at 1, control frames echo the current
//                 chunk sequence)
//   12      8     FNV-1a64 digest of the payload bytes (LE)
//   20      8     payload length in bytes (u64 LE)
//   28      ...   payload
//
// Frame types and payloads (all integers LE, doubles as IEEE-754 LE bit
// patterns — bitwise-exact across the wire, which is what lets the
// socket-fed engine reproduce a direct-source run bit for bit):
//
//   Hello       client->server  u64 sensors, u32 id_len, id bytes
//   HelloAck    server->client  u64 next_seq (first chunk sequence the
//                               server wants), u64 position (snapshots
//                               already journaled), u8 ended (0 or 1)
//   Chunk       client->server  u64 rows, u64 cols, rows*cols f64
//                               (row-major)
//   Ack         server->client  empty; header seq = highest contiguously
//                               journaled chunk sequence (cumulative)
//   Checkpoint  client->server  u64 source position (a marker: the shipper
//                               crossed a checkpoint boundary); never past
//                               the snapshots journaled
//   End         client->server  u64 total snapshots shipped; must equal
//                               the snapshots journaled
//   EndAck      server->client  empty; sent once the end marker is
//                               journaled (the shipper's all-clear)
//   Error       server->client  u32 code (ErrorCode), u32 msg_len, msg
//
// Resume contract: the server acks a Chunk only after it is journaled, and
// HelloAck names the first sequence it still needs — so a shipper killed
// mid-frame reconnects, seeks its source to `position`, and resends from
// `next_seq`; the server drops duplicates by sequence. Digest mismatches
// (bit rot, a corrupting middlebox) are rejected with Error{DigestMismatch}
// and never journaled.
// Frames are encoded with the shared byte codec (common/byte_codec.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "net/socket.hpp"

namespace imrdmd::net {

/// Peer spoke the protocol wrong (bad magic, unknown frame type, malformed
/// payload, sequence gap, unknown stream, sensor-count mismatch). Not
/// retryable — reconnecting would fail the same way.
class ProtocolError : public NetError {
 public:
  explicit ProtocolError(const std::string& what) : NetError(what) {}
};

/// A frame's payload digest did not match its header — the bytes were
/// damaged in flight. Retryable: the sender still has the frame and a
/// resend usually arrives intact.
class DigestMismatch : public NetError {
 public:
  explicit DigestMismatch(const std::string& what) : NetError(what) {}
};

/// The connection-opening magic: protocol name + version + newline, 8
/// bytes. Bump the digit for any incompatible framing change.
inline constexpr char kWireMagic[8] = {'I', 'M', 'R', 'D',
                                       'W', 'P', '1', '\n'};

enum class FrameType : std::uint32_t {
  Hello = 1,
  HelloAck = 2,
  Chunk = 3,
  Ack = 4,
  Checkpoint = 5,
  End = 6,
  EndAck = 7,
  Error = 8,
};

/// Error frame codes.
enum class ErrorCode : std::uint32_t {
  DigestMismatch = 1,  // frame damaged in flight; resend
  UnknownStream = 2,   // no registered source and no factory accepted it
  SensorMismatch = 3,  // hello/chunk shape disagrees with the source
  Protocol = 4,        // framing/sequence violation
};

/// Size of the fixed frame header on the wire.
inline constexpr std::size_t kFrameHeaderSize = 28;

/// Frames larger than this are rejected as malformed before allocation
/// (64 MiB — a 1024-sensor chunk of 8192 snapshots fits with headroom).
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::Hello;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// --- Payload builders/parsers -------------------------------------------
/// Every decoder takes exactly one well-formed payload; anything else
/// (truncated, trailing bytes, out-of-domain words) is a ProtocolError.
std::vector<std::uint8_t> encode_hello_payload(const std::string& stream_id,
                                               std::size_t sensors);
struct HelloPayload {
  std::string stream_id;
  std::size_t sensors = 0;
};
HelloPayload decode_hello_payload(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_hello_ack_payload(std::uint64_t next_seq,
                                                   std::uint64_t position,
                                                   bool ended);
struct HelloAckPayload {
  std::uint64_t next_seq = 1;
  std::uint64_t position = 0;
  bool ended = false;
};
HelloAckPayload decode_hello_ack_payload(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_chunk_payload(const linalg::Mat& chunk);
linalg::Mat decode_chunk_payload(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_error_payload(ErrorCode code,
                                               const std::string& message);
struct ErrorPayload {
  ErrorCode code = ErrorCode::Protocol;
  std::string message;
};
ErrorPayload decode_error_payload(const std::vector<std::uint8_t>& payload);

/// The Checkpoint and End payloads: one source position.
std::vector<std::uint8_t> encode_position_payload(std::uint64_t position);
std::uint64_t decode_position_payload(
    const std::vector<std::uint8_t>& payload);

/// --- Socket I/O ---------------------------------------------------------
/// Sends the connection-opening magic / validates it (ProtocolError on a
/// foreign or incompatible peer).
void send_magic(Socket& socket);
void expect_magic(Socket& socket);

/// Frames and sends header + payload (digest computed here). Returns the
/// wire bytes written (header + payload) so callers can meter traffic.
std::size_t send_frame(Socket& socket, FrameType type, std::uint64_t seq,
                       const std::vector<std::uint8_t>& payload);

/// Reads one frame, validating the header (known type, payload cap) and
/// the payload digest. Throws DigestMismatch on a damaged payload,
/// ProtocolError on a malformed header, ConnectionClosed/NetError from the
/// socket layer. `wire_bytes`, when non-null, is incremented by the bytes
/// read.
Frame recv_frame(Socket& socket, std::size_t* wire_bytes = nullptr);

}  // namespace imrdmd::net
