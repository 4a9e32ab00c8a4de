#include "net/shipper.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace imrdmd::net {

namespace {

/// Turns a server Error frame into the matching typed exception:
/// DigestMismatch is retryable (the frame was damaged in flight, a resend
/// usually lands intact), everything else is a permanent rejection.
[[noreturn]] void throw_server_error(const Frame& frame) {
  const ErrorPayload error = decode_error_payload(frame.payload);
  if (error.code == ErrorCode::DigestMismatch) {
    throw DigestMismatch("ingest listener rejected a damaged frame: " +
                         error.message);
  }
  throw ProtocolError("ingest listener rejected the stream: " +
                      error.message);
}

}  // namespace

ChunkShipper::ChunkShipper(ShipperOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {
  IMRDMD_REQUIRE_ARG(options_.port != 0, "ChunkShipper: port must be set");
  IMRDMD_REQUIRE_ARG(options_.window >= 1,
                     "ChunkShipper: window must be >= 1");
  IMRDMD_REQUIRE_ARG(options_.max_attempts >= 1,
                     "ChunkShipper: max_attempts must be >= 1");
}

ShipSummary ChunkShipper::ship(core::ChunkSource& source) {
  ShipSummary summary;
  const serve::MetricLabels labels = {{"stream", options_.stream_id},
                                      {"side", "shipper"}};
  const auto count = [&](const char* name, double delta) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter_add(name, labels, delta);
    }
  };

  std::size_t attempt = 0;
  std::uint64_t last_resume_seq = 0;
  for (;;) {
    try {
      Socket socket = connect_loopback(options_.port,
                                       options_.send_timeout_seconds);
      socket.set_timeouts(options_.send_timeout_seconds,
                          options_.recv_timeout_seconds);
      send_magic(socket);
      summary.wire_bytes +=
          send_frame(socket, FrameType::Hello, 0,
                     encode_hello_payload(options_.stream_id,
                                          source.sensors()));
      Frame reply = recv_frame(socket, &summary.wire_bytes);
      if (reply.type == FrameType::Error) throw_server_error(reply);
      if (reply.type != FrameType::HelloAck) {
        throw ProtocolError("ChunkShipper: expected HelloAck, got frame "
                            "type " +
                            std::to_string(static_cast<int>(reply.type)));
      }
      const HelloAckPayload hello_ack =
          decode_hello_ack_payload(reply.payload);
      // "Progress" = the server journaled something new since our last
      // handshake; only that resets the failure budget, so a peer that
      // accepts connections but never acks still exhausts max_attempts.
      if (hello_ack.next_seq > last_resume_seq || last_resume_seq == 0) {
        attempt = 0;
      }
      last_resume_seq = hello_ack.next_seq;
      if (hello_ack.ended) return summary;  // server holds the full stream

      // Resume exactly where the server's journal stops.
      source.seek(static_cast<std::size_t>(hello_ack.position));
      std::uint64_t seq = hello_ack.next_seq - 1;

      /// In-flight chunk frames: sequence -> snapshot columns. Acks are
      /// cumulative, so one ack may retire several entries.
      std::deque<std::pair<std::uint64_t, std::size_t>> unacked;
      const auto drain_one = [&]() -> bool {
        Frame frame = recv_frame(socket, &summary.wire_bytes);
        if (frame.type == FrameType::Error) throw_server_error(frame);
        if (frame.type == FrameType::Ack) {
          while (!unacked.empty() && unacked.front().first <= frame.seq) {
            summary.chunks += 1;
            summary.snapshots += unacked.front().second;
            count("imrdmd_net_frames_total", 1.0);
            unacked.pop_front();
          }
          return false;
        }
        if (frame.type == FrameType::EndAck) return true;
        throw ProtocolError("ChunkShipper: unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)) +
                            " while awaiting acks");
      };

      std::size_t since_marker = 0;
      while (std::optional<core::Mat> chunk = source.next_chunk()) {
        ++seq;
        const std::size_t bytes = send_frame(
            socket, FrameType::Chunk, seq, encode_chunk_payload(*chunk));
        summary.wire_bytes += bytes;
        count("imrdmd_net_bytes_total", static_cast<double>(bytes));
        unacked.emplace_back(seq, chunk->cols());
        if (options_.checkpoint_marker_every > 0 &&
            ++since_marker >= options_.checkpoint_marker_every) {
          since_marker = 0;
          summary.wire_bytes +=
              send_frame(socket, FrameType::Checkpoint, seq,
                         encode_position_payload(source.position()));
        }
        while (unacked.size() >= options_.window) {
          if (drain_one()) {
            throw ProtocolError(
                "ChunkShipper: EndAck before the stream ended");
          }
        }
      }

      summary.wire_bytes +=
          send_frame(socket, FrameType::End, seq,
                     encode_position_payload(source.position()));
      while (!drain_one()) {
      }
      if (!unacked.empty()) {
        throw ProtocolError(
            "ChunkShipper: server ended the stream with " +
            std::to_string(unacked.size()) + " chunk frames unacked");
      }
      return summary;
    } catch (const ProtocolError&) {
      throw;  // a reconnect would be rejected identically
    } catch (const NetError&) {
      ++attempt;
      if (attempt >= options_.max_attempts) throw;
      ++summary.reconnects;
      count("imrdmd_net_reconnects_total", 1.0);
      const double exponent =
          static_cast<double>(std::min<std::size_t>(attempt, 16) - 1);
      double backoff = options_.backoff_base_seconds;
      for (double i = 0; i < exponent; i += 1.0) backoff *= 2.0;
      backoff = std::min(backoff, options_.backoff_cap_seconds);
      backoff *= 1.0 + 0.25 * jitter_.uniform();
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }
}

}  // namespace imrdmd::net
