#include "net/listener.hpp"

#include <utility>

#include "common/error.hpp"
#include "net/wire.hpp"

namespace imrdmd::net {

namespace {

/// Best-effort typed rejection: the peer may already be gone, in which
/// case the close is answer enough.
void try_send_error(Socket& socket, ErrorCode code,
                    const std::string& message) {
  try {
    send_frame(socket, FrameType::Error, 0,
               encode_error_payload(code, message));
  } catch (const NetError&) {
  }
}

}  // namespace

IngestListener::IngestListener(IngestListenerOptions options)
    : options_(std::move(options)), listener_(options_.port) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

IngestListener::~IngestListener() { stop(); }

void IngestListener::register_stream(const std::string& stream_id,
                                     TcpChunkSource* source) {
  IMRDMD_REQUIRE_ARG(source != nullptr,
                     "IngestListener: null source for stream " + stream_id);
  std::lock_guard<std::mutex> lock(mutex_);
  IMRDMD_REQUIRE_ARG(streams_.emplace(stream_id, source).second,
                     "IngestListener: duplicate stream id " + stream_id);
}

void IngestListener::stop() {
  listener_.stop();
  if (acceptor_.joinable()) acceptor_.join();
  // Retire every live connection, then join its handler. The slot mutex
  // orders our shutdown against the handler's close-on-exit so a recycled
  // fd can never be shut down by mistake.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (std::unique_ptr<Connection>& connection : connections) {
    {
      std::lock_guard<std::mutex> lock(connection->mutex);
      if (!connection->done) connection->socket.shutdown_both();
    }
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void IngestListener::count(const char* name, const std::string& stream,
                           double delta) {
  if (options_.metrics != nullptr) {
    options_.metrics->counter_add(name, {{"stream", stream}}, delta);
  }
}

void IngestListener::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      bool done;
      {
        std::lock_guard<std::mutex> slot((*it)->mutex);
        done = (*it)->done;
      }
      if (done) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::unique_ptr<Connection>& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void IngestListener::accept_loop() {
  for (;;) {
    Socket socket = listener_.accept();
    if (!socket.valid()) return;  // retired by stop()
    reap_finished();
    auto connection = std::make_unique<Connection>();
    Connection& slot = *connection;
    slot.socket = std::move(socket);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connections_.push_back(std::move(connection));
    }
    slot.thread = std::thread([this, &slot] { handle_connection(slot); });
  }
}

void IngestListener::handle_connection(Connection& connection) {
  connection.socket.set_timeouts(options_.send_timeout_seconds,
                                 options_.recv_timeout_seconds);
  try {
    serve_stream(connection.socket);
  } catch (const DigestMismatch& e) {
    // Damage in flight: reject the frame, drop the connection; the
    // shipper resends from the last ack on reconnect. Never journaled.
    count("imrdmd_net_digest_failures_total", "", 1.0);
    try_send_error(connection.socket, ErrorCode::DigestMismatch, e.what());
  } catch (const ProtocolError& e) {
    try_send_error(connection.socket, ErrorCode::Protocol, e.what());
  } catch (const ConnectionClosed&) {
    // The shipper went away mid-stream; its journal position is durable
    // and the reconnect resumes exactly there.
  } catch (const NetError&) {
    // Timeout or transport failure: same story as a hangup.
  } catch (const Error& e) {
    try_send_error(connection.socket, ErrorCode::Protocol, e.what());
  }
  std::lock_guard<std::mutex> lock(connection.mutex);
  connection.socket.close();
  connection.done = true;
}

TcpChunkSource* IngestListener::resolve_stream(const std::string& stream_id,
                                               std::size_t sensors) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(stream_id);
    if (it != streams_.end()) return it->second;
  }
  // The factory runs unlocked: it may construct sources, register tenants,
  // even call register_stream back into us.
  if (options_.on_new_stream) {
    TcpChunkSource* source = options_.on_new_stream(stream_id, sensors);
    if (source != nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      streams_.emplace(stream_id, source);  // a racing factory won anyway
      return source;
    }
  }
  return nullptr;
}

void IngestListener::serve_stream(Socket& socket) {
  std::size_t wire_bytes = 0;
  expect_magic(socket);
  const Frame hello_frame = recv_frame(socket, &wire_bytes);
  if (hello_frame.type != FrameType::Hello) {
    throw ProtocolError("IngestListener: expected Hello, got frame type " +
                        std::to_string(static_cast<int>(hello_frame.type)));
  }
  const HelloPayload hello = decode_hello_payload(hello_frame.payload);
  TcpChunkSource* source = resolve_stream(hello.stream_id, hello.sensors);
  if (source == nullptr) {
    throw ProtocolError("IngestListener: unknown stream \"" +
                        hello.stream_id + "\"");
  }
  if (source->sensors() != hello.sensors) {
    throw ProtocolError(
        "IngestListener: stream \"" + hello.stream_id + "\" carries " +
        std::to_string(hello.sensors) + " sensors, source expects " +
        std::to_string(source->sensors()));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t hellos = ++hellos_[hello.stream_id];
    // Touching the counter with 0 on the first hello creates the series,
    // so a scrape can always see it; real reconnects add 1.
    count("imrdmd_net_reconnects_total", hello.stream_id,
          hellos > 1 ? 1.0 : 0.0);
  }
  count("imrdmd_net_frames_total", hello.stream_id, 1.0);
  count("imrdmd_net_bytes_total", hello.stream_id,
        static_cast<double>(wire_bytes));
  count("imrdmd_net_digest_failures_total", hello.stream_id, 0.0);

  send_frame(socket, FrameType::HelloAck, source->acked_seq(),
             encode_hello_ack_payload(source->acked_seq() + 1,
                                      source->journaled_snapshots(),
                                      source->ended()));

  for (;;) {
    wire_bytes = 0;
    const Frame frame = recv_frame(socket, &wire_bytes);
    count("imrdmd_net_bytes_total", hello.stream_id,
          static_cast<double>(wire_bytes));
    switch (frame.type) {
      case FrameType::Chunk: {
        const linalg::Mat chunk = decode_chunk_payload(frame.payload);
        if (chunk.rows() != source->sensors()) {
          throw ProtocolError(
              "IngestListener: chunk frame seq " +
              std::to_string(frame.seq) + " carries " +
              std::to_string(chunk.rows()) + " rows, source expects " +
              std::to_string(source->sensors()));
        }
        const TcpChunkSource::Append verdict =
            source->append_chunk(frame.seq, chunk);
        if (verdict == TcpChunkSource::Append::Gap) {
          throw ProtocolError("IngestListener: sequence gap — got seq " +
                              std::to_string(frame.seq) + ", journal holds " +
                              std::to_string(source->acked_seq()));
        }
        count("imrdmd_net_frames_total", hello.stream_id, 1.0);
        // Ack the cumulative journaled sequence AFTER the append: the ack
        // is a journal receipt (duplicates re-ack the same watermark).
        send_frame(socket, FrameType::Ack, source->acked_seq(), {});
        break;
      }
      case FrameType::Checkpoint:
      case FrameType::End: {
        // A stale connection's marker may lag the journal but never lead
        // it, and the permanent end marker must match it exactly.
        const std::uint64_t position = decode_position_payload(frame.payload);
        const std::size_t journaled = source->journaled_snapshots();
        if (position > journaled ||
            (frame.type == FrameType::End && position != journaled)) {
          throw ProtocolError("IngestListener: marker at snapshot " +
                              std::to_string(position) +
                              " disagrees with the journal's " +
                              std::to_string(journaled));
        }
        count("imrdmd_net_frames_total", hello.stream_id, 1.0);
        if (frame.type == FrameType::Checkpoint) {
          send_frame(socket, FrameType::Ack, source->acked_seq(), {});
          break;
        }
        source->mark_end();
        send_frame(socket, FrameType::EndAck, frame.seq, {});
        return;  // session complete
      }
      default:
        throw ProtocolError("IngestListener: unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)) +
                            " mid-stream");
    }
  }
}

}  // namespace imrdmd::net
