// IngestListener: the server side of the IMRDWP1 wire — accepts N
// concurrent ChunkShipper connections on one loopback port and routes
// each stream's verified chunk frames into its TcpChunkSource journal.
//
//   shipper --TCP--> IngestListener --append--> TcpChunkSource(journal)
//                                                     |
//                                    serve::AssessorService tenant pulls
//
// Per connection: validate the magic and hello, resolve the stream id
// (pre-registered source, or mint one through the on_new_stream factory —
// the dynamic-tenant path examples/assessor_server uses), answer with the
// resume point (journaled sequence/position), then verify-journal-ack
// frames until End or disconnect. Acks are sent only after the journal
// append, so reconnect-with-resume is exact and an acked chunk survives a
// process kill (not a power loss: the journal does not fsync).
//
// Error isolation: each connection runs on its own handler thread and
// every failure is contained to it — a shipper sending damaged frames
// (digest mismatch), a foreign protocol, or a sequence gap gets a typed
// Error frame and a closed connection; neighbor streams never notice.
// Counters land in the shared MetricsRegistry as imrdmd_net_frames_total,
// imrdmd_net_bytes_total, imrdmd_net_reconnects_total, and
// imrdmd_net_digest_failures_total, all labeled {stream=...} — scraped
// through the same OpenMetrics exporter as the serving layer's series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/tcp_source.hpp"
#include "serve/metrics.hpp"

namespace imrdmd::net {

struct IngestListenerOptions {
  /// Loopback port to listen on (0 picks an ephemeral port; read it back
  /// with port()).
  std::uint16_t port = 0;
  /// Per-connection socket deadlines (seconds; 0 = wait forever): a
  /// shipper that goes silent longer than this has its connection retired
  /// (it reconnects and resumes when it comes back).
  double recv_timeout_seconds = 60.0;
  double send_timeout_seconds = 10.0;
  /// Shared metrics registry (borrowed; may be null — no counters then).
  serve::MetricsRegistry* metrics = nullptr;
  /// Called (from the connection's handler thread) when a hello names a
  /// stream id with no registered source. Return the source to route the
  /// stream into — the callback owns registration-for-next-time and any
  /// tenant wiring — or null to reject the stream. Null function =
  /// unknown streams are rejected.
  std::function<TcpChunkSource*(const std::string& stream_id,
                                std::size_t sensors)>
      on_new_stream;
};

class IngestListener {
 public:
  /// Binds and starts accepting. Throws NetError when the port cannot be
  /// bound.
  explicit IngestListener(IngestListenerOptions options);
  /// stop()s if still running.
  ~IngestListener();

  IngestListener(const IngestListener&) = delete;
  IngestListener& operator=(const IngestListener&) = delete;

  /// The bound TCP port.
  std::uint16_t port() const { return listener_.port(); }

  /// Routes hellos naming `stream_id` into `source` (borrowed; must
  /// outlive the listener). InvalidArgument on a duplicate id.
  void register_stream(const std::string& stream_id, TcpChunkSource* source);

  /// Stops accepting, retires every active connection, and joins all
  /// handler threads. Idempotent. Registered sources are left untouched
  /// (their journals remain resumable).
  void stop();

 private:
  /// One connection's slot: the socket stays owned here so stop() can
  /// shutdown_both() a live connection without racing the handler's own
  /// close-on-exit (both sides synchronize on the slot mutex).
  struct Connection {
    std::mutex mutex;
    Socket socket;
    std::thread thread;
    bool done = false;
  };

  void accept_loop();
  void handle_connection(Connection& connection);
  /// Serves one shipper's framed session on `socket`; throws typed wire
  /// errors which handle_connection converts into Error frames.
  void serve_stream(Socket& socket);
  TcpChunkSource* resolve_stream(const std::string& stream_id,
                                 std::size_t sensors);
  void count(const char* name, const std::string& stream, double delta);
  /// Joins and drops finished connection slots (called from the accept
  /// loop so long-lived listeners do not accumulate dead threads).
  void reap_finished();

  IngestListenerOptions options_;
  Listener listener_;
  std::thread acceptor_;

  std::mutex mutex_;
  std::map<std::string, TcpChunkSource*> streams_;
  /// Hello counts per stream id — a second hello is a reconnect.
  std::map<std::string, std::size_t> hellos_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace imrdmd::net
