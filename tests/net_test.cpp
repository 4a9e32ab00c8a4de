// Network ingestion tests: the IMRDWP1 wire codec (framing, digests,
// malformed-peer rejection), the on-disk chunk journal (bitwise
// round-trip, torn-tail truncation, corruption detection), the
// TcpChunkSource producer/consumer contract + ChunkSource conformance,
// and the shipper -> listener fault battery (mid-frame kills, pathological
// segmentation, delayed acks, in-flight corruption, unknown streams,
// concurrent tenants) — every recovery path must reproduce the direct
// source bitwise, and a socket-fed service tenant must checkpoint-on-stop
// and resume exactly like a file-fed one. The whole file runs under the
// `net` ctest label (re-run under TSan in CI).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chunk_source_conformance.hpp"
#include "common/byte_codec.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/stream.hpp"
#include "net/journal.hpp"
#include "net/listener.hpp"
#include "net/shipper.hpp"
#include "net/socket.hpp"
#include "net/tcp_source.hpp"
#include "net/wire.hpp"
#include "net_fault_proxy.hpp"
#include "serve/metrics.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::ChunkSource;
using core::CollectingSink;
using core::Mat;
using core::MatrixChunkSource;
using core::PipelineOptions;
using net::ChunkJournal;
using net::ChunkShipper;
using net::ConnectionClosed;
using net::DigestMismatch;
using net::Frame;
using net::FrameType;
using net::IngestListener;
using net::IngestListenerOptions;
using net::NetError;
using net::ProtocolError;
using net::ShipperOptions;
using net::ShipSummary;
using net::Socket;
using net::TcpChunkSource;
using imrdmd::testing::expect_snapshot_equal;
using imrdmd::testing::FaultPlan;
using imrdmd::testing::FaultProxy;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

/// A fresh (non-resuming) journal path whose file is removed again when
/// this goes out of scope — TcpChunkSource deliberately resumes an existing
/// file, so every test gets its own, and none outlives its test. Declare it
/// before the source that writes it.
class ScopedJournalPath {
 public:
  explicit ScopedJournalPath(const std::string& tag)
      : path_(::testing::TempDir() + "/net_" + tag + "_" +
              std::to_string(next_id_.fetch_add(1)) + ".jl") {
    std::remove(path_.c_str());
  }
  ScopedJournalPath(ScopedJournalPath&& other) noexcept
      : path_(std::exchange(other.path_, std::string())) {}
  ScopedJournalPath& operator=(ScopedJournalPath&&) = delete;
  ~ScopedJournalPath() {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  const std::string& str() const { return path_; }

 private:
  static inline std::atomic<int> next_id_{0};
  std::string path_;
};

void expect_mat_bitwise(const Mat& a, const Mat& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << "row " << r << ", col " << c;
    }
  }
}

/// Drains `source` to exhaustion into one sensors x `total` matrix.
Mat drain_source(ChunkSource& source, std::size_t total) {
  Mat full(source.sensors(), total);
  std::size_t at = 0;
  while (std::optional<Mat> chunk = source.next_chunk()) {
    EXPECT_LE(at + chunk->cols(), total);
    full.set_block(0, at, *chunk);
    at += chunk->cols();
  }
  EXPECT_EQ(at, total);
  return full;
}

/// A connected AF_UNIX pair wrapped in net::Socket — the codec tests need
/// a byte pipe, not a real TCP handshake.
std::pair<Socket, Socket> socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  return {Socket(fds[0]), Socket(fds[1])};
}

// --- wire codec -----------------------------------------------------------

TEST(NetWire, PayloadsRoundTrip) {
  const auto hello = net::encode_hello_payload("facility-7", 42);
  const net::HelloPayload hello_back = net::decode_hello_payload(hello);
  EXPECT_EQ(hello_back.stream_id, "facility-7");
  EXPECT_EQ(hello_back.sensors, 42u);

  const auto ack = net::encode_hello_ack_payload(17, 421, true);
  const net::HelloAckPayload ack_back = net::decode_hello_ack_payload(ack);
  EXPECT_EQ(ack_back.next_seq, 17u);
  EXPECT_EQ(ack_back.position, 421u);
  EXPECT_TRUE(ack_back.ended);

  Rng rng(3);
  const Mat chunk = planted_multiscale(5, 9, 0.1, rng);
  const auto encoded = net::encode_chunk_payload(chunk);
  expect_mat_bitwise(net::decode_chunk_payload(encoded), chunk);

  const auto error =
      net::encode_error_payload(net::ErrorCode::SensorMismatch, "nope");
  const net::ErrorPayload error_back = net::decode_error_payload(error);
  EXPECT_EQ(error_back.code, net::ErrorCode::SensorMismatch);
  EXPECT_EQ(error_back.message, "nope");
}

TEST(NetWire, FramesSurviveTheSocket) {
  auto [a, b] = socket_pair();
  net::send_magic(a);
  net::expect_magic(b);

  Rng rng(4);
  const Mat chunk = planted_multiscale(3, 7, 0.05, rng);
  const std::size_t sent = net::send_frame(a, FrameType::Chunk, 12,
                                           net::encode_chunk_payload(chunk));
  std::size_t received = 0;
  const Frame frame = net::recv_frame(b, &received);
  EXPECT_EQ(sent, received);
  EXPECT_EQ(frame.type, FrameType::Chunk);
  EXPECT_EQ(frame.seq, 12u);
  expect_mat_bitwise(net::decode_chunk_payload(frame.payload), chunk);

  // Empty-payload control frames work too.
  net::send_frame(a, FrameType::Ack, 12, {});
  const Frame ack = net::recv_frame(b);
  EXPECT_EQ(ack.type, FrameType::Ack);
  EXPECT_TRUE(ack.payload.empty());
}

TEST(NetWire, MalformedPeersAreRejectedTyped) {
  {
    // Foreign magic fails the very first read.
    auto [a, b] = socket_pair();
    a.send_all("HTTP/1.1", 8);
    EXPECT_THROW(net::expect_magic(b), ProtocolError);
  }
  {
    // A damaged payload fails the digest check, not the decode.
    auto [a, b] = socket_pair();
    std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    ByteWriter header;
    header.u32(static_cast<std::uint32_t>(FrameType::Chunk));
    header.u64(1);
    header.u64(fnv1a64(payload.data(), payload.size()));
    header.u64(payload.size());
    payload[2] ^= 0xFF;  // damage after digesting
    a.send_all(header.bytes().data(), header.size());
    a.send_all(payload.data(), payload.size());
    EXPECT_THROW(net::recv_frame(b), DigestMismatch);
  }
  {
    // Unknown frame type.
    auto [a, b] = socket_pair();
    ByteWriter header;
    header.u32(999);
    header.u64(0);
    header.u64(fnv1a64(nullptr, 0));
    header.u64(0);
    a.send_all(header.bytes().data(), header.size());
    EXPECT_THROW(net::recv_frame(b), ProtocolError);
  }
  {
    // A payload length past the cap is rejected before allocation.
    auto [a, b] = socket_pair();
    ByteWriter header;
    header.u32(static_cast<std::uint32_t>(FrameType::Chunk));
    header.u64(1);
    header.u64(0);
    header.u64(net::kMaxFramePayload + 1);
    a.send_all(header.bytes().data(), header.size());
    EXPECT_THROW(net::recv_frame(b), ProtocolError);
  }
  for (const std::uint64_t cols :
       {std::uint64_t{1} << 61, std::uint64_t{1} << 58}) {
    // 56 rows of either width need 56 * cols * 8 bytes, which wraps u64
    // to 0 and so matches the empty body. rows * cols itself wraps to 0
    // at 2^61 and to a count no vector can hold at 2^58; both must be the
    // typed ProtocolError the listener answers with an Error frame.
    ByteWriter payload;
    payload.u64(56);
    payload.u64(cols);
    EXPECT_THROW(net::decode_chunk_payload(payload.bytes()), ProtocolError);
  }
  {
    // A peer hanging up mid-frame is ConnectionClosed, not garbage.
    auto [a, b] = socket_pair();
    ByteWriter header;
    header.u32(static_cast<std::uint32_t>(FrameType::Ack));
    a.send_all(header.bytes().data(), header.size());  // 4 of 28 header bytes
    a.close();
    EXPECT_THROW(net::recv_frame(b), ConnectionClosed);
  }
}

TEST(NetWire, DecodersEndTypedOnEveryTruncationAndCorruption) {
  // Every strict prefix of a payload throws ProtocolError — the type the
  // listener answers with an Error frame — and every single-byte value at
  // every offset either decodes or throws ProtocolError, never another
  // exception.
  using Decode = std::function<void(const std::vector<std::uint8_t>&)>;
  Rng rng(5);
  const std::vector<std::pair<std::vector<std::uint8_t>, Decode>> cases = {
      {net::encode_hello_payload("rack-3", 56),
       [](const auto& bytes) { net::decode_hello_payload(bytes); }},
      {net::encode_hello_ack_payload(9, 128, true),
       [](const auto& bytes) { net::decode_hello_ack_payload(bytes); }},
      {net::encode_chunk_payload(planted_multiscale(2, 3, 0.1, rng)),
       [](const auto& bytes) { net::decode_chunk_payload(bytes); }},
      {net::encode_error_payload(net::ErrorCode::Protocol, "gap"),
       [](const auto& bytes) { net::decode_error_payload(bytes); }},
      {net::encode_position_payload(4096),
       [](const auto& bytes) { net::decode_position_payload(bytes); }}};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [payload, decode] = cases[c];
    SCOPED_TRACE("payload type " + std::to_string(c));
    EXPECT_NO_THROW(decode(payload));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(payload.begin(),
                                             payload.begin() + cut);
      EXPECT_THROW(decode(prefix), ProtocolError) << "prefix of " << cut;
    }
    for (std::size_t at = 0; at < payload.size(); ++at) {
      for (int value = 0; value < 256; ++value) {
        std::vector<std::uint8_t> corrupt = payload;
        corrupt[at] = static_cast<std::uint8_t>(value);
        try {
          decode(corrupt);
        } catch (const ProtocolError&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << "byte " << at << " = " << value
                        << ": untyped decode error: " << e.what();
        }
      }
    }
  }
}

// --- chunk journal --------------------------------------------------------

TEST(NetJournal, AppendReadReopenBitwise) {
  const ScopedJournalPath journal_path("journal");
  const std::string& path = journal_path.str();
  Rng rng(11);
  const Mat data = planted_multiscale(4, 16, 0.02, rng);
  {
    ChunkJournal journal(path, 4);
    EXPECT_EQ(journal.chunks(), 0u);
    EXPECT_FALSE(journal.ended());
    journal.append(data.block(0, 0, 4, 5));
    journal.append(data.block(0, 5, 4, 3));
    journal.append(data.block(0, 8, 4, 8));
    EXPECT_EQ(journal.chunks(), 3u);
    EXPECT_EQ(journal.snapshots(), 16u);
    EXPECT_EQ(journal.chunk_cols(1), 3u);
    EXPECT_EQ(journal.chunk_start(2), 8u);
    EXPECT_EQ(journal.find_chunk(0), 0u);
    EXPECT_EQ(journal.find_chunk(7), 1u);
    EXPECT_EQ(journal.find_chunk(15), 2u);
    expect_mat_bitwise(journal.read_chunk(1), data.block(0, 5, 4, 3));
  }
  {
    // Reopen resumes: the index rebuilds and appends continue.
    ChunkJournal journal(path, 4);
    EXPECT_EQ(journal.chunks(), 3u);
    EXPECT_EQ(journal.snapshots(), 16u);
    expect_mat_bitwise(journal.read_chunk(2), data.block(0, 8, 4, 8));
    journal.append_end();
    EXPECT_TRUE(journal.ended());
    journal.append_end();  // idempotent
    EXPECT_THROW(journal.append(data.block(0, 0, 4, 5)), InvalidArgument);
  }
  {
    ChunkJournal journal(path, 4);
    EXPECT_TRUE(journal.ended());
  }
  // The recorded sensor width is authoritative.
  EXPECT_THROW(ChunkJournal(path, 5), Error);
}

TEST(NetJournal, TornTailTruncatedCompleteCorruptionThrows) {
  Rng rng(12);
  const Mat data = planted_multiscale(4, 8, 0.02, rng);
  {
    // A kill mid-append leaves a partial record; reopen discards it.
    const ScopedJournalPath journal_path("torn");
    const std::string& path = journal_path.str();
    {
      ChunkJournal journal(path, 4);
      journal.append(data.block(0, 0, 4, 4));
      journal.append(data.block(0, 4, 4, 4));
    }
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const std::uint8_t torn[6] = {1, 9, 0, 0, 0, 0};  // kind + partial cols
    ASSERT_EQ(::write(fd, torn, sizeof torn),
              static_cast<ssize_t>(sizeof torn));
    ::close(fd);
    ChunkJournal journal(path, 4);
    EXPECT_EQ(journal.chunks(), 2u);
    journal.append(data.block(0, 0, 4, 4));  // append lands cleanly after
    EXPECT_EQ(journal.chunks(), 3u);
    expect_mat_bitwise(journal.read_chunk(2), data.block(0, 0, 4, 4));
  }
  {
    // A COMPLETE record whose digest fails is real corruption, not debris.
    const ScopedJournalPath journal_path("corrupt");
    const std::string& path = journal_path.str();
    {
      ChunkJournal journal(path, 4);
      journal.append(data.block(0, 0, 4, 4));
      journal.append(data.block(0, 4, 4, 4));
    }
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    // File header 16 bytes, record header 17 -> byte 40 sits in the first
    // chunk's f64 payload.
    const std::uint8_t evil = 0xAA;
    ASSERT_EQ(::pwrite(fd, &evil, 1, 40), 1);
    ::close(fd);
    EXPECT_THROW(ChunkJournal(path, 4), Error);
  }
  for (const std::uint64_t cols :
       {std::uint64_t{1} << 50, std::uint64_t{1} << 59}) {
    // A garbage width whose payload would run past the end of the file is
    // a torn tail, decided before allocating: 2^50 columns must not
    // allocate, and 2^59 columns of 4 sensors (2^64 bytes) must not wrap
    // to an empty payload.
    const ScopedJournalPath journal_path("oversize");
    const std::string& path = journal_path.str();
    {
      ChunkJournal journal(path, 4);
      journal.append(data.block(0, 0, 4, 4));
      journal.append(data.block(0, 4, 4, 4));
    }
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    // File header 16 bytes + first record 17 + 128 = 161: the second
    // record's kind byte, then its u64 cols.
    ByteWriter width;
    width.u64(cols);
    ASSERT_EQ(::pwrite(fd, width.bytes().data(), width.size(), 162), 8);
    ::close(fd);
    ChunkJournal journal(path, 4);
    EXPECT_EQ(journal.chunks(), 1u);
    expect_mat_bitwise(journal.read_chunk(0), data.block(0, 0, 4, 4));
  }
}

// --- TcpChunkSource producer/consumer contract ----------------------------

TEST(NetTcpSource, SequenceVerdictsAndCloseAndFail) {
  Rng rng(13);
  const Mat data = planted_multiscale(3, 10, 0.02, rng);
  const ScopedJournalPath journal_path("verdicts");
  TcpChunkSource::Options options;
  options.journal_path = journal_path.str();
  TcpChunkSource source(3, options);

  EXPECT_EQ(source.append_chunk(1, data.block(0, 0, 3, 4)),
            TcpChunkSource::Append::Accepted);
  EXPECT_EQ(source.append_chunk(1, data.block(0, 0, 3, 4)),
            TcpChunkSource::Append::Duplicate);
  EXPECT_EQ(source.append_chunk(3, data.block(0, 4, 3, 6)),
            TcpChunkSource::Append::Gap);
  EXPECT_EQ(source.append_chunk(2, data.block(0, 4, 3, 6)),
            TcpChunkSource::Append::Accepted);
  EXPECT_EQ(source.acked_seq(), 2u);
  EXPECT_EQ(source.journaled_snapshots(), 10u);
  EXPECT_FALSE(source.ended());

  // Drain what is journaled, then block; close() unblocks with EOF.
  EXPECT_EQ(source.next_chunk()->cols(), 4u);
  EXPECT_EQ(source.next_chunk()->cols(), 6u);
  std::optional<Mat> blocked;
  std::thread consumer([&] { blocked = source.next_chunk(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  source.close();
  consumer.join();
  EXPECT_FALSE(blocked.has_value());
}

TEST(NetTcpSource, FailRethrowsAndIdleTimeoutIsTyped) {
  {
    const ScopedJournalPath journal_path("fail");
    TcpChunkSource::Options options;
    options.journal_path = journal_path.str();
    TcpChunkSource source(2, options);
    std::exception_ptr seen;
    std::thread consumer([&] {
      try {
        source.next_chunk();
      } catch (...) {
        seen = std::current_exception();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.fail(std::make_exception_ptr(NetError("collector died")));
    consumer.join();
    ASSERT_TRUE(seen != nullptr);
    EXPECT_THROW(std::rethrow_exception(seen), NetError);
  }
  {
    // A silent shipper becomes a typed failure, not a hung engine.
    const ScopedJournalPath journal_path("idle");
    TcpChunkSource::Options options;
    options.journal_path = journal_path.str();
    options.idle_timeout_seconds = 0.05;
    TcpChunkSource source(2, options);
    EXPECT_THROW(source.next_chunk(), NetError);
  }
}

}  // namespace
}  // namespace imrdmd

// --- ChunkSource conformance ---------------------------------------------
// The typed suite is registered in imrdmd::testing, so the instantiation
// must live there too.

namespace imrdmd::testing {
namespace {

struct TcpSourceTraits {
  static constexpr std::size_t kSensors = 5;
  static constexpr std::size_t kTotalSnapshots = 23;
  struct Fixture {
    ScopedJournalPath journal_path{"conformance"};
    std::unique_ptr<net::TcpChunkSource> source;
  };
  static std::unique_ptr<Fixture> make() {
    auto fixture = std::make_unique<Fixture>();
    net::TcpChunkSource::Options options;
    options.journal_path = fixture->journal_path.str();
    fixture->source =
        std::make_unique<net::TcpChunkSource>(kSensors, options);
    // A fully received, ended stream with varying chunk widths.
    Rng rng(77);
    const core::Mat data =
        planted_multiscale(kSensors, kTotalSnapshots, 0.0, rng);
    std::size_t at = 0;
    std::uint64_t seq = 0;
    for (const std::size_t width :
         std::initializer_list<std::size_t>{4, 7, 3, 9}) {
      fixture->source->append_chunk(++seq,
                                    data.block(0, at, kSensors, width));
      at += width;
    }
    fixture->source->mark_end();
    return fixture;
  }
  static core::ChunkSource& source(Fixture& fixture) {
    return *fixture.source;
  }
};

INSTANTIATE_TYPED_TEST_SUITE_P(TcpChunkSource, ChunkSourceConformance,
                               ::testing::Types<TcpSourceTraits>);

}  // namespace
}  // namespace imrdmd::testing

namespace imrdmd {
namespace {

// --- shipper -> listener, happy path and fault battery --------------------

/// One end-to-end shipment: `data` replayed through a MatrixChunkSource,
/// shipped to `port`, received into `sink` (which must be registered or
/// resolvable server-side under options.stream_id).
ShipSummary ship_matrix(const Mat& data, std::size_t initial,
                        std::size_t chunk, ShipperOptions options) {
  MatrixChunkSource source(data, initial, chunk);
  ChunkShipper shipper(options);
  return shipper.ship(source);
}

TEST(NetShipperListener, EndToEndBitwiseWithMetrics) {
  Rng rng(21);
  const Mat data = planted_multiscale(6, 45, 0.02, rng);
  serve::MetricsRegistry metrics;

  const ScopedJournalPath journal_path("e2e");
  TcpChunkSource::Options source_options;
  source_options.journal_path = journal_path.str();
  TcpChunkSource received(6, source_options);

  IngestListenerOptions listener_options;
  listener_options.metrics = &metrics;
  IngestListener listener(listener_options);
  listener.register_stream("s0", &received);

  ShipperOptions ship_options;
  ship_options.port = listener.port();
  ship_options.stream_id = "s0";
  ship_options.metrics = &metrics;
  ship_options.checkpoint_marker_every = 2;
  const ShipSummary summary = ship_matrix(data, 10, 7, ship_options);

  EXPECT_EQ(summary.chunks, 6u);  // 10 + 5 * 7 = 45
  EXPECT_EQ(summary.snapshots, 45u);
  EXPECT_EQ(summary.reconnects, 0u);
  EXPECT_GT(summary.wire_bytes, 45u * 6u * 8u);

  EXPECT_TRUE(received.ended());
  EXPECT_EQ(received.acked_seq(), 6u);
  expect_mat_bitwise(drain_source(received, 45), data);

  // Both sides metered into the shared registry.
  EXPECT_EQ(metrics.value("imrdmd_net_frames_total", {{"stream", "s0"}}),
            11.0);  // hello + 6 chunks + 3 checkpoint markers + end
  EXPECT_GT(metrics.value("imrdmd_net_bytes_total", {{"stream", "s0"}}),
            0.0);
  EXPECT_EQ(
      metrics.value("imrdmd_net_reconnects_total", {{"stream", "s0"}}),
      0.0);
  EXPECT_EQ(metrics.value("imrdmd_net_frames_total",
                          {{"stream", "s0"}, {"side", "shipper"}}),
            6.0);  // acked chunk frames
  listener.stop();
}

TEST(NetShipperListener, PathologicalSegmentationArrivesIntact) {
  Rng rng(22);
  const Mat data = planted_multiscale(4, 24, 0.02, rng);
  const ScopedJournalPath journal_path("split");
  TcpChunkSource::Options source_options;
  source_options.journal_path = journal_path.str();
  TcpChunkSource received(4, source_options);
  IngestListener listener(IngestListenerOptions{});
  listener.register_stream("s0", &received);

  // Every shipper byte arrives in <= 3-byte slivers: the exact-count recv
  // loop must reassemble frames regardless of segmentation.
  FaultPlan plan;
  plan.split_bytes = 3;
  FaultProxy proxy(listener.port(), plan,
                   std::numeric_limits<std::size_t>::max());

  ShipperOptions ship_options;
  ship_options.port = proxy.port();
  ship_options.stream_id = "s0";
  const ShipSummary summary = ship_matrix(data, 8, 5, ship_options);
  EXPECT_EQ(summary.reconnects, 0u);
  EXPECT_EQ(summary.snapshots, 24u);
  expect_mat_bitwise(drain_source(received, 24), data);
  proxy.stop();
  listener.stop();
}

TEST(NetShipperListener, KilledMidFrameReconnectsAndResumesBitwise) {
  Rng rng(23);
  const Mat data = planted_multiscale(6, 45, 0.02, rng);
  serve::MetricsRegistry metrics;
  const ScopedJournalPath journal_path("kill");
  TcpChunkSource::Options source_options;
  source_options.journal_path = journal_path.str();
  TcpChunkSource received(6, source_options);
  IngestListenerOptions listener_options;
  listener_options.metrics = &metrics;
  IngestListener listener(listener_options);
  listener.register_stream("s0", &received);

  // Wire layout for stream id "s0": magic 8B, hello frame 42B, first chunk
  // frame header at 50 — byte 300 is deep inside the first chunk payload,
  // so the first connection dies with a partial frame on the wire.
  FaultPlan plan;
  plan.kill_after_bytes = 300;
  FaultProxy proxy(listener.port(), plan, 1);

  ShipperOptions ship_options;
  ship_options.port = proxy.port();
  ship_options.stream_id = "s0";
  ship_options.backoff_base_seconds = 0.01;
  ship_options.backoff_cap_seconds = 0.05;
  const ShipSummary summary = ship_matrix(data, 10, 7, ship_options);

  EXPECT_GE(summary.reconnects, 1u);
  EXPECT_EQ(summary.snapshots, 45u);
  EXPECT_TRUE(received.ended());
  expect_mat_bitwise(drain_source(received, 45), data);
  EXPECT_GE(
      metrics.value("imrdmd_net_reconnects_total", {{"stream", "s0"}}),
      1.0);
  proxy.stop();
  listener.stop();
}

TEST(NetShipperListener, DelayedAcksTimeOutThenReconnect) {
  Rng rng(24);
  const Mat data = planted_multiscale(4, 24, 0.02, rng);
  const ScopedJournalPath journal_path("delay");
  TcpChunkSource::Options source_options;
  source_options.journal_path = journal_path.str();
  TcpChunkSource received(4, source_options);
  IngestListener listener(IngestListenerOptions{});
  listener.register_stream("s0", &received);

  // First connection starves the shipper of server replies past its recv
  // deadline; the retry (transparent) succeeds.
  FaultPlan plan;
  plan.ack_delay = std::chrono::milliseconds(400);
  FaultProxy proxy(listener.port(), plan, 1);

  ShipperOptions ship_options;
  ship_options.port = proxy.port();
  ship_options.stream_id = "s0";
  ship_options.recv_timeout_seconds = 0.15;
  ship_options.backoff_base_seconds = 0.01;
  ship_options.backoff_cap_seconds = 0.05;
  const ShipSummary summary = ship_matrix(data, 8, 5, ship_options);
  EXPECT_GE(summary.reconnects, 1u);
  expect_mat_bitwise(drain_source(received, 24), data);
  proxy.stop();
  listener.stop();
}

TEST(NetShipperListener, CorruptedFrameRejectedThenRecovered) {
  Rng rng(25);
  const Mat data = planted_multiscale(6, 45, 0.02, rng);
  serve::MetricsRegistry metrics;
  const ScopedJournalPath journal_path("corruptwire");
  TcpChunkSource::Options source_options;
  source_options.journal_path = journal_path.str();
  TcpChunkSource received(6, source_options);
  IngestListenerOptions listener_options;
  listener_options.metrics = &metrics;
  IngestListener listener(listener_options);
  listener.register_stream("s0", &received);

  // Byte 90 of the shipper stream sits in the first chunk frame's payload
  // (header ends at 78): the digest catches it, the listener rejects with
  // Error{DigestMismatch}, and the resend lands intact.
  FaultPlan plan;
  plan.corrupt = true;
  plan.corrupt_at = 90;
  FaultProxy proxy(listener.port(), plan, 1);

  ShipperOptions ship_options;
  ship_options.port = proxy.port();
  ship_options.stream_id = "s0";
  ship_options.backoff_base_seconds = 0.01;
  ship_options.backoff_cap_seconds = 0.05;
  const ShipSummary summary = ship_matrix(data, 10, 7, ship_options);

  EXPECT_GE(summary.reconnects, 1u);
  expect_mat_bitwise(drain_source(received, 45), data);
  // Nothing damaged was journaled; the failure was counted (the stream
  // label is empty: the listener indicts the connection, not the stream).
  EXPECT_GE(metrics.value("imrdmd_net_digest_failures_total",
                          {{"stream", ""}}),
            1.0);
  EXPECT_EQ(received.acked_seq(), 6u);
  proxy.stop();
  listener.stop();
}

TEST(NetShipperListener, UnknownStreamAndSensorMismatchAreFatalTyped) {
  Rng rng(26);
  const Mat data = planted_multiscale(4, 24, 0.02, rng);
  const ScopedJournalPath journal_path("reject");
  TcpChunkSource::Options source_options;
  source_options.journal_path = journal_path.str();
  TcpChunkSource received(6, source_options);
  IngestListener listener(IngestListenerOptions{});
  listener.register_stream("s0", &received);

  // Unknown stream: rejected immediately, no retry storm.
  ShipperOptions ghost;
  ghost.port = listener.port();
  ghost.stream_id = "ghost";
  EXPECT_THROW(ship_matrix(data, 8, 5, ghost), ProtocolError);

  // Sensor-count mismatch against the registered source.
  ShipperOptions narrow;
  narrow.port = listener.port();
  narrow.stream_id = "s0";
  EXPECT_THROW(ship_matrix(data, 8, 5, narrow), ProtocolError);

  // The listener survived both rejections: a correct shipper still lands.
  Rng rng_ok(27);
  const Mat ok = planted_multiscale(6, 30, 0.02, rng_ok);
  ShipperOptions good;
  good.port = listener.port();
  good.stream_id = "s0";
  const ShipSummary summary = ship_matrix(ok, 10, 5, good);
  EXPECT_EQ(summary.snapshots, 30u);
  expect_mat_bitwise(drain_source(received, 30), ok);
  listener.stop();
}

TEST(NetShipperListener, EndAndCheckpointMarkersMustMatchTheJournal) {
  // The end marker is permanent, so an End must name exactly the snapshots
  // journaled; a Checkpoint marker may lag them but never lead. Anything
  // else gets an Error frame and journals nothing.
  Rng rng(28);
  const Mat data = planted_multiscale(6, 12, 0.02, rng);
  const ScopedJournalPath path_a("markers_a");
  const ScopedJournalPath path_b("markers_b");
  TcpChunkSource::Options options_a;
  options_a.journal_path = path_a.str();
  TcpChunkSource stream_a(6, options_a);
  TcpChunkSource::Options options_b;
  options_b.journal_path = path_b.str();
  TcpChunkSource stream_b(6, options_b);
  IngestListener listener(IngestListenerOptions{});
  listener.register_stream("a", &stream_a);
  listener.register_stream("b", &stream_b);

  // A raw session: handshake, chunk 1 (the first 4 snapshots, re-acked as
  // a duplicate after the first session), then one `type` frame carrying
  // `payload`. Returns the listener's reply.
  const auto session = [&](const std::string& stream, FrameType type,
                           const std::vector<std::uint8_t>& payload) {
    Socket socket = net::connect_loopback(listener.port(), 5.0);
    socket.set_timeouts(5.0, 5.0);
    net::send_magic(socket);
    net::send_frame(socket, FrameType::Hello, 0,
                    net::encode_hello_payload(stream, 6));
    EXPECT_EQ(net::recv_frame(socket).type, FrameType::HelloAck);
    net::send_frame(socket, FrameType::Chunk, 1,
                    net::encode_chunk_payload(data.block(0, 0, 6, 4)));
    EXPECT_EQ(net::recv_frame(socket).type, FrameType::Ack);
    net::send_frame(socket, type, 1, payload);
    return net::recv_frame(socket);
  };
  const auto expect_rejected = [](const Frame& reply) {
    ASSERT_EQ(reply.type, FrameType::Error);
    EXPECT_EQ(net::decode_error_payload(reply.payload).code,
              net::ErrorCode::Protocol);
  };

  const Frame ended = session("b", FrameType::End,
                              net::encode_position_payload(4));
  EXPECT_EQ(ended.type, FrameType::EndAck);
  EXPECT_TRUE(stream_b.ended());

  for (const std::vector<std::uint8_t>& payload :
       {net::encode_position_payload(999), std::vector<std::uint8_t>{},
        std::vector<std::uint8_t>{4, 0, 0}}) {
    expect_rejected(session("a", FrameType::End, payload));
    EXPECT_FALSE(stream_a.ended());
  }
  for (const std::vector<std::uint8_t>& payload :
       {net::encode_position_payload(999), std::vector<std::uint8_t>{4, 0}}) {
    expect_rejected(session("a", FrameType::Checkpoint, payload));
  }
  EXPECT_EQ(
      session("a", FrameType::Checkpoint, net::encode_position_payload(4))
          .type,
      FrameType::Ack);
  EXPECT_EQ(stream_a.journaled_snapshots(), 4u);
  EXPECT_FALSE(stream_a.ended());

  // The rejected Ends left the stream open: a real shipper resumes it at
  // snapshot 4 and completes it.
  ShipperOptions ship_options;
  ship_options.port = listener.port();
  ship_options.stream_id = "a";
  const ShipSummary summary = ship_matrix(data, 4, 4, ship_options);
  EXPECT_EQ(summary.snapshots, 8u);
  EXPECT_TRUE(stream_a.ended());
  expect_mat_bitwise(drain_source(stream_a, 12), data);
  listener.stop();
}

TEST(NetShipperListener, ConcurrentShippersStayIsolated) {
  Rng rng_a(28);
  Rng rng_b(29);
  const Mat data_a = planted_multiscale(5, 40, 0.02, rng_a);
  const Mat data_b = planted_multiscale(7, 36, 0.02, rng_b);
  serve::MetricsRegistry metrics;

  const ScopedJournalPath journal_a("iso_a");
  const ScopedJournalPath journal_b("iso_b");
  TcpChunkSource::Options options_a;
  options_a.journal_path = journal_a.str();
  TcpChunkSource received_a(5, options_a);
  TcpChunkSource::Options options_b;
  options_b.journal_path = journal_b.str();
  TcpChunkSource received_b(7, options_b);

  IngestListenerOptions listener_options;
  listener_options.metrics = &metrics;
  IngestListener listener(listener_options);
  listener.register_stream("a", &received_a);
  listener.register_stream("b", &received_b);

  // Stream a rides through a mid-frame-killing proxy, stream b ships
  // directly, and a third shipper names an unknown stream — three
  // concurrent connections, one listener, zero cross-talk.
  FaultPlan plan;
  plan.kill_after_bytes = 400;
  FaultProxy proxy(listener.port(), plan, 1);

  ShipSummary summary_a;
  ShipSummary summary_b;
  bool ghost_rejected = false;
  std::thread shipper_a([&] {
    ShipperOptions options;
    options.port = proxy.port();
    options.stream_id = "a";
    options.backoff_base_seconds = 0.01;
    options.backoff_cap_seconds = 0.05;
    summary_a = ship_matrix(data_a, 8, 8, options);
  });
  std::thread shipper_b([&] {
    ShipperOptions options;
    options.port = listener.port();
    options.stream_id = "b";
    summary_b = ship_matrix(data_b, 12, 6, options);
  });
  std::thread ghost([&] {
    Rng rng(30);
    const Mat data = planted_multiscale(3, 12, 0.02, rng);
    ShipperOptions options;
    options.port = listener.port();
    options.stream_id = "ghost";
    try {
      ship_matrix(data, 6, 3, options);
    } catch (const ProtocolError&) {
      ghost_rejected = true;
    }
  });
  shipper_a.join();
  shipper_b.join();
  ghost.join();

  EXPECT_TRUE(ghost_rejected);
  EXPECT_GE(summary_a.reconnects, 1u);
  EXPECT_EQ(summary_b.reconnects, 0u);
  expect_mat_bitwise(drain_source(received_a, 40), data_a);
  expect_mat_bitwise(drain_source(received_b, 36), data_b);
  proxy.stop();
  listener.stop();
}

// --- socket-fed service tenant: checkpoint-on-stop, bitwise resume --------

PipelineOptions net_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};
  return options;
}

/// MatrixChunkSource with a per-chunk delay, so the tenant is genuinely
/// network-paced and a stop() lands mid-stream.
class PacedMatrixSource final : public ChunkSource {
 public:
  PacedMatrixSource(const Mat& data, std::size_t initial, std::size_t chunk,
                    std::chrono::milliseconds delay)
      : inner_(data, initial, chunk), delay_(delay) {}
  std::optional<Mat> next_chunk() override {
    std::this_thread::sleep_for(delay_);
    return inner_.next_chunk();
  }
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }

 private:
  MatrixChunkSource inner_;
  std::chrono::milliseconds delay_;
};

void socket_fed_tenant_stops_checkpoints_and_resumes_bitwise(
    std::size_t stride) {
  // The acceptance gate: a tenant fed over the wire (through a mid-frame
  // kill + reconnect, no less) is stopped mid-stream, checkpointed, and a
  // successor resumes from the SAME journal — and the concatenation equals
  // the uninterrupted direct-source run bit for bit.
  Rng rng(31);
  const std::size_t sensors = 8;
  const Mat data = planted_multiscale(sensors, 64 + 40 * 16, 0.02, rng);
  AssessorConfig config;
  config.pipeline(net_pipeline_options())
      .sensors(sensors)
      .monolithic()
      .hierarchy(stride);

  // Reference: the direct, uninterrupted run.
  std::vector<AssessmentSnapshot> reference;
  {
    Assessor assessor(config);
    MatrixChunkSource source(data, 64, 16);
    CollectingSink sink;
    assessor.run(source, sink);
    reference = sink.take();
  }
  ASSERT_EQ(reference.size(), 41u);

  const ScopedJournalPath journal("tenant");
  const std::string& journal_path = journal.str();
  const std::string checkpoint_path =
      ::testing::TempDir() + "/net_tenant_stop.ckpt";
  std::remove(checkpoint_path.c_str());

  CollectingSink sink;
  std::size_t delivered = 0;
  {
    serve::AssessorService service;
    TcpChunkSource::Options source_options;
    source_options.journal_path = journal_path;
    TcpChunkSource received(sensors, source_options);

    IngestListenerOptions listener_options;
    listener_options.metrics = &service.metrics();
    IngestListener listener(listener_options);
    listener.register_stream("tenant-0", &received);

    // The wire is faulty: the first connection dies mid-chunk-frame.
    FaultPlan plan;
    plan.kill_after_bytes = 2000;
    FaultProxy proxy(listener.port(), plan, 1);

    std::size_t reconnects = 0;
    std::thread shipper_thread([&] {
      PacedMatrixSource paced(data, 64, 16,
                              std::chrono::milliseconds(4));
      ShipperOptions options;
      options.port = proxy.port();
      options.stream_id = "tenant-0";
      options.backoff_base_seconds = 0.01;
      options.backoff_cap_seconds = 0.05;
      ChunkShipper shipper(options);
      reconnects = shipper.ship(paced).reconnects;
    });

    serve::TenantOptions tenant;
    tenant.config = config;
    tenant.config.checkpoint_policy.path = checkpoint_path;  // stop-only
    tenant.source = &received;
    tenant.sink = &sink;
    service.add_tenant("tenant-0", tenant);
    service.start("tenant-0");

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (service.metrics().value("imrdmd_tenant_chunks_total",
                                   {{"tenant", "tenant-0"}}) < 3.0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "tenant never consumed 3 chunks";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    service.stop("tenant-0");
    const auto status = service.status("tenant-0");
    ASSERT_EQ(status.state, serve::TenantState::Stopped) << status.error;
    delivered = sink.snapshots().size();
    ASSERT_GE(delivered, 3u);
    ASSERT_LT(delivered, reference.size());

    // Let the shipper finish filling the journal, then retire the wire.
    shipper_thread.join();
    EXPECT_GE(reconnects, 1u);
    proxy.stop();
    listener.stop();
    ASSERT_TRUE(received.ended());
  }

  // Successor process: restore the checkpoint, reopen the SAME journal as
  // a fresh TcpChunkSource, seek, run to end of stream.
  auto restored = core::load_assessor_checkpoint_file(checkpoint_path);
  TcpChunkSource::Options successor_options;
  successor_options.journal_path = journal_path;
  TcpChunkSource successor(sensors, successor_options);
  EXPECT_TRUE(successor.ended());
  successor.seek(restored.stream_position);
  CollectingSink rest;
  restored.assessor.run(successor, rest);

  ASSERT_EQ(delivered + rest.snapshots().size(), reference.size());
  for (std::size_t c = 0; c < delivered; ++c) {
    expect_snapshot_equal(sink.snapshots()[c], reference[c]);
  }
  for (std::size_t c = 0; c < rest.snapshots().size(); ++c) {
    expect_snapshot_equal(rest.snapshots()[c], reference[delivered + c]);
  }
  std::remove(checkpoint_path.c_str());
}

TEST(NetTenant, SocketFedTenantStopsCheckpointsAndResumesBitwise) {
  for_each_stride(socket_fed_tenant_stops_checkpoints_and_resumes_bitwise);
}

TEST(NetTenant, FactoryMintsStreamsOnFirstHello) {
  // The dynamic-tenant path examples/assessor_server uses: no registered
  // stream, the on_new_stream factory creates the source on first hello.
  Rng rng(32);
  const Mat data = planted_multiscale(4, 24, 0.02, rng);
  std::vector<ScopedJournalPath> minted_journals;
  std::vector<std::unique_ptr<TcpChunkSource>> minted;
  std::mutex minted_mutex;

  IngestListenerOptions options;
  options.on_new_stream = [&](const std::string& stream_id,
                              std::size_t sensors) -> TcpChunkSource* {
    std::lock_guard<std::mutex> lock(minted_mutex);
    minted_journals.emplace_back("minted_" + stream_id);
    TcpChunkSource::Options source_options;
    source_options.journal_path = minted_journals.back().str();
    minted.push_back(
        std::make_unique<TcpChunkSource>(sensors, source_options));
    return minted.back().get();
  };
  IngestListener listener(options);

  ShipperOptions ship_options;
  ship_options.port = listener.port();
  ship_options.stream_id = "fresh";
  const ShipSummary summary = ship_matrix(data, 8, 5, ship_options);
  EXPECT_EQ(summary.snapshots, 24u);
  ASSERT_EQ(minted.size(), 1u);
  expect_mat_bitwise(drain_source(*minted[0], 24), data);
  listener.stop();
}

}  // namespace
}  // namespace imrdmd
