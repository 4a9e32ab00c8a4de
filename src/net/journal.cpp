#include "net/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/byte_codec.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"

namespace imrdmd::net {

namespace {

constexpr char kJournalMagic[8] = {'I', 'M', 'R', 'D', 'J', 'L', '1', '\n'};
constexpr std::uint8_t kKindChunk = 1;
constexpr std::uint8_t kKindEnd = 2;

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("ChunkJournal: write to " + path + " failed: " +
                  std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

/// pread of exactly `size` bytes; returns false on a short read (EOF).
bool pread_all(int fd, std::uint8_t* data, std::size_t size,
               std::uint64_t offset, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("ChunkJournal: read of " + path + " failed: " +
                  std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ChunkJournal::ChunkJournal(std::string path, std::size_t sensors)
    : path_(std::move(path)), sensors_(sensors) {
  IMRDMD_REQUIRE_ARG(sensors_ > 0, "ChunkJournal: sensors must be > 0");
  IMRDMD_REQUIRE_ARG(!path_.empty(), "ChunkJournal: path must be set");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw Error("ChunkJournal: cannot open " + path_ + ": " +
                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw Error("ChunkJournal: fstat of " + path_ + " failed: " +
                std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (st.st_size == 0) {
    // Fresh journal: write the header.
    ByteWriter header;
    header.raw(kJournalMagic, sizeof(kJournalMagic));
    header.u64(sensors_);
    write_all(fd_, header.bytes().data(), header.size(), path_);
    append_offset_ = header.size();
    return;
  }
  const std::uint64_t good =
      scan_locked(static_cast<std::uint64_t>(st.st_size));
  if (good < static_cast<std::uint64_t>(st.st_size)) {
    // Torn tail from a kill mid-append: drop it so the next append starts
    // on a record boundary.
    if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
      throw Error("ChunkJournal: truncate of torn tail in " + path_ +
                  " failed: " + std::strerror(errno));
    }
  }
  append_offset_ = good;
}

ChunkJournal::~ChunkJournal() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t ChunkJournal::scan_locked(std::uint64_t file_size) {
  std::uint8_t header[16];
  if (!pread_all(fd_, header, sizeof(header), 0, path_) ||
      std::memcmp(header, kJournalMagic, sizeof(kJournalMagic)) != 0) {
    throw Error("ChunkJournal: " + path_ + " is not an IMRDJL1 journal");
  }
  const std::uint64_t recorded_sensors =
      ByteReader(std::span(header).subspan(sizeof(kJournalMagic))).u64();
  if (recorded_sensors != sensors_) {
    throw Error("ChunkJournal: " + path_ + " records " +
                std::to_string(recorded_sensors) + " sensors, expected " +
                std::to_string(sensors_));
  }
  std::uint64_t at = sizeof(header);
  for (;;) {
    std::uint8_t kind = 0;
    if (!pread_all(fd_, &kind, 1, at, path_)) return at;
    if (kind == kKindEnd) {
      ended_ = true;
      return at + 1;  // nothing may follow the end marker
    }
    if (kind != kKindChunk) {
      throw Error("ChunkJournal: " + path_ + " holds an unknown record kind " +
                  std::to_string(kind) + " at offset " + std::to_string(at));
    }
    std::uint8_t meta[16];
    if (!pread_all(fd_, meta, sizeof(meta), at + 1, path_)) return at;
    ByteReader fields(meta);
    const std::uint64_t cols = fields.u64();
    const std::uint64_t digest = fields.u64();
    if (cols == 0) {
      throw Error("ChunkJournal: " + path_ + " holds a zero-width chunk");
    }
    const std::uint64_t payload_offset = at + 1 + sizeof(meta);
    // A payload that would run past the end of the file is a torn tail,
    // like a short read. Decide it by division, before allocating: the
    // on-disk cols may be garbage, and sensors * cols * 8 can wrap u64.
    const std::uint64_t room =
        file_size > payload_offset ? file_size - payload_offset : 0;
    if (cols > room / sizeof(double) / sensors_) return at;
    const std::uint64_t payload_bytes = sensors_ * cols * sizeof(double);
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(payload_bytes));
    if (!pread_all(fd_, payload.data(), payload.size(), payload_offset,
                   path_)) {
      return at;  // torn tail: record incomplete
    }
    // A record that is complete on disk but fails its digest is real
    // corruption, not a torn append — refuse to serve it.
    if (fnv1a64(payload.data(), payload.size()) != digest) {
      throw Error("ChunkJournal: digest mismatch in " + path_ +
                  " at offset " + std::to_string(at) +
                  " (journal corrupted)");
    }
    Record record;
    record.payload_offset = payload_offset;
    record.cols = static_cast<std::size_t>(cols);
    record.start = snapshots_;
    records_.push_back(record);
    snapshots_ += record.cols;
    at = payload_offset + payload_bytes;
  }
}

std::size_t ChunkJournal::chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::size_t ChunkJournal::snapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_;
}

bool ChunkJournal::ended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ended_;
}

void ChunkJournal::append(const linalg::Mat& chunk) {
  IMRDMD_REQUIRE_DIMS(chunk.rows() == sensors_,
                      "ChunkJournal: chunk row count != sensors");
  IMRDMD_REQUIRE_ARG(chunk.cols() > 0, "ChunkJournal: empty chunk");
  std::lock_guard<std::mutex> lock(mutex_);
  IMRDMD_REQUIRE_ARG(!ended_, "ChunkJournal: append after the end marker");

  // The payload is the chunk's row-major buffer, as the codec lays it out.
  const std::size_t payload_bytes = chunk.size() * sizeof(double);
  ByteWriter record;
  record.u8(kKindChunk);
  record.u64(chunk.cols());
  record.u64(fnv1a64(chunk.data(), payload_bytes));
  record.raw(chunk.data(), payload_bytes);

  if (::lseek(fd_, static_cast<off_t>(append_offset_), SEEK_SET) < 0) {
    throw Error("ChunkJournal: seek in " + path_ + " failed: " +
                std::strerror(errno));
  }
  write_all(fd_, record.bytes().data(), record.size(), path_);

  Record entry;
  entry.payload_offset = append_offset_ + 17;
  entry.cols = chunk.cols();
  entry.start = snapshots_;
  records_.push_back(entry);
  snapshots_ += chunk.cols();
  append_offset_ += record.size();
}

void ChunkJournal::append_end() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ended_) return;
  if (::lseek(fd_, static_cast<off_t>(append_offset_), SEEK_SET) < 0) {
    throw Error("ChunkJournal: seek in " + path_ + " failed: " +
                std::strerror(errno));
  }
  const std::uint8_t kind = kKindEnd;
  write_all(fd_, &kind, 1, path_);
  append_offset_ += 1;
  ended_ = true;
}

linalg::Mat ChunkJournal::read_chunk(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  IMRDMD_REQUIRE_ARG(index < records_.size(),
                     "ChunkJournal: chunk index out of range");
  const Record& record = records_[index];
  // The payload is the chunk's row-major buffer: read it in place.
  linalg::Mat chunk(sensors_, record.cols);
  if (!pread_all(fd_, reinterpret_cast<std::uint8_t*>(chunk.data()),
                 chunk.size() * sizeof(double), record.payload_offset,
                 path_)) {
    throw Error("ChunkJournal: journaled record in " + path_ +
                " vanished (file truncated externally)");
  }
  return chunk;
}

std::size_t ChunkJournal::chunk_cols(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  IMRDMD_REQUIRE_ARG(index < records_.size(),
                     "ChunkJournal: chunk index out of range");
  return records_[index].cols;
}

std::size_t ChunkJournal::chunk_start(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  IMRDMD_REQUIRE_ARG(index < records_.size(),
                     "ChunkJournal: chunk index out of range");
  return records_[index].start;
}

std::size_t ChunkJournal::find_chunk(std::size_t snapshot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  IMRDMD_REQUIRE_ARG(snapshot < snapshots_,
                     "ChunkJournal: snapshot index past the journal");
  // Binary search the cumulative starts for the record containing it.
  std::size_t lo = 0;
  std::size_t hi = records_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (records_[mid].start <= snapshot) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace imrdmd::net
