#include "dist/communicator.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/error.hpp"

namespace imrdmd::dist {

int Communicator::size() const { return world_->ranks_; }

void World::barrier_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (failed_) {
    throw CollectiveAborted("collective aborted: a peer rank failed");
  }
  const std::size_t gen = generation_;
  if (++arrived_ == static_cast<std::size_t>(ranks_)) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen || failed_; });
  if (generation_ == gen) {
    // Woken by poison before the barrier filled: withdraw this rank's
    // arrival so the count stays coherent, then unwind. (When the barrier
    // completed concurrently with the poison, fall through — the *next*
    // collective throws on entry instead.)
    --arrived_;
    throw CollectiveAborted("collective aborted: a peer rank failed");
  }
}

void World::poison() {
  std::lock_guard<std::mutex> lock(mutex_);
  failed_ = true;
  cv_.notify_all();
}

void Communicator::barrier() { world_->barrier_wait(); }

void Communicator::exchange(
    std::span<const double> local,
    const std::function<void(const std::vector<std::vector<double>>&)>&
        combine) {
  auto& slots = world_->slots_;
  slots[static_cast<std::size_t>(rank_)].assign(local.begin(), local.end());
  world_->barrier_wait();  // every deposit visible
  combine(slots);
  world_->barrier_wait();  // every read done; slots reusable
}

void Communicator::broadcast(std::span<double> buffer, int root) {
  IMRDMD_REQUIRE_ARG(root >= 0 && root < size(), "broadcast root out of range");
  exchange(buffer, [&](const std::vector<std::vector<double>>& slots) {
    // Validate against *every* slot, not just the root's: on a size
    // mismatch all ranks then throw together and none is left blocking in
    // the exit barrier on a rank that bailed out.
    for (const auto& slot : slots) {
      IMRDMD_REQUIRE_DIMS(slot.size() == buffer.size(),
                          "broadcast buffer sizes disagree across ranks");
    }
    const auto& src = slots[static_cast<std::size_t>(root)];
    std::copy(src.begin(), src.end(), buffer.begin());
  });
  if (rank_ != root) wire_bytes_ += buffer.size() * sizeof(double);
}

std::vector<double> Communicator::scatterv(std::span<const double> send,
                                           const std::vector<std::size_t>& counts,
                                           int root) {
  IMRDMD_REQUIRE_ARG(root >= 0 && root < size(), "scatterv root out of range");
  IMRDMD_REQUIRE_ARG(counts.size() == static_cast<std::size_t>(size()),
                     "scatterv counts must have one entry per rank");
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  // Slot layout: [counts as doubles..., payload (root only)]. Depositing
  // the counts from every rank lets the combine validate the agreement
  // collectively — a desynced rank makes all ranks throw together instead
  // of one rank misparsing the root's payload.
  std::vector<double> deposit;
  deposit.reserve(counts.size() +
                  (rank_ == root ? send.size() : std::size_t{0}));
  for (const std::size_t c : counts) {
    deposit.push_back(static_cast<double>(c));
  }
  if (rank_ == root) {
    IMRDMD_REQUIRE_DIMS(send.size() == total,
                        "scatterv send buffer does not match counts");
    deposit.insert(deposit.end(), send.begin(), send.end());
  }
  std::vector<double> mine;
  exchange(deposit, [&](const std::vector<std::vector<double>>& slots) {
    for (int r = 0; r < size(); ++r) {
      const auto& slot = slots[static_cast<std::size_t>(r)];
      const std::size_t expected =
          counts.size() + (r == root ? total : std::size_t{0});
      IMRDMD_REQUIRE_DIMS(slot.size() == expected,
                          "scatterv slot sizes disagree across ranks");
      for (std::size_t i = 0; i < counts.size(); ++i) {
        IMRDMD_REQUIRE_DIMS(slot[i] == static_cast<double>(counts[i]),
                            "scatterv counts disagree across ranks");
      }
    }
    const auto& src = slots[static_cast<std::size_t>(root)];
    std::size_t offset = counts.size();
    for (int r = 0; r < rank_; ++r) offset += counts[static_cast<std::size_t>(r)];
    const std::size_t count = counts[static_cast<std::size_t>(rank_)];
    mine.assign(src.begin() + static_cast<std::ptrdiff_t>(offset),
                src.begin() + static_cast<std::ptrdiff_t>(offset + count));
  });
  if (rank_ != root) wire_bytes_ += mine.size() * sizeof(double);
  return mine;
}

std::vector<std::vector<double>> Communicator::allgatherv(
    std::span<const double> local) {
  std::vector<std::vector<double>> all;
  exchange(local, [&](const std::vector<std::vector<double>>& slots) {
    all = slots;  // copy inside the barriers: slots are reused afterwards
  });
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    wire_bytes_ += all[static_cast<std::size_t>(r)].size() * sizeof(double);
  }
  return all;
}

std::vector<std::vector<double>> Communicator::gatherv(
    std::span<const double> local, int root) {
  IMRDMD_REQUIRE_ARG(root >= 0 && root < size(), "gatherv root out of range");
  std::vector<std::vector<double>> all;
  exchange(local, [&](const std::vector<std::vector<double>>& slots) {
    if (rank_ == root) all = slots;
  });
  for (int r = 0; r < size(); ++r) {
    if (r == rank_ || rank_ != root) continue;
    wire_bytes_ += all[static_cast<std::size_t>(r)].size() * sizeof(double);
  }
  return all;
}

World::World(int ranks) : ranks_(ranks) {
  IMRDMD_REQUIRE_ARG(ranks >= 1, "World needs at least one rank");
  slots_.resize(static_cast<std::size_t>(ranks));
}

void World::run(const std::function<void(Communicator&)>& fn) {
  {
    // A World is reusable across run() calls; clear any poison left by a
    // previous failed invocation.
    std::lock_guard<std::mutex> lock(mutex_);
    failed_ = false;
    arrived_ = 0;
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(ranks_));
  threads.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    threads.emplace_back([this, &fn, &errors, r] {
      Communicator comm(*this, r);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // First failure poisons every collective so peers blocked between
        // this rank's past and future collective calls unwind instead of
        // waiting forever on a barrier this rank will never enter.
        poison();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the lowest-rank *primary* failure; the CollectiveAborted
  // unwinds it triggered on the peers are secondary noise.
  std::exception_ptr chosen;
  for (const auto& error : errors) {
    if (!error) continue;
    bool aborted = false;
    try {
      std::rethrow_exception(error);
    } catch (const CollectiveAborted&) {
      aborted = true;
    } catch (...) {
    }
    if (!aborted) {
      chosen = error;
      break;
    }
    if (!chosen) chosen = error;
  }
  if (chosen) std::rethrow_exception(chosen);
}

}  // namespace imrdmd::dist
