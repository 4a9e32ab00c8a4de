// Thread-SPMD "distributed" runtime: a World of N ranks, each a thread
// running the same function, talking through a Communicator of MPI-shaped
// collectives (barrier, broadcast, scatterv, allgatherv, gatherv).
//
// It carries the distributed core::Assessor on one node: broadcast agrees
// each chunk's width, scatterv ships each rank its owned rows of it,
// allgatherv merges the per-group results, and gatherv collects checkpoint
// sections at the root. Every collective combines contributions in rank
// order, so results are bitwise identical across ranks and across runs — a
// drop-in MPI backend only has to preserve that ordering contract.
//
// All collectives are, as in MPI, *collective*: every rank of the world
// must call them in the same order with agreeing root arguments. Unlike
// MPI, a rank that throws out of the ranked function *poisons* the world's
// collectives: peers blocked inside (or later entering) a collective unwind
// with CollectiveAborted instead of deadlocking the join, and World::run
// rethrows the lowest-rank *original* exception (poison-unwind exceptions
// are surfaced only when no rank recorded a primary failure).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace imrdmd::dist {

class World;

/// Thrown by a collective when a peer rank has already failed: the world's
/// collectives are poisoned so every surviving rank unwinds instead of
/// blocking forever on a barrier the failed rank will never enter. SPMD
/// code may catch it to release local resources, but must not attempt
/// further collectives on the same World::run invocation.
class CollectiveAborted : public Error {
 public:
  explicit CollectiveAborted(const std::string& what) : Error(what) {}
};

/// One rank's endpoint into the world's collectives. Created by World::run;
/// valid only for the duration of the ranked function.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocks until every rank has entered the barrier.
  void barrier();

  /// Replicates `buffer` from `root` to every rank (in place).
  void broadcast(std::span<double> buffer, int root);

  /// Ragged allgather: every rank's contribution, in rank order, with the
  /// per-rank boundaries preserved (result[r] is rank r's contribution,
  /// possibly empty). Replicated on all ranks. This is the primitive for
  /// collectives whose per-rank payload sizes legitimately differ (e.g. a
  /// fleet rank owning an uneven share of sensor groups) and for callers
  /// that must *check* an agreed-uniform-length contract instead of
  /// silently misparsing a flat concatenation.
  std::vector<std::vector<double>> allgatherv(std::span<const double> local);

  /// Ragged gather: only `root` receives the per-rank contributions (with
  /// boundaries preserved); other ranks get {}.
  std::vector<std::vector<double>> gatherv(std::span<const double> local,
                                           int root);

  /// Ragged scatter: `root` supplies `send` as the rank-order concatenation
  /// of per-rank slices whose lengths are `counts` (counts.size() == world
  /// size, sum(counts) == send.size() at root; `send` is ignored
  /// elsewhere). Every rank passes the same `counts` — the agreement is
  /// validated collectively so a desynced rank makes all ranks throw
  /// together — and receives its own slice. This is the O(P·T) ingestion
  /// primitive: each rank's wire cost is its slice, not the whole buffer.
  std::vector<double> scatterv(std::span<const double> send,
                               const std::vector<std::size_t>& counts,
                               int root);

  /// Bytes this rank has *received* from remote ranks across all
  /// collectives since construction (or the last reset). Models the wire
  /// cost an MPI backend would pay: broadcast charges non-roots the full
  /// buffer, scatterv charges non-roots only their slice, gathers charge
  /// the root the sum of remote contributions, allgathers charge everyone
  /// the sum of remote contributions. Barriers are free.
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  void reset_wire_bytes() { wire_bytes_ = 0; }

 private:
  friend class World;
  Communicator(World& world, int rank) : world_(&world), rank_(rank) {}

  /// Deposits this rank's contribution, waits for all ranks, then applies
  /// `combine` (reading every slot) before the exit barrier releases the
  /// slots for the next collective.
  void exchange(std::span<const double> local,
                const std::function<void(const std::vector<std::vector<double>>&)>& combine);

  World* world_;
  int rank_;
  std::uint64_t wire_bytes_ = 0;
};

/// Owns the shared collective state for `ranks` SPMD participants.
class World {
 public:
  /// Throws InvalidArgument when ranks == 0.
  explicit World(int ranks);

  int size() const { return ranks_; }

  /// Spawns one thread per rank, runs `fn(comm)` on each, joins all, and
  /// rethrows if any rank threw: the first rank failure poisons the world's
  /// collectives (peers unwind with CollectiveAborted instead of blocking
  /// forever), and the lowest-rank non-CollectiveAborted exception is
  /// rethrown — the original failure, not a secondary unwind.
  void run(const std::function<void(Communicator&)>& fn);

 private:
  friend class Communicator;

  void barrier_wait();
  /// Marks the world failed and wakes every rank blocked in a barrier.
  void poison();

  int ranks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::size_t generation_ = 0;
  /// Set by the first rank to fail; collectives then throw on entry/wake.
  bool failed_ = false;
  /// Per-rank deposit slots, stable between the two barriers of a
  /// collective (write -> barrier -> read -> barrier).
  std::vector<std::vector<double>> slots_;
};

}  // namespace imrdmd::dist
