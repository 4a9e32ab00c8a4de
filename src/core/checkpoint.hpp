// Checkpointing of I-mrDMD state — single model, and the unified Assessor
// engine.
//
// The paper's deployment story is a long-running online analysis; a crash
// must not force re-ingesting weeks of telemetry.
//
//   * save_checkpoint writes a versioned binary image of one model
//     (options, level-1 grid + incremental SVD factors, every tree node,
//     optional history); load_checkpoint restores a model that continues
//     partial_fit'ing exactly where the original left off (round-trip
//     tested to bit-equality of reconstructions).
//   * The engine has ONE container, "IMRDFL4", for every topology and both
//     storages. Its preamble holds the stage options, baseline selection
//     state, chunk counter, stream position and group partition, then the
//     coarse stride and, when hierarchical, the explicit coarse grid and
//     interpolation map (so an elastically grown stack saves like any
//     other). A writer count follows: 0 is the full save, whose section
//     list (count, the coarse model first, then one model per group in
//     global order) follows inline; W >= 1 is the delta save
//     (CheckpointPolicy::delta), a manifest of W rank-local part files that
//     each start with the same section list.
//   * In the distributed topology the full save is a collective gather to
//     rank 0 that writes the SAME bytes as the single-process save —
//     byte-identical for any lane or rank count.
//   * The engine's older container generations have no reader: their
//     magics fail with ParseError (bad magic).
//
// Little-endian, magic "IMRDMD1\n" (one model) / "IMRDFL4\n" (engine), then
// length-prefixed sections, encoded with the shared byte codec
// (common/byte_codec.hpp). Every section is bounds-checked against the
// remaining input before it drives an allocation (the codec's ByteReader),
// so truncated or corrupted inputs fail with ParseError, never a
// fantasy-sized allocation. The formats are an implementation detail —
// only this module reads them. File-level writes go through
// write_file_atomic (common/atomic_file.hpp): the checkpoint path always
// holds a complete image, even across a crash mid-save.
//
// One representation: any container resumes into any topology at any lane
// or rank count, and the resumed stride always comes from the container.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/assessor.hpp"
#include "core/imrdmd.hpp"

namespace imrdmd::core {

/// Serializes `model` (must be fitted).
void save_checkpoint(std::ostream& out, const IncrementalMrdmd& model);
void save_checkpoint_file(const std::string& path,
                          const IncrementalMrdmd& model);

/// Restores a model; throws ParseError on malformed/mismatched input
/// (including truncated streams and corrupted section lengths, which are
/// bounded against the remaining stream size before any allocation). On a
/// non-seekable stream the size is unknown, so sections are instead held to
/// a 1 GiB ceiling — pipe-fed checkpoints larger than that must be staged
/// to a file (load_checkpoint_file has no such limit).
IncrementalMrdmd load_checkpoint(std::istream& in);
IncrementalMrdmd load_checkpoint_file(const std::string& path);

// --- Assessor checkpoint/resume -----------------------------------------

/// Runtime knobs for a resumed engine that are deliberately *not* part of
/// the checkpoint: lane count, ingestion policy, pool, and the re-armed
/// periodic-checkpoint policy are free to change across a resume — results
/// are lane/rank/prefetch invariant, so the resumed stream is bitwise
/// identical regardless.
struct AssessorResumeOptions {
  std::size_t lanes = 0;
  IngestOptions ingest;
  ThreadPool* pool = nullptr;
  CheckpointPolicy checkpoint;
};

/// An engine restored from a checkpoint plus the stream position (total
/// snapshots ingested) to hand to ChunkSource::seek before resuming.
struct RestoredAssessor {
  Assessor assessor;
  std::uint64_t stream_position = 0;
};

/// Serializes the engine's full resumable state. Single-process topologies
/// write directly; the distributed topology is a collective (every rank
/// serializes its owned groups' sections across its local lanes and
/// contributes them through one ragged gather; rank 0 assembles in global
/// group order) — use the pointer overload there, with `out` non-null on
/// rank 0 only. The bytes are identical for any lane or rank count. The
/// engine must have processed at least one chunk.
void save_assessor_checkpoint(std::ostream& out, const Assessor& assessor);
void save_assessor_checkpoint(std::ostream* out, const Assessor& assessor);
/// Atomic (write-temp-then-rename) on the writing rank; collective in the
/// distributed topology (this is the periodic checkpoint hook's entry
/// point). Writes the full save, or under CheckpointPolicy::delta the
/// rank-local delta save through the engine's DeltaJournal (hence the
/// non-const engine). Either one retires, once its main is durable, the
/// parts of the delta epoch the main it replaces named: the epoch a resumed
/// engine was loaded from, or the one an engine finds at a path it has not
/// written before, whose next epoch it then takes.
void save_assessor_checkpoint_file(const std::string& path,
                                   Assessor& assessor);

/// Restores a single-process engine mid-stream (the sharded topology, or
/// monolithic when the container holds one identity group). NOT collective.
RestoredAssessor load_assessor_checkpoint(
    std::istream& in, const AssessorResumeOptions& resume = {});
RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, const AssessorResumeOptions& resume = {});

/// Restores a distributed-topology engine. NOT collective (no
/// communication): every rank parses the container independently and keeps
/// only the models of the groups it owns under rank_group_range — a
/// checkpoint written at any rank count (including a single-process one)
/// resumes at any other rank count.
RestoredAssessor load_assessor_checkpoint(
    std::istream& in, dist::Communicator& comm,
    const AssessorResumeOptions& resume = {});
RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, dist::Communicator& comm,
    const AssessorResumeOptions& resume = {});

}  // namespace imrdmd::core
