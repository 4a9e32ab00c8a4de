// Checkpointing of I-mrDMD state — single model, and the unified Assessor
// engine.
//
// The paper's deployment story is a long-running online analysis; a crash
// must not force re-ingesting weeks of telemetry. One shared serialization
// codepath, versioned container spellings:
//
//   * save_checkpoint writes a versioned binary image of one model
//     (options, level-1 grid + incremental SVD factors, every tree node,
//     optional history); load_checkpoint restores a model that continues
//     partial_fit'ing exactly where the original left off (round-trip
//     tested to bit-equality of reconstructions).
//   * save_assessor_checkpoint serializes the engine's full resumable
//     state (stage options + baseline selection state + chunk counter +
//     stream position, the group partition, one length-prefixed model
//     section per group). A flat engine writes the "IMRDFL1" container;
//     a hierarchical engine writes "IMRDFL2", which inserts the coarse
//     stride and one coarse-model section between the partition and the
//     per-group sections. In the distributed topology the save is a
//     collective gather to rank 0 that writes the SAME bytes as the
//     single-process save — byte-identical for any lane or rank count.
//   * Loads accept every container generation: "IMRDPL1" (the retired
//     monolithic pipeline writer, still producible via
//     save_legacy_pipeline_checkpoint for coverage) and "IMRDFL1" load as
//     stride-disabled flat stacks; "IMRDFL2" restores the hierarchy.
//
// Formats: little-endian, magic "IMRDMD1\n" / "IMRDPL1\n" / "IMRDFL1\n" /
// "IMRDFL2\n", then length-prefixed sections. Every section is
// bounds-checked against the remaining stream size before it drives an
// allocation (BoundedReader discipline), so truncated or corrupted inputs
// fail with ParseError, never a fantasy-sized allocation. The formats are
// an implementation detail — only this module reads them. File-level
// writes go through write_file_atomic (common/atomic_file.hpp): the
// checkpoint path always holds a complete image, even across a crash
// mid-save.
//
// Cross-loading: a pipeline checkpoint loads as a one-group flat assessor,
// and any flat container resumes into any topology — the monolithic,
// sharded, and distributed topologies share one durable representation.
// The resumed stride always comes from the container.
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
/// Atomic (write-temp-then-rename) on the writing rank; dispatches on the
/// engine's topology (this is the periodic checkpoint hook's entry point).
/// Under CheckpointPolicy::delta it writes the rank-local "IMRDFL3"
/// container through the engine's DeltaJournal (hence the non-const
/// engine): a base rewrite retires every part of the epoch it supersedes
/// at `path`, including the epoch a resumed engine was loaded from.
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
/// checkpoint written at any rank count (including a single-process or
/// pipeline checkpoint) resumes at any other rank count.
RestoredAssessor load_assessor_checkpoint(
    std::istream& in, dist::Communicator& comm,
    const AssessorResumeOptions& resume = {});
RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, dist::Communicator& comm,
    const AssessorResumeOptions& resume = {});

// --- Legacy container coverage -------------------------------------------

/// Writes the retired monolithic drivers' "IMRDPL1" container over a flat
/// monolithic engine (one identity group, no hierarchy) — kept so the
/// pre-Assessor on-disk generation stays producible for the format-compat
/// round-trip tests; every load path above accepts it. InvalidArgument for
/// a sharded, distributed, hierarchical, or unstarted engine.
void save_legacy_pipeline_checkpoint(std::ostream& out,
                                     const Assessor& assessor);

}  // namespace imrdmd::core
