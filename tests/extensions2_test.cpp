// Tests for the future-work extensions: checkpointing, descendant
// replacement and incremental sensor addition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/imrdmd.hpp"
#include "linalg/blas.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::Mat;
using imrdmd::testing::expect_bitwise_equal;
using imrdmd::testing::planted_multiscale;

core::ImrdmdOptions small_options() {
  core::ImrdmdOptions options;
  options.mrdmd.max_levels = 4;
  options.mrdmd.dt = 1.0;
  return options;
}

TEST(Checkpoint, RoundTripsReconstructionExactly) {
  Rng rng(1);
  const Mat data = planted_multiscale(12, 512, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data);

  std::stringstream buffer;
  core::save_checkpoint(buffer, model);
  core::IncrementalMrdmd restored = core::load_checkpoint(buffer);

  EXPECT_EQ(restored.sensors(), model.sensors());
  EXPECT_EQ(restored.time_steps(), model.time_steps());
  EXPECT_EQ(restored.nodes().size(), model.nodes().size());
  EXPECT_EQ(restored.level1_stride(), model.level1_stride());
  const Mat a = model.reconstruct();
  const Mat b = restored.reconstruct();
  EXPECT_EQ(imrdmd::testing::max_abs_diff(a, b), 0.0);  // bit-exact
}

TEST(Checkpoint, RestoredModelContinuesStreaming) {
  Rng rng(2);
  const Mat data = planted_multiscale(10, 768, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data.block(0, 0, 10, 512));

  // The live model's magnitude terms are filled before the save; the
  // loader leaves the restored model's unfilled, and its first read fills
  // them. Both must give the same magnitudes, bitwise.
  dmd::ModeBand band;
  band.max_frequency_hz = 0.01;
  model.magnitudes(&band);

  std::stringstream buffer;
  core::save_checkpoint(buffer, model);
  core::IncrementalMrdmd restored = core::load_checkpoint(buffer);
  const auto expect_same_magnitudes = [&](const std::string& when) {
    const dmd::ModeBand* const bands[] = {&band, nullptr};
    for (const dmd::ModeBand* b : bands) {
      expect_bitwise_equal(restored.magnitudes(b), model.magnitudes(b),
                           "magnitudes " + when);
    }
  };
  expect_same_magnitudes("after restore");

  // Both continue with the same chunk; results stay identical.
  const Mat chunk = data.block(0, 512, 10, 256);
  const auto r1 = model.partial_fit(chunk);
  const auto r2 = restored.partial_fit(chunk);
  EXPECT_EQ(r1.new_grid_columns, r2.new_grid_columns);
  EXPECT_EQ(r1.drift_grid, r2.drift_grid);  // bitwise
  EXPECT_EQ(r1.drift_estimate, r2.drift_estimate);
  EXPECT_EQ(imrdmd::testing::max_abs_diff(model.reconstruct(),
                                          restored.reconstruct()),
            0.0);
  expect_same_magnitudes("after partial_fit");
}

TEST(Checkpoint, FileRoundTripAndBadInputs) {
  Rng rng(3);
  const Mat data = planted_multiscale(6, 256, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data);
  const std::string path = ::testing::TempDir() + "/model.ckpt";
  core::save_checkpoint_file(path, model);
  const core::IncrementalMrdmd restored = core::load_checkpoint_file(path);
  EXPECT_EQ(restored.time_steps(), 256u);
  std::remove(path.c_str());

  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(core::load_checkpoint(garbage), ParseError);
  std::stringstream truncated;
  core::save_checkpoint(truncated, model);
  std::string bytes = truncated.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW(core::load_checkpoint(half), ParseError);
}

TEST(Checkpoint, EveryTruncationPointYieldsParseError) {
  // Regression: a truncated stream used to be detected only after the
  // length-prefixed section had already driven an allocation / over-read;
  // every prefix must now fail with the documented ParseError.
  Rng rng(5);
  const Mat data = planted_multiscale(6, 256, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data);
  std::stringstream full;
  core::save_checkpoint(full, model);
  const std::string bytes = full.str();
  ASSERT_GT(bytes.size(), 64u);

  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(core::load_checkpoint(truncated), ParseError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Checkpoint, CorruptSectionLengthsRejectedWithoutHugeAllocation) {
  Rng rng(6);
  const Mat data = planted_multiscale(6, 256, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data);
  std::stringstream full;
  core::save_checkpoint(full, model);
  const std::string bytes = full.str();

  // The level-1 grid header sits at a fixed offset: magic (8) + 13 option
  // words (104) + 3 scalar words (24). Plant a shape that passes the
  // per-dimension plausibility cap but would demand ~2^55 bytes — only the
  // remaining-stream bound can reject it before the allocation.
  {
    std::string corrupt = bytes;
    const std::uint64_t big = std::uint64_t{1} << 25;
    std::memcpy(corrupt.data() + 136, &big, sizeof big);
    std::memcpy(corrupt.data() + 144, &big, sizeof big);
    std::stringstream in(corrupt);
    EXPECT_THROW(core::load_checkpoint(in), ParseError);
  }

  // The mrDMD dt word sits after the magic and four option words; a NaN or
  // non-positive dt would load and only fail the next fit's DMD.
  for (const double dt : {std::nan(""), 0.0, -1.0}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + 40, &dt, sizeof dt);
    std::stringstream in(corrupt);
    EXPECT_THROW(core::load_checkpoint(in), ParseError) << "dt " << dt;
  }

  // Option words outside their domain. The slow-mode criterion (byte 48)
  // and the amplitude fit (byte 64) are two-valued enums: any other word
  // would load as one of the two.
  for (const std::size_t offset : {48u, 64u}) {
    for (const std::uint64_t garbage : {std::uint64_t{2}, ~std::uint64_t{0}}) {
      std::string corrupt = bytes;
      std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
      std::stringstream in(corrupt);
      EXPECT_THROW(core::load_checkpoint(in), ParseError)
          << "offset " << offset << " word " << garbage;
    }
  }

  // A sign flip of one singular value: s must stay non-negative and
  // non-increasing, which the one-column update's core solver relies on.
  // The s words follow the grid and U: magic, 16 header words, the grid's
  // and U's two shape words and values, then the rank word.
  {
    const std::size_t grid_values =
        model.sensors() * (256 / model.level1_stride());
    const std::size_t u_values = model.sensors() * model.level1_rank();
    const std::size_t s_offset =
        8 + 16 * 8 + (2 + grid_values) * 8 + (2 + u_values) * 8 + 8;
    std::uint64_t rank_word = 0;
    std::memcpy(&rank_word, bytes.data() + s_offset - 8, sizeof rank_word);
    ASSERT_EQ(rank_word, model.level1_rank());
    std::string corrupt = bytes;
    corrupt[s_offset + 7] = static_cast<char>(corrupt[s_offset + 7] ^ 0x80);
    std::stringstream in(corrupt);
    EXPECT_THROW(core::load_checkpoint(in), ParseError);
  }

  // Fuzz every u64-aligned word with an all-ones word and with the word
  // plus and minus one, on this section and on one that keeps its history:
  // each load must either throw ParseError or yield a model whose
  // magnitudes and reconstruction evaluate to finite values, whose node
  // windows lie inside its timeline, which re-saves to the very bytes it
  // was read from (a shape corruption that still parses leaves bytes
  // unread, and a word that loads as another value does not round-trip),
  // and whose next one-column partial_fit succeeds — never exhaust memory,
  // crash, throw another error type, or load skewed state.
  core::ImrdmdOptions with_history = small_options();
  with_history.keep_history = true;
  core::IncrementalMrdmd kept(with_history);
  kept.initial_fit(data);
  std::stringstream kept_full;
  core::save_checkpoint(kept_full, kept);

  // The bool words (use_svht, parallel_bins, recompute_on_drift,
  // keep_history) are 0 or 1; a 2 would load as true and re-save as 1.
  for (const std::size_t offset : {24u, 56u, 96u, 104u}) {
    std::string corrupt = kept_full.str();
    const std::uint64_t two = 2;
    std::memcpy(corrupt.data() + offset, &two, sizeof two);
    std::stringstream in(corrupt);
    EXPECT_THROW(core::load_checkpoint(in), ParseError) << "offset " << offset;
  }
  const Mat next = planted_multiscale(6, 256 + model.level1_stride(), 0.02,
                                      rng)
                       .block(0, 256, 6, model.level1_stride());
  for (const std::string& section : {bytes, kept_full.str()}) {
    for (std::size_t offset = 8; offset + 8 <= section.size(); offset += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, section.data() + offset, sizeof word);
      for (const std::uint64_t garbage :
           {~std::uint64_t{0}, word + 1, word - 1}) {
        std::string corrupt = section;
        std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
        std::stringstream in(corrupt);
        std::optional<core::IncrementalMrdmd> loaded;
        try {
          loaded.emplace(core::load_checkpoint(in));
        } catch (const ParseError&) {
          continue;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "offset " << offset << " word " << garbage
                        << ": untyped load error: " << e.what();
          continue;
        }
        EXPECT_NO_THROW({
          for (const double value : loaded->magnitudes()) {
            EXPECT_TRUE(std::isfinite(value))
                << "offset " << offset << " word " << garbage;
          }
          const Mat recon = loaded->reconstruct();
          EXPECT_TRUE(std::all_of(recon.data(), recon.data() + recon.size(),
                                  [](double v) { return std::isfinite(v); }))
              << "offset " << offset << " word " << garbage;
        }) << "offset " << offset << " word " << garbage;
        for (const core::MrdmdNode& node : loaded->nodes()) {
          EXPECT_TRUE(node.t_begin < node.t_end &&
                      node.t_end <= loaded->time_steps())
              << "offset " << offset << " word " << garbage
              << ": node window outside the timeline";
        }
        std::stringstream resaved;
        core::save_checkpoint(resaved, *loaded);
        EXPECT_TRUE(resaved.str() == corrupt)
            << "offset " << offset << " word " << garbage;
        try {
          loaded->partial_fit(next);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "offset " << offset << " word " << garbage
                        << ": next one-column partial_fit threw: "
                        << e.what();
        }
      }
    }
  }
}

TEST(Checkpoint, NonSeekableStreamStillBoundsCorruptSections) {
  // A stream without a known size (pipe-like) cannot be bounded exactly;
  // sections are then held to a hard ceiling so a corrupted header still
  // fails with ParseError instead of a fantasy-sized allocation.
  Rng rng(7);
  const Mat data = planted_multiscale(6, 256, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data);
  std::stringstream full;
  core::save_checkpoint(full, model);
  std::string corrupt = full.str();
  const std::uint64_t big = std::uint64_t{1} << 25;
  std::memcpy(corrupt.data() + 136, &big, sizeof big);  // grid rows
  std::memcpy(corrupt.data() + 144, &big, sizeof big);  // grid cols

  imrdmd::testing::NoSeekBuf buffer(corrupt);
  std::istream in(&buffer);
  EXPECT_EQ(in.tellg(), std::istream::pos_type(-1));  // truly non-seekable
  EXPECT_THROW(core::load_checkpoint(in), ParseError);
}

TEST(Checkpoint, UnfittedModelRejected) {
  core::IncrementalMrdmd model(small_options());
  std::stringstream buffer;
  EXPECT_THROW(core::save_checkpoint(buffer, model), InvalidArgument);
}

TEST(ReplaceDescendants, ValidatesInput) {
  Rng rng(6);
  const Mat data = planted_multiscale(6, 256, 0.02, rng);
  core::IncrementalMrdmd model(small_options());
  model.initial_fit(data);
  core::MrdmdNode bad;
  bad.level = 1;  // roots are not descendants
  EXPECT_THROW(model.replace_descendants({bad}), InvalidArgument);
}

TEST(AddSensors, ExtendsModelConsistently) {
  Rng rng(7);
  const Mat data = planted_multiscale(16, 512, 0.02, rng);
  core::ImrdmdOptions options = small_options();
  options.keep_history = true;
  core::IncrementalMrdmd model(options);
  model.initial_fit(data.block(0, 0, 12, 512));  // first 12 sensors
  model.add_sensors(data.block(12, 0, 4, 512));  // add the other 4

  EXPECT_EQ(model.sensors(), 16u);
  const Mat recon = model.reconstruct();
  EXPECT_EQ(recon.rows(), 16u);
  // The extended model explains the full matrix about as well as a model
  // fitted on all 16 sensors from scratch.
  core::IncrementalMrdmd reference(options);
  reference.initial_fit(data);
  const double err_extended = linalg::frobenius_diff(recon, data);
  const double err_reference =
      linalg::frobenius_diff(reference.reconstruct(), data);
  EXPECT_LT(err_extended, err_reference * 1.5 + 1e-6);
  // Streaming continues after the extension.
  Rng rng2(8);
  const Mat more = planted_multiscale(16, 640, 0.02, rng2);
  const auto report = model.partial_fit(more.block(0, 512, 16, 128));
  EXPECT_EQ(report.total_snapshots, 640u);
}

TEST(AddSensors, ValidatesArguments) {
  Rng rng(9);
  const Mat data = planted_multiscale(8, 256, 0.02, rng);
  core::IncrementalMrdmd no_history(small_options());
  no_history.initial_fit(data);
  EXPECT_THROW(no_history.add_sensors(Mat(2, 256)), InvalidArgument);

  core::ImrdmdOptions options = small_options();
  options.keep_history = true;
  core::IncrementalMrdmd model(options);
  model.initial_fit(data);
  EXPECT_THROW(model.add_sensors(Mat(2, 100)), DimensionError);  // short
}

}  // namespace
}  // namespace imrdmd
