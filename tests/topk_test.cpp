// Tests for the streaming tile consumers of the similarity engine: the
// for_each_tile visitor contract (exactly-once pair delivery, values equal
// to the pairwise API, serial == pooled), top_k_neighbors equivalence
// against sort-the-full-row (including distance ties and masked/missing
// rows), the min_common filter, the norm-bound pruned top-k strategy
// (bit-identical to exact on module-structured, all-tied, heavily-masked
// and k >= n-1 inputs; prune statistics accounting; Euclidean rejection),
// the streamed mean-pairwise reduction, and the float-accumulator dense
// kernel's block-flush error bound against the double reference across row
// lengths.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/distance.hpp"
#include "expr/expression_matrix.hpp"
#include "par/thread_pool.hpp"
#include "sim/similarity_engine.hpp"
#include "stats/descriptive.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/triangular.hpp"

namespace {

namespace ex = fv::expr;
namespace sm = fv::sim;
namespace st = fv::stats;

ex::ExpressionMatrix random_matrix(std::size_t rows, std::size_t cols,
                                   double missing_rate, std::uint64_t seed) {
  fv::Rng rng(seed);
  ex::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const double sign = r % 2 == 0 ? 1.0 : -1.0;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform() < missing_rate) continue;  // stays missing (NaN)
      const double pattern = std::sin(0.31 * static_cast<double>(c + 1));
      m.set(r, c,
            static_cast<float>(sign * pattern + rng.normal(0.0, 0.4)));
    }
  }
  return m;
}

/// Reference top-k: sort every full row of pairwise distances by
/// (distance, index) and keep the head — exactly the total order the
/// engine's bounded heaps use.
struct ReferenceRow {
  std::vector<std::uint32_t> indices;
  std::vector<float> distances;
};

std::vector<ReferenceRow> reference_top_k(const sm::SimilarityEngine& engine,
                                          std::size_t k,
                                          std::size_t min_common) {
  const std::size_t n = engine.size();
  std::vector<ReferenceRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<float, std::uint32_t>> candidates;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (min_common > 0) {
        std::size_t common = 0;
        for (std::size_t c = 0; c < engine.length(); ++c) {
          if (engine.value_present(i, c) && engine.value_present(j, c)) {
            ++common;
          }
        }
        if (common < min_common) continue;
      }
      const std::size_t a = std::min(i, j);
      const std::size_t b = std::max(i, j);
      candidates.emplace_back(engine.distance(a, b),
                              static_cast<std::uint32_t>(j));
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t keep = std::min(k, candidates.size());
    for (std::size_t s = 0; s < keep; ++s) {
      rows[i].distances.push_back(candidates[s].first);
      rows[i].indices.push_back(candidates[s].second);
    }
  }
  return rows;
}

void expect_table_matches_reference(const sm::SimilarityEngine& engine,
                                    std::size_t k, std::size_t min_common,
                                    fv::par::ThreadPool& pool) {
  const auto table = engine.top_k_neighbors(k, pool, min_common);
  // kAuto routes correlation engines through the pruned strategy; every
  // reference check therefore also pins pruned == exact, bit for bit.
  const auto exact = engine.top_k_neighbors(k, pool, min_common,
                                            sm::TopKStrategy::kExact);
  ASSERT_EQ(table.indices, exact.indices);
  ASSERT_EQ(table.distances, exact.distances);
  ASSERT_EQ(table.valid, exact.valid);
  const auto reference = reference_top_k(engine, table.k, min_common);
  ASSERT_EQ(table.count, engine.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const auto got_idx = table.neighbors(i);
    const auto got_d = table.neighbor_distances(i);
    ASSERT_EQ(got_idx.size(), reference[i].indices.size()) << "row " << i;
    for (std::size_t s = 0; s < got_idx.size(); ++s) {
      EXPECT_EQ(got_idx[s], reference[i].indices[s])
          << "row " << i << " slot " << s;
      EXPECT_EQ(got_d[s], reference[i].distances[s])
          << "row " << i << " slot " << s;
    }
  }
}

TEST(TopKNeighborsTest, MatchesFullRowSortAcrossTileBoundaries) {
  // 70 and 130 rows cross the 64-row tile edge; include missing cells so
  // masked rows exercise the slow kernels inside the tile stream.
  fv::par::ThreadPool pool(3);
  for (const std::size_t rows : {10u, 70u, 130u}) {
    const auto m = random_matrix(rows, 9, 0.1, 500 + rows);
    for (const auto metric : {sm::Metric::kPearson, sm::Metric::kEuclidean}) {
      const auto engine = sm::SimilarityEngine::from_rows(m, metric);
      for (const std::size_t k : {1u, 5u, 17u}) {
        expect_table_matches_reference(engine, k, 0, pool);
      }
    }
  }
}

TEST(TopKNeighborsTest, TiedDistancesResolveByIndexDeterministically) {
  // Blocks of identical rows make whole distance groups tie at 0 (Pearson
  // distance between identical profiles) and at the cross-block value; the
  // (distance, index) total order must pick the lowest indices, on every
  // run, under a multi-threaded pool.
  ex::ExpressionMatrix m(96, 8);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double base = r % 2 == 0 ? std::sin(0.7 * (c + 1.0))
                                     : std::cos(0.9 * (c + 1.0));
      m.set(r, c, static_cast<float>(base));
    }
  }
  fv::par::ThreadPool pool(4);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  const auto first = engine.top_k_neighbors(5, pool);
  expect_table_matches_reference(engine, 5, 0, pool);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto again = engine.top_k_neighbors(5, pool);
    EXPECT_EQ(again.indices, first.indices);
    EXPECT_EQ(again.distances, first.distances);
  }
}

TEST(TopKNeighborsTest, MinCommonFiltersSparseOverlaps) {
  // Rows 0/1 overlap on one column only; rows 2..5 are dense. With
  // min_common = 2 the sparse pair must vanish from both rows' tables.
  const float na = st::missing_value();
  ex::ExpressionMatrix m(6, 4);
  const std::vector<std::vector<float>> rows{
      {1.0f, 2.0f, na, na},
      {na, 2.5f, 3.0f, na},
      {0.5f, 1.5f, 2.5f, 3.5f},
      {3.0f, 1.0f, 2.0f, 0.5f},
      {1.0f, 1.0f, 2.0f, 3.0f},
      {2.0f, 0.5f, 1.5f, 2.5f}};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (!st::is_missing(rows[r][c])) m.set(r, c, rows[r][c]);
    }
  }
  fv::par::ThreadPool pool(2);
  const auto engine =
      sm::SimilarityEngine::from_rows(m, sm::Metric::kEuclidean);
  expect_table_matches_reference(engine, 5, 2, pool);
  const auto table = engine.top_k_neighbors(5, pool, 2);
  for (const auto j : table.neighbors(0)) EXPECT_NE(j, 1u);
  for (const auto j : table.neighbors(1)) EXPECT_NE(j, 0u);
  // Dense rows keep all 5 possible neighbors minus the filtered ones only.
  EXPECT_EQ(table.neighbor_count(2), 5u);
}

TEST(TopKNeighborsTest, DegenerateSizesAndLargeK) {
  fv::par::ThreadPool pool(2);
  const auto empty = sm::SimilarityEngine::from_profiles(
      {}, 0, 5, sm::Metric::kPearson);
  const auto none = empty.top_k_neighbors(3, pool);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.k, 0u);

  const std::vector<float> one{1.0f, 2.0f, 3.0f};
  const auto single =
      sm::SimilarityEngine::from_profiles(one, 1, 3, sm::Metric::kPearson);
  const auto lone = single.top_k_neighbors(4, pool);
  EXPECT_EQ(lone.count, 1u);
  EXPECT_EQ(lone.k, 0u);
  EXPECT_EQ(lone.neighbor_count(0), 0u);

  // k past n - 1 clamps; every row still gets all n - 1 neighbors.
  const auto m = random_matrix(7, 6, 0.0, 901);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  const auto table = engine.top_k_neighbors(50, pool);
  EXPECT_EQ(table.k, 6u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(table.neighbor_count(i), 6u);
  expect_table_matches_reference(engine, 50, 0, pool);

  const auto bank = sm::SimilarityEngine::from_rows(
      m, sm::Metric::kPearson, sm::Precompute::kDotBank);
  EXPECT_THROW(bank.top_k_neighbors(3, pool), fv::InvalidArgument);
}

// --- Norm-bound tile pruning ----------------------------------------------

/// Dataset-block module data: contiguous gene modules, each strongly
/// varying inside its own pair of 16-condition dataset blocks and flat
/// (noise) elsewhere — condition-specific co-regulation, the compendium
/// shape whose normalized rows concentrate norm energy in different
/// segments, giving the pruned strategy's Cauchy–Schwarz bound something
/// to prove on cross-module tiles.
ex::ExpressionMatrix block_module_matrix(std::size_t rows, std::size_t cols,
                                         std::size_t module_rows,
                                         std::uint64_t seed) {
  fv::Rng rng(seed);
  const std::size_t datasets = cols / 16;
  ex::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t module = r / module_rows;
    const std::size_t d0 = module % datasets;
    const std::size_t d1 = (module + 1 + module / datasets) % datasets;
    const double freq = 0.35 + 0.07 * static_cast<double>(module % 7);
    const double phase = 0.5 * static_cast<double>(module);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t dataset = c / 16;
      double value = rng.normal(0.0, 0.05);
      if (dataset == d0 || dataset == d1) {
        value += std::sin(freq * static_cast<double>(c + 1) + phase);
      }
      m.set(r, c, static_cast<float>(value));
    }
  }
  return m;
}

void expect_tables_identical(const sm::NeighborTable& a,
                             const sm::NeighborTable& b) {
  ASSERT_EQ(a.count, b.count);
  ASSERT_EQ(a.k, b.k);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.valid, b.valid);
}

TEST(TopKPrunedTest, PrunesCrossModuleTilesAndStaysBitIdentical) {
  // 320 rows = 5 tile blocks over 4 modules with mostly-disjoint dataset
  // supports: cross-module tiles must actually prune under Pearson, and
  // the table must still be the exact top-k (checked against kExact bit
  // for bit and against the brute-force reference through the kAuto
  // helper). Spearman rides along for correctness only: the rank
  // transform hands the 64 uncorrelated noise cells a third of every
  // row's energy, which both flattens the segment-norm envelope and
  // inflates within-module distances past the cross-module bound — zero
  // prunes is the honest outcome there, and the accounting must say so.
  const auto m = block_module_matrix(320, 96, 80, 41);
  fv::par::ThreadPool pool(1);  // serial pool: prune stats deterministic
  for (const auto metric : {sm::Metric::kPearson, sm::Metric::kSpearman}) {
    const auto engine = sm::SimilarityEngine::from_rows(m, metric);
    sm::TopKStats stats;
    const auto pruned = engine.top_k_neighbors(
        5, pool, 0, sm::TopKStrategy::kPruned, &stats);
    const auto exact =
        engine.top_k_neighbors(5, pool, 0, sm::TopKStrategy::kExact);
    expect_tables_identical(pruned, exact);
    EXPECT_EQ(stats.tiles_total, engine.tile_count());
    EXPECT_EQ(stats.tiles_pruned + stats.tiles_computed, stats.tiles_total);
    EXPECT_LE(stats.bounds_checked, stats.tiles_total);
    if (metric == sm::Metric::kPearson) {
      EXPECT_GT(stats.tiles_pruned, 0u) << "cross-module tiles must prune";
    }
    expect_table_matches_reference(engine, 5, 0, pool);
  }
}

TEST(TopKPrunedTest, MultithreadedPrunedResultsAreScheduleIndependent) {
  // The threshold broadcast races benignly under a real pool: published
  // thresholds may be stale, which only changes how many tiles prune. The
  // returned table is the unique exact top-k every run.
  const auto m = block_module_matrix(300, 96, 75, 77);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool pool(4);
  const auto exact =
      engine.top_k_neighbors(6, pool, 0, sm::TopKStrategy::kExact);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto pruned =
        engine.top_k_neighbors(6, pool, 0, sm::TopKStrategy::kPruned);
    expect_tables_identical(pruned, exact);
  }
}

TEST(TopKPrunedTest, AllTiedBlocksNeverPruneAWinner) {
  // Adversarial: two alternating profiles make every distance tie at 0 or
  // at the one cross value, and the tile bounds sit exactly at the heap
  // thresholds. Equality must never prune (a tied pair with a smaller
  // index still displaces a heap entry), so the (distance, index) winners
  // must match the exact path entry for entry.
  ex::ExpressionMatrix m(130, 8);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double base = r % 2 == 0 ? std::sin(0.7 * (c + 1.0))
                                     : std::cos(0.9 * (c + 1.0));
      m.set(r, c, static_cast<float>(base));
    }
  }
  fv::par::ThreadPool pool(3);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  sm::TopKStats stats;
  const auto pruned = engine.top_k_neighbors(
      7, pool, 0, sm::TopKStrategy::kPruned, &stats);
  const auto exact =
      engine.top_k_neighbors(7, pool, 0, sm::TopKStrategy::kExact);
  expect_tables_identical(pruned, exact);
  expect_table_matches_reference(engine, 7, 0, pool);
}

TEST(TopKPrunedTest, HeavilyMaskedRowsWithMinCommonMatchExact) {
  // 40% missing leaves essentially every tile block with a masked row —
  // unprunable by design (pairwise-complete re-centering is unbounded by
  // full-row norms) — and min_common drops sparse overlaps entirely. The
  // pruned strategy must degrade to exact computation, not to wrong
  // tables.
  const auto m = random_matrix(150, 12, 0.4, 913);
  fv::par::ThreadPool pool(3);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  sm::TopKStats stats;
  const auto pruned = engine.top_k_neighbors(
      4, pool, 6, sm::TopKStrategy::kPruned, &stats);
  const auto exact =
      engine.top_k_neighbors(4, pool, 6, sm::TopKStrategy::kExact);
  expect_tables_identical(pruned, exact);
  EXPECT_EQ(stats.tiles_pruned + stats.tiles_computed, stats.tiles_total);
  expect_table_matches_reference(engine, 4, 6, pool);
}

TEST(TopKPrunedTest, NoPrunableBlockRunsTheExactDriver) {
  // Every 64-row block holds a masked row (the served compendium's shape),
  // so no tile bound can ever be checked: kPruned and kAuto run the exact
  // driver and must report exactly what kExact reports, field for field.
  const auto m = random_matrix(200, 24, 0.05, 4242);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  for (std::size_t b = 0; b * 64 < m.rows(); ++b) {
    bool masked = false;
    for (std::size_t i = b * 64; i < std::min<std::size_t>(m.rows(), b * 64 + 64);
         ++i) {
      masked = masked || engine.row_has_missing(i);
    }
    ASSERT_TRUE(masked) << "block " << b << " is prunable";
  }
  fv::par::ThreadPool pool(2);
  for (const std::size_t min_common : {0u, 6u}) {
    sm::TopKStats exact_stats;
    const auto exact = engine.top_k_neighbors(
        7, pool, min_common, sm::TopKStrategy::kExact, &exact_stats);
    for (const auto strategy :
         {sm::TopKStrategy::kPruned, sm::TopKStrategy::kAuto}) {
      sm::TopKStats stats;
      const auto table =
          engine.top_k_neighbors(7, pool, min_common, strategy, &stats);
      expect_tables_identical(table, exact);
      EXPECT_EQ(stats.tiles_total, exact_stats.tiles_total);
      EXPECT_EQ(stats.tiles_computed, exact_stats.tiles_computed);
      EXPECT_EQ(stats.tiles_pruned, 0u);
      EXPECT_EQ(stats.bounds_checked, 0u);
      EXPECT_EQ(stats.exact_dot_fraction, 1.0);
      EXPECT_EQ(stats.signatures_built, exact_stats.signatures_built);
      EXPECT_EQ(stats.buckets_probed, exact_stats.buckets_probed);
      EXPECT_EQ(stats.candidates_generated, exact_stats.candidates_generated);
      EXPECT_EQ(stats.candidates_rescored, exact_stats.candidates_rescored);
      EXPECT_EQ(stats.exact_dot_fraction, exact_stats.exact_dot_fraction);
    }
  }
  expect_table_matches_reference(engine, 7, 6, pool);
}

TEST(TopKPrunedTest, KPastRowCountIsTheNoPruneDegenerateCase) {
  // k >= n - 1: a row's heap only fills once it has seen every candidate,
  // so thresholds publish too late to matter and every tile computes. The
  // pruned table must still be the full sorted neighbor list.
  const auto m = block_module_matrix(100, 96, 25, 5);
  fv::par::ThreadPool pool(2);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  sm::TopKStats stats;
  const auto pruned = engine.top_k_neighbors(
      200, pool, 0, sm::TopKStrategy::kPruned, &stats);
  const auto exact =
      engine.top_k_neighbors(200, pool, 0, sm::TopKStrategy::kExact);
  expect_tables_identical(pruned, exact);
  EXPECT_EQ(pruned.k, 99u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pruned.neighbor_count(i), 99u);
  }
  expect_table_matches_reference(engine, 200, 0, pool);
}

TEST(TopKPrunedTest, EuclideanRejectsPrunedAndAutoFallsBackToExact) {
  const auto m = block_module_matrix(70, 96, 35, 9);
  fv::par::ThreadPool pool(2);
  const auto engine =
      sm::SimilarityEngine::from_rows(m, sm::Metric::kEuclidean);
  EXPECT_THROW(
      engine.top_k_neighbors(3, pool, 0, sm::TopKStrategy::kPruned),
      fv::InvalidArgument);
  // kAuto on Euclidean routes to the exact strategy and reports it.
  sm::TopKStats stats;
  const auto table = engine.top_k_neighbors(
      3, pool, 0, sm::TopKStrategy::kAuto, &stats);
  EXPECT_EQ(stats.tiles_pruned, 0u);
  EXPECT_EQ(stats.bounds_checked, 0u);
  EXPECT_EQ(stats.tiles_computed, stats.tiles_total);
  expect_table_matches_reference(engine, 3, 0, pool);
}

TEST(ForEachTileTest, DeliversEveryPairOnceWithPairwiseValues) {
  for (const std::size_t rows : {5u, 70u, 130u}) {
    const auto m = random_matrix(rows, 9, 0.15, 700 + rows);
    const auto engine =
        sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
    fv::par::ThreadPool pool(3);
    std::vector<int> visits(rows * rows, 0);
    std::vector<float> values(rows * rows, 0.0f);
    std::mutex mutex;
    std::size_t tiles_seen = 0;
    engine.for_each_tile(
        [&](const sm::DistanceTile& tile) {
          const std::lock_guard<std::mutex> lock(mutex);
          ++tiles_seen;
          EXPECT_LT(tile.index, engine.tile_count());
          for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
            for (std::size_t j = std::max(tile.col_begin, i + 1);
                 j < tile.col_end; ++j) {
              ++visits[i * rows + j];
              values[i * rows + j] = tile.at(i, j);
            }
          }
        },
        pool);
    EXPECT_EQ(tiles_seen, engine.tile_count());
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = i + 1; j < rows; ++j) {
        EXPECT_EQ(visits[i * rows + j], 1) << i << "," << j;
        EXPECT_EQ(values[i * rows + j], engine.distance(i, j));
      }
    }
  }
}

TEST(ForEachTileTest, SerialVariantMatchesPooled) {
  const auto m = random_matrix(70, 9, 0.1, 801);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  fv::par::ThreadPool pool(3);
  std::vector<float> pooled(fv::condensed_size(70), -1.0f);
  std::vector<float> serial(fv::condensed_size(70), -1.0f);
  engine.condensed_distances(pooled, pool);
  engine.for_each_tile([&](const sm::DistanceTile& tile) {
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      for (std::size_t j = std::max(tile.col_begin, i + 1); j < tile.col_end;
           ++j) {
        serial[fv::condensed_index(i, j, 70)] = tile.at(i, j);
      }
    }
  });
  EXPECT_EQ(serial, pooled);
}

TEST(ForEachTileTest, MeanPairwiseDistanceMatchesBruteForce) {
  const auto m = random_matrix(70, 9, 0.1, 811);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  double total = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.rows(); ++j) {
      total += engine.distance(i, j);
    }
  }
  const double expected =
      total / static_cast<double>(fv::condensed_size(m.rows()));
  fv::par::ThreadPool pool(3);
  EXPECT_NEAR(engine.mean_pairwise_distance(pool), expected, 1e-9);
  EXPECT_NEAR(engine.mean_pairwise_distance(), expected, 1e-9);
  EXPECT_EQ(engine.mean_pairwise_distance(pool),
            engine.mean_pairwise_distance(pool));  // deterministic
}

// --- Float-accumulator dense kernel --------------------------------------

/// Flat dense random profiles (no missing cells — the float kernel serves
/// the dense fast path only).
std::vector<float> dense_profiles(std::size_t count, std::size_t length,
                                  std::uint64_t seed) {
  fv::Rng rng(seed);
  std::vector<float> flat(count * length);
  for (float& v : flat) {
    v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return flat;
}

TEST(FloatKernelTest, AutoEngagesAtAnyRowLength) {
  const auto probe = [](std::size_t length, sm::DenseKernel kernel) {
    const auto flat = dense_profiles(2, length, 1000 + length);
    return sm::SimilarityEngine::from_profiles(flat, 2, length,
                                               sm::Metric::kPearson,
                                               sm::Precompute::kAllPairs,
                                               kernel)
        .float_kernel_active();
  };
  // Auto: the compensated block flush (double drain every 256 elements)
  // holds the worst-case bound at (256/16) * 2^-24 regardless of stride,
  // so the old stride-256 fallback ceiling is gone.
  EXPECT_TRUE(probe(96, sm::DenseKernel::kAuto));
  EXPECT_TRUE(probe(256, sm::DenseKernel::kAuto));
  EXPECT_TRUE(probe(257, sm::DenseKernel::kAuto));
  EXPECT_TRUE(probe(10000, sm::DenseKernel::kAuto));
  // Forced kernels stay forced.
  EXPECT_FALSE(probe(96, sm::DenseKernel::kDouble));
  EXPECT_TRUE(probe(10000, sm::DenseKernel::kFloat));
  // Euclidean rows are unnormalized — the unit-norm bound does not apply,
  // so the float kernel never engages there.
  const auto flat = dense_profiles(2, 96, 77);
  EXPECT_FALSE(sm::SimilarityEngine::from_profiles(flat, 2, 96,
                                                   sm::Metric::kEuclidean)
                   .float_kernel_active());
}

TEST(FloatKernelTest, ErrorBoundAcrossRowLengths) {
  // The study behind the kAuto policy: forced-float vs the double
  // reference on dense random profiles across row lengths 96 -> 10k. With
  // the compensated block flush each float lane sums at most 256/16
  // products between double drains, so the worst-case bound is
  // (min(stride, 256) / 16) * 2^-24 at every length — measured error must
  // sit inside the 1e-6 contract everywhere (kAuto always engages now),
  // and inside the worst-case bound everywhere. Strides 512/1024/4096/10k
  // exercise 2/4/16/40 flush blocks.
  constexpr std::size_t kProfiles = 24;
  for (const std::size_t length :
       {96u, 160u, 256u, 512u, 1024u, 4096u, 10000u}) {
    const auto flat = dense_profiles(kProfiles, length, 2000 + length);
    const auto engine_f = sm::SimilarityEngine::from_profiles(
        flat, kProfiles, length, sm::Metric::kPearson,
        sm::Precompute::kAllPairs, sm::DenseKernel::kFloat);
    const auto engine_d = sm::SimilarityEngine::from_profiles(
        flat, kProfiles, length, sm::Metric::kPearson,
        sm::Precompute::kAllPairs, sm::DenseKernel::kDouble);
    ASSERT_TRUE(engine_f.float_kernel_active());
    ASSERT_FALSE(engine_d.float_kernel_active());
    double max_error = 0.0;
    for (std::size_t i = 0; i < kProfiles; ++i) {
      for (std::size_t j = i + 1; j < kProfiles; ++j) {
        max_error = std::max(max_error,
                             std::abs(engine_f.similarity(i, j) -
                                      engine_d.similarity(i, j)));
      }
    }
    const std::size_t stride = engine_f.stride();
    const double worst_case =
        static_cast<double>(std::min<std::size_t>(stride, 256) / 16) *
        std::ldexp(1.0, -24);
    EXPECT_LE(max_error, worst_case)
        << "length " << length << " measured " << max_error;
    EXPECT_LT(max_error, 1e-6)
        << "length " << length << " breaks the contract";
  }
}

TEST(FloatKernelTest, ForcedFloatStaysInsideScalarContractOnRealShapes) {
  // End-to-end: a typical compendium shape (96 conditions) under kAuto must
  // still match the scalar reference within the 1e-6 contract — the same
  // check sim_test runs, but explicitly pinned to the float kernel.
  const auto m = random_matrix(40, 96, 0.0, 3001);
  const auto engine = sm::SimilarityEngine::from_rows(m, sm::Metric::kPearson);
  ASSERT_TRUE(engine.float_kernel_active());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.rows(); ++j) {
      const double reference =
          fv::cluster::profile_distance(m.row(i), m.row(j),
                                        sm::Metric::kPearson);
      EXPECT_NEAR(engine.distance(i, j), reference, 1e-6);
    }
  }
}

// --- Batched tile kernel ---------------------------------------------------

/// Rows of every kind the batched tile kernel treats differently: dense,
/// masked (a few missing cells), an exact affine copy of the previous row
/// (correlation 1, so the clamp matters), degenerate (constant) and
/// all-missing — interleaved so 16-column groups and 64-row tiles mix them.
ex::ExpressionMatrix tile_kernel_matrix(std::size_t rows, std::size_t cols,
                                        std::uint64_t seed) {
  fv::Rng rng(seed);
  ex::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t kind = r % 7;
    if (kind == 6) continue;  // all missing
    for (std::size_t c = 0; c < cols; ++c) {
      float value = static_cast<float>(std::sin(0.37 * (c + 1.0) + 0.5 * r) +
                                       rng.normal(0.0, 0.5));
      if (kind == 2 && r > 0) value = 2.0f * m.at(r - 1, c) + 1.0f;
      if (kind == 5) value = 1.5f;
      const bool drop = (kind == 3 || kind == 4) &&
                        (c == r % cols || rng.uniform() < 0.15);
      if (!drop) m.set(r, c, value);
    }
  }
  return m;
}

/// Visits every tile of `engine` (pooled, then serially) and checks each
/// pair's tile value against distance(i, j) bit for bit. Returns the
/// pooled values as an n x n matrix (upper triangle filled).
std::vector<float> expect_tiles_equal_pairwise(
    const sm::SimilarityEngine& engine, fv::par::ThreadPool& pool) {
  const std::size_t n = engine.size();
  std::vector<float> pooled(n * n, -1.0f), serial(n * n, -2.0f);
  std::mutex mutex;
  const auto into = [&](std::vector<float>& out) {
    return [&out, &mutex, n](const sm::DistanceTile& tile) {
      const std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
        for (std::size_t j = std::max(tile.col_begin, i + 1);
             j < tile.col_end; ++j) {
          out[i * n + j] = tile.at(i, j);
        }
      }
    };
  };
  engine.for_each_tile(into(pooled), pool);
  engine.for_each_tile(into(serial));
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float reference = engine.distance(i, j);
      const bool same =
          std::memcmp(&pooled[i * n + j], &reference, sizeof(float)) == 0 &&
          std::memcmp(&serial[i * n + j], &reference, sizeof(float)) == 0;
      if (!same && mismatches++ == 0) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "(%zu,%zu) pooled %a serial %a distance %a", i, j,
                      pooled[i * n + j], serial[i * n + j], reference);
        first = line;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  return pooled;
}

/// (metric index, row length) — lengths pad to strides 16, 32, 96, 256,
/// 272 and 1024, either side of the float kernel's 256-element flush.
class TileKernelTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    // The pid keeps concurrent runs of the suite out of each other's store.
    dir_ = std::filesystem::temp_directory_path() /
           ("fv_tile_kernel_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_P(TileKernelTest, TilesEqualPairwiseDistanceBitwise) {
  const auto [metric_index, length] = GetParam();
  const auto metric = static_cast<sm::Metric>(metric_index);
  const bool correlation = metric != sm::Metric::kEuclidean;
  fv::par::ThreadPool pool(3);
  fv::store::ArtifactStore store(dir_.string());
  for (const std::size_t n : {1u, 17u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto m = tile_kernel_matrix(n, length, 9000 + n + length);
    const auto heap = sm::SimilarityEngine::from_rows(m, metric);
    expect_tiles_equal_pairwise(heap, pool);
    if (correlation) {
      // The forced-double dense kernel goes through dot_group_double.
      expect_tiles_equal_pairwise(
          sm::SimilarityEngine::from_rows(m, metric, sm::Precompute::kAllPairs,
                                          sm::DenseKernel::kDouble),
          pool);
    }
    const auto mapped = fv::store::open_or_build_engine_mapped(
        store, fv::store::matrix_key(m), [&]() { return m; }, metric);
    ASSERT_EQ(mapped.storage(), sm::EngineStorage::kBorrowedMapped);
    const auto values = expect_tiles_equal_pairwise(mapped, pool);

    // Masked Spearman re-ranks every pair on the scalar path (~0.1 ms a
    // pair at 1000 conditions); its tiles were checked above, so the
    // top-k sweep keeps to the shorter rows there.
    if (n < 2 || (metric == sm::Metric::kSpearman && length > 96)) continue;
    for (const std::size_t min_common : {0u, 6u}) {
      // Full-sort reference over the verified pairwise values.
      std::vector<std::vector<std::pair<float, std::uint32_t>>> rows(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          if (min_common > 0) {
            std::size_t common = 0;
            for (std::size_t c = 0; c < length; ++c) {
              common += heap.value_present(i, c) && heap.value_present(j, c);
            }
            if (common < min_common) continue;
          }
          const std::size_t a = std::min(i, j), b = std::max(i, j);
          rows[i].emplace_back(values[a * n + b],
                               static_cast<std::uint32_t>(j));
        }
        std::sort(rows[i].begin(), rows[i].end());
      }
      for (const std::size_t k : {std::size_t{1}, std::size_t{5}, n - 1}) {
        std::vector<sm::TopKStrategy> strategies{sm::TopKStrategy::kExact};
        if (correlation) strategies.push_back(sm::TopKStrategy::kPruned);
        for (const auto strategy : strategies) {
          const auto table =
              heap.top_k_neighbors(k, pool, min_common, strategy);
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t keep = std::min(table.k, rows[i].size());
            ASSERT_EQ(table.neighbor_count(i), keep)
                << "k=" << k << " min_common=" << min_common << " row " << i;
            for (std::size_t s = 0; s < keep; ++s) {
              ASSERT_EQ(table.neighbors(i)[s], rows[i][s].second)
                  << "k=" << k << " min_common=" << min_common << " row "
                  << i << " slot " << s;
              ASSERT_EQ(table.neighbor_distances(i)[s], rows[i][s].first);
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileKernelShapes, TileKernelTest,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(sm::Metric::kPearson),
                          static_cast<int>(sm::Metric::kUncenteredPearson),
                          static_cast<int>(sm::Metric::kSpearman),
                          static_cast<int>(sm::Metric::kEuclidean)),
        ::testing::Values(std::size_t{13}, std::size_t{32}, std::size_t{90},
                          std::size_t{256}, std::size_t{260},
                          std::size_t{1017})));

}  // namespace
