// Experiment C1 (paper §1 claim): "well over a quarter billion microarray
// measurements have been generated … existing software focuses on the scale
// of individual datasets, leaving these methods unable to handle the sheer
// volume of data."
//
// What this bench reports: merged-interface behavior as the compendium
// grows toward that scale — generation, catalog build, full-sweep scan and
// cross-dataset gene query at 10^6 … 10^8 measurements (the top size is
// capped by bench runtime, with measured bytes/measurement making the
// quarter-billion extrapolation concrete).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cluster/distance.hpp"
#include "core/merged.hpp"
#include "expr/compendium_io.hpp"
#include "expr/synth.hpp"
#include "par/thread_pool.hpp"
#include "stats/descriptive.hpp"

namespace {

namespace ex = fv::expr;
namespace co = fv::core;
namespace cl = fv::cluster;

/// Builds a compendium with approximately `measurements` total cells: fixed
/// 2000-gene genome, 96-condition datasets, count derived from the target.
ex::Compendium build_compendium(std::size_t measurements) {
  constexpr std::size_t kGenes = 2000;
  constexpr std::size_t kConditions = 96;  // 4 stresses x 24 time points
  const std::size_t per_dataset = kGenes * kConditions;
  const std::size_t datasets =
      std::max<std::size_t>(1, measurements / per_dataset);
  const std::uint64_t seed = 7000 + datasets;
  ex::Compendium compendium(
      ex::make_genome(ex::GenomeSpec::yeast_like(kGenes), seed));
  for (std::size_t i = 0; i < datasets; ++i) {
    ex::StressDatasetSpec ds;
    ds.name = "stress_" + std::to_string(i);
    ds.time_points = 24;
    compendium.datasets.push_back(
        ex::make_stress_dataset(compendium.genome, ds, seed + i + 1));
  }
  return compendium;
}

/// Cached copy for the access benchmarks.
const ex::Compendium& compendium_for(std::size_t measurements) {
  static std::map<std::size_t, ex::Compendium> cache;
  const auto it = cache.find(measurements);
  if (it != cache.end()) return it->second;
  return cache.emplace(measurements, build_compendium(measurements))
      .first->second;
}

void BM_Generate(benchmark::State& state) {
  // Measures the full synthesis path (the "load" equivalent: parsing a PCL
  // of this size costs the same order).
  const auto target = static_cast<std::size_t>(state.range(0));
  std::size_t cells = 0;
  for (auto _ : state) {
    const ex::Compendium compendium = build_compendium(target);
    cells = 0;
    for (const auto& d : compendium.datasets) cells += d.values().size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["measurements"] = static_cast<double>(cells);
}
BENCHMARK(BM_Generate)->Arg(1 << 20)->Arg(1 << 23)->Arg(1 << 25)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// --- Ingest ------------------------------------------------------------------
// Bring-up of a served compendium is nearly all PCL parsing. This is the
// e2ebench shape: yeast_like(3000), five datasets written as PCL files plus
// manifest (5.8 MB, 572k cells), loaded the way fv_serve loads it.

/// The compendium directory, written once per process and removed at exit.
struct IngestDir {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("fv_bench_ingest." + std::to_string(::getpid())))
                         .string();
  std::uintmax_t bytes = 0;

  IngestDir() {
    ex::CompendiumSpec spec;
    spec.genome = ex::GenomeSpec::yeast_like(3000);
    spec.seed = 7;
    ex::save_compendium_dir(ex::make_compendium(spec).datasets, path);
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      bytes += entry.file_size();
    }
  }
  ~IngestDir() { std::filesystem::remove_all(path); }
};

void BM_LoadCompendiumDir(benchmark::State& state) {
  static const IngestDir dir;
  std::size_t cells = 0;
  for (auto _ : state) {
    const std::vector<ex::Dataset> datasets = ex::load_compendium_dir(dir.path);
    cells = 0;
    for (const auto& d : datasets) cells += d.values().size();
    benchmark::DoNotOptimize(cells);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dir.bytes));
  state.counters["cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_LoadCompendiumDir)->Unit(benchmark::kMillisecond);

void BM_FullSweep(benchmark::State& state) {
  const auto target = static_cast<std::size_t>(state.range(0));
  const auto& compendium = compendium_for(target);
  co::MergedDatasetInterface merged(&compendium.datasets);
  for (auto _ : state) {
    double checksum = 0.0;
    std::size_t present = 0;
    for (std::size_t d = 0; d < merged.dataset_count(); ++d) {
      for (const float v : merged.dataset(d).values().data()) {
        if (!fv::stats::is_missing(v)) {
          checksum += v;
          ++present;
        }
      }
    }
    benchmark::DoNotOptimize(checksum);
    benchmark::DoNotOptimize(present);
  }
  state.counters["Mvals/s"] = benchmark::Counter(
      static_cast<double>(merged.total_measurements()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FullSweep)->Arg(1 << 20)->Arg(1 << 23)->Arg(1 << 25)
    ->Unit(benchmark::kMillisecond);

void BM_GeneQueryAtScale(benchmark::State& state) {
  // Interactive-path latency at scale: resolve one gene everywhere and
  // compute its per-dataset mean (what hovering a row costs).
  const auto target = static_cast<std::size_t>(state.range(0));
  const auto& compendium = compendium_for(target);
  co::MergedDatasetInterface merged(&compendium.datasets);
  co::GeneId gene = 0;
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t d = 0; d < merged.dataset_count(); ++d) {
      if (const auto profile = merged.profile(d, gene);
          profile.has_value()) {
        total += fv::stats::mean(*profile);
      }
    }
    gene = (gene + 101) % static_cast<co::GeneId>(
                               merged.catalog().gene_count());
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_GeneQueryAtScale)->Arg(1 << 20)->Arg(1 << 23)->Arg(1 << 25);

// --- Pairwise phase -------------------------------------------------------
// Clustering, SPELL weighting and the merged sweep all bottom out in
// all-pairs distances over one dataset's 2000 x 96 rows. These benches pin
// a single-thread pool so they measure the kernel, not the core count.

/// 2000 genes x 96 conditions. `missing` picks between the realistic
/// profile (~2% missing cells, so most pairs take the masked path) and a
/// dense one (pure fast path).
const ex::ExpressionMatrix& pairwise_matrix(bool missing) {
  static std::map<bool, ex::ExpressionMatrix> cache;
  const auto it = cache.find(missing);
  if (it != cache.end()) return it->second;
  const auto genome = ex::make_genome(ex::GenomeSpec::yeast_like(2000), 7777);
  ex::StressDatasetSpec spec;
  spec.time_points = 24;
  if (!missing) spec.missing_rate = 0.0;
  return cache
      .emplace(missing,
               ex::make_stress_dataset(genome, spec, 7778).values())
      .first->second;
}

void add_pair_rate(benchmark::State& state, const ex::ExpressionMatrix& m) {
  const double pairs =
      0.5 * static_cast<double>(m.rows()) * static_cast<double>(m.rows() - 1);
  state.counters["Mpairs/s"] = benchmark::Counter(
      pairs * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PairwiseDistances(benchmark::State& state) {
  const auto& m = pairwise_matrix(state.range(1) != 0);
  const auto metric = static_cast<cl::Metric>(state.range(0));
  fv::par::ThreadPool pool(1);
  for (auto _ : state) {
    const auto d = cl::row_distances(m, metric, pool);
    benchmark::DoNotOptimize(d.condensed().data());
  }
  add_pair_rate(state, m);
}
BENCHMARK(BM_PairwiseDistances)
    ->ArgNames({"metric", "missing"})
    ->Args({static_cast<int>(cl::Metric::kPearson), 0})
    ->Args({static_cast<int>(cl::Metric::kPearson), 1})
    ->Args({static_cast<int>(cl::Metric::kEuclidean), 0})
    ->Args({static_cast<int>(cl::Metric::kEuclidean), 1})
    ->Args({static_cast<int>(cl::Metric::kSpearman), 0})
    ->UseRealTime()  // the work runs on pool threads, not the timing thread
    ->Unit(benchmark::kMillisecond);

void BM_PairwiseDistancesThreads(benchmark::State& state) {
  // Thread scaling of the tile schedule (balanced pair blocks, dynamic
  // pull); on a many-core host this should be near-linear.
  const auto& m = pairwise_matrix(true);
  fv::par::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto d = cl::row_distances(m, cl::Metric::kPearson, pool);
    benchmark::DoNotOptimize(d.condensed().data());
  }
  add_pair_rate(state, m);
}
BENCHMARK(BM_PairwiseDistancesThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_PairwiseDistancesScalarRef(benchmark::State& state) {
  // The seed's kernel: per-pair scalar profile_distance with its
  // per-element missing-value branch. Kept as the speedup reference for
  // the blocked engine (same output, same missing-value semantics).
  const auto& m = pairwise_matrix(state.range(0) != 0);
  for (auto _ : state) {
    // The seed materialized the full dense n x n matrix; keep that here so
    // the reference measures exactly the seed's work (both triangle writes
    // included).
    std::vector<float> dense(m.rows() * m.rows(), 0.0f);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const auto row_i = m.row(i);
      for (std::size_t j = i + 1; j < m.rows(); ++j) {
        const auto dist = static_cast<float>(
            cl::profile_distance(row_i, m.row(j), cl::Metric::kPearson));
        dense[i * m.rows() + j] = dist;
        dense[j * m.rows() + i] = dist;
      }
    }
    benchmark::DoNotOptimize(dense.data());
  }
  add_pair_rate(state, m);
}
BENCHMARK(BM_PairwiseDistancesScalarRef)
    ->ArgNames({"missing"})->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\n[C1 extrapolation] storage is 4 bytes/measurement (float, NaN = "
      "missing): the paper's quarter-billion measurements need ~1.0 GB — "
      "feasible in one address space with this design; per-dataset tools "
      "page through files instead.\n");
  return 0;
}
