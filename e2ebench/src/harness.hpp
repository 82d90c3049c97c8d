// The end-to-end benchmark's pure helpers: percentiles with a support
// rule, span self-times, the seeded input generator and the open-loop
// arrival schedule. Nothing here touches a socket or the server, so every
// helper is unit-tested in tests/helpers_test.cpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fv::e2e {

/// Monotonic nanoseconds; every timestamp the benchmark records uses it.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- percentiles -------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the tail rests on one or two samples and
/// no two runs agree on it.
inline constexpr std::size_t kTailSupport = 10;

/// Nearest-rank position (1-based) of quantile `q` in `n` sorted samples.
std::size_t nearest_rank(std::size_t n, double q);

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double q);

/// True when `n` samples hold at least kTailSupport beyond quantile `q`.
bool percentile_supported(std::size_t n, double q);

/// The quantile actually reported for a wanted tail: `wanted` when `n`
/// supports it, else the next one down the ladder 0.99 → 0.95 → 0.9 →
/// 0.75 → 0.5 that it supports (0.5 when none is).
double supported_quantile(std::size_t n, double wanted);

/// Nearest-rank percentile of `samples` (copied and sorted). 0 when empty.
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

// ---- spans -------------------------------------------------------------

/// One timed interval of a trace. `parent` indexes the enclosing span in
/// the same vector (-1 for a root); children may overlap each other and
/// may stick out of their parent (replayed work placed at the end of the
/// wait it explains, say).
struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::string name;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span. Overlapping
/// children are counted once, so self times never go negative and a tree
/// whose children tile their parents sums exactly to the root duration.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// ---- seeded inputs -----------------------------------------------------

/// splitmix64: the benchmark's one generator. Every input — compendium
/// seed, queries, top-k parameters, arrival gaps — derives from the
/// command-line seed through it.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Genes of the generated compendium (the yeast-like module genome).
inline constexpr std::size_t kGenes = 3000;

/// Writes the compendium of `seed` — five yeast-like datasets over one
/// genome — as PCL files plus manifest into `directory` (what
/// `fv_serve --datasets` reads). Returns the systematic gene names of the
/// first dataset, the one the server's engine covers.
std::vector<std::string> write_compendium(std::uint64_t seed,
                                          const std::string& directory,
                                          std::size_t genes = kGenes);

/// One top-k job's parameters.
struct TopkParams {
  std::size_t k = 10;
  std::size_t min_common = 0;
  std::string strategy = "auto";
  std::size_t rows = 8;
};

/// `count` top-k parameter sets whose (k, min_common, strategy) triples
/// never repeat: k 5–50, min_common 0–15, all four strategies, seeded
/// order, each run of four consecutive sets holding every strategy once.
/// Past the 2944 distinct triples the stream starts over with a larger
/// `rows`, so every request still misses the result cache.
std::vector<TopkParams> topk_stream(std::uint64_t seed, std::size_t count);

/// `count` SPELL queries of 3–8 distinct genes drawn from `genes`.
std::vector<std::vector<std::string>> spell_queries(
    std::uint64_t seed, const std::vector<std::string>& genes,
    std::size_t count);

/// Request bodies, spelled as a client would send them.
std::string topk_body(const TopkParams& params);
std::string spell_body(const std::vector<std::string>& query);
std::string cluster_body(const std::string& linkage);

// ---- open loop ---------------------------------------------------------

/// Poisson arrivals at `rate_per_s` over [0, duration_ns): due offsets
/// from the start of the timed window, ascending.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           std::int64_t duration_ns);

/// Open-loop accounting of one job. Latency runs from the job's due time,
/// not from when a client got round to sending it, so a sender that falls
/// behind shows up as latency instead of silently thinning the load.
struct DueTimes {
  std::int64_t latency_ns = 0;  ///< end − due
  std::int64_t late_ns = 0;     ///< max(0, start − due)
};
DueTimes due_times(std::int64_t due_ns, std::int64_t start_ns,
                   std::int64_t end_ns);

}  // namespace fv::e2e
