#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "expr/compendium_io.hpp"
#include "expr/synth.hpp"
#include "serve/json.hpp"

namespace fv::e2e {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kTailSupport;
}

double supported_quantile(std::size_t n, double wanted) {
  static constexpr double kLadder[] = {0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double q : kLadder) {
    if (q <= wanted + 1e-12 && percentile_supported(n, q)) return q;
  }
  return 0.5;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t begin = std::max(span.begin_ns, parent.begin_ns);
    const std::int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0, run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (spans[i].end_ns - spans[i].begin_ns) - covered;
  }
  return self;
}

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SeededRng::between(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double SeededRng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SeededRng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.next();
  return rng.next();
}

std::vector<std::string> write_compendium(std::uint64_t seed,
                                          const std::string& directory,
                                          std::size_t genes) {
  expr::CompendiumSpec spec;
  spec.genome = expr::GenomeSpec::yeast_like(genes);
  spec.seed = derive_seed(seed, 1);
  const std::vector<expr::Dataset> datasets =
      expr::make_compendium(spec).datasets;
  expr::save_compendium_dir(datasets, directory);
  std::vector<std::string> names;
  for (const expr::GeneInfo& gene : datasets[0].genes()) {
    names.push_back(gene.systematic_name);
  }
  return names;
}

std::vector<TopkParams> topk_stream(std::uint64_t seed, std::size_t count) {
  static const char* const kStrategies[] = {"auto", "exact", "pruned",
                                            "approx"};
  constexpr std::size_t kPairs = 46 * 16;  // k 5–50 × min_common 0–15
  SeededRng rng(derive_seed(seed, 2));
  const auto shuffle = [&rng](auto& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.between(0, i - 1)]);
    }
  };
  // Each strategy walks its own shuffle of the (k, min_common) pairs, and
  // every block of four carries each strategy once: a window of any length
  // then holds the same strategy mix on every seed, so the seed moves
  // which jobs run but not how expensive the mix is.
  std::vector<std::vector<std::size_t>> pairs(std::size(kStrategies));
  for (auto& order : pairs) {
    for (std::size_t i = 0; i < kPairs; ++i) order.push_back(i);
    shuffle(order);
  }
  std::vector<TopkParams> triples;
  for (std::size_t block = 0; block < kPairs; ++block) {
    std::vector<std::size_t> strategies{0, 1, 2, 3};
    shuffle(strategies);
    for (const std::size_t s : strategies) {
      const std::size_t pair = pairs[s][block];
      triples.push_back({5 + pair / 16, pair % 16, kStrategies[s], 0});
    }
  }
  std::vector<TopkParams> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TopkParams params = triples[i % triples.size()];
    params.rows = 8 + i / triples.size();
    out.push_back(params);
  }
  return out;
}

std::vector<std::vector<std::string>> spell_queries(
    std::uint64_t seed, const std::vector<std::string>& genes,
    std::size_t count) {
  SeededRng rng(derive_seed(seed, 3));
  std::vector<std::vector<std::string>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t size = rng.between(3, 8);
    std::vector<std::string> query;
    while (query.size() < size) {
      const std::string& gene = genes[rng.between(0, genes.size() - 1)];
      if (std::find(query.begin(), query.end(), gene) == query.end()) {
        query.push_back(gene);
      }
    }
    out.push_back(std::move(query));
  }
  return out;
}

std::string topk_body(const TopkParams& params) {
  serve::JsonValue body = serve::JsonValue::object();
  body["type"] = "topk";
  body["k"] = params.k;
  body["min_common"] = params.min_common;
  body["strategy"] = params.strategy;
  if (params.rows > 0) body["rows"] = params.rows;
  return body.dump();
}

std::string spell_body(const std::vector<std::string>& query) {
  serve::JsonValue body = serve::JsonValue::object();
  body["type"] = "spell";
  serve::JsonValue genes = serve::JsonValue::array();
  for (const std::string& gene : query) genes.push(gene);
  body["query"] = std::move(genes);
  return body.dump();
}

std::string cluster_body(const std::string& linkage) {
  serve::JsonValue body = serve::JsonValue::object();
  body["type"] = "cluster";
  body["linkage"] = linkage;
  return body.dump();
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           std::int64_t duration_ns) {
  SeededRng rng(derive_seed(seed, 4));
  std::vector<std::int64_t> due;
  double t_s = 0.0;
  while (true) {
    // Exponential gap; 1 − unit() is in (0, 1], so the log is finite.
    t_s += -std::log(1.0 - rng.unit()) / rate_per_s;
    const auto t_ns = static_cast<std::int64_t>(t_s * 1e9);
    if (t_ns >= duration_ns) break;
    due.push_back(t_ns);
  }
  return due;
}

DueTimes due_times(std::int64_t due_ns, std::int64_t start_ns,
                   std::int64_t end_ns) {
  return {end_ns - due_ns, std::max<std::int64_t>(0, start_ns - due_ns)};
}

}  // namespace fv::e2e
