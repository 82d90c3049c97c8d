// Tests of the benchmark's own helpers (src/harness.hpp): the percentile
// support rule, span self-times, the seeded generator and the open-loop
// due-time accounting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "harness.hpp"

namespace fv::e2e {
namespace {

namespace fs = std::filesystem;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = 1; i <= n; ++i) out.push_back(static_cast<double>(i));
  return out;
}

TEST(Percentile, NearestRankOnKnownSamples) {
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(percentile(one_to(1), 0.99), 1.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  // Order of the input does not matter.
  EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
}

TEST(Percentile, SupportNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_FALSE(percentile_supported(0, 0.5));
}

TEST(Percentile, UnsupportedTailStepsDownTheLadder) {
  EXPECT_EQ(supported_quantile(5000, 0.99), 0.99);
  EXPECT_EQ(supported_quantile(400, 0.99), 0.95);  // 20 beyond p95
  EXPECT_EQ(supported_quantile(150, 0.99), 0.9);   // 15 beyond p90
  EXPECT_EQ(supported_quantile(150, 0.9), 0.9);
  EXPECT_EQ(supported_quantile(60, 0.99), 0.75);
  EXPECT_EQ(supported_quantile(5, 0.99), 0.5);     // nothing holds: median
  // Never steps up past what was asked for.
  EXPECT_EQ(supported_quantile(100000, 0.9), 0.9);
}

TEST(SelfTime, LeafIsItsDuration) {
  const std::vector<Span> spans = {{0, 100, -1, "root"}};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{100}));
}

TEST(SelfTime, DisjointChildrenSumToParent) {
  const std::vector<Span> spans = {{0, 100, -1, "root"},
                                   {10, 30, 0, "a"},
                                   {50, 90, 0, "b"},
                                   {55, 60, 2, "b.child"}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{40, 20, 35, 5}));
  std::int64_t total = 0;
  for (const std::int64_t s : self) total += s;
  EXPECT_EQ(total, 100);  // a tiling tree adds up to the root
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {{0, 100, -1, "root"},
                                   {10, 50, 0, "a"},
                                   {40, 70, 0, "b"},   // overlaps a by 10
                                   {60, 65, 0, "c"}};  // inside b
  EXPECT_EQ(self_times(spans)[0], 100 - 60);  // union [10,70)
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {{100, 200, -1, "root"},
                                   {50, 120, 0, "starts early"},
                                   {190, 400, 0, "ends late"},
                                   {300, 350, 0, "outside"}};
  EXPECT_EQ(self_times(spans)[0], 100 - 20 - 10);
}

TEST(Generator, SameSeedSameRequests) {
  const std::vector<std::string> genes = {"G1", "G2", "G3", "G4", "G5",
                                          "G6", "G7", "G8", "G9", "G10"};
  EXPECT_EQ(spell_queries(7, genes, 50), spell_queries(7, genes, 50));
  EXPECT_NE(spell_queries(7, genes, 50), spell_queries(8, genes, 50));
  for (const auto& query : spell_queries(7, genes, 50)) {
    EXPECT_GE(query.size(), 3u);
    EXPECT_LE(query.size(), 8u);
  }
  const auto bodies = [](std::uint64_t seed) {
    std::vector<std::string> out;
    for (const TopkParams& p : topk_stream(seed, 300)) out.push_back(topk_body(p));
    return out;
  };
  EXPECT_EQ(bodies(7), bodies(7));
  EXPECT_NE(bodies(7), bodies(8));
  EXPECT_EQ(poisson_schedule(7, 100, 1'000'000'000),
            poisson_schedule(7, 100, 1'000'000'000));
  EXPECT_NE(poisson_schedule(7, 100, 1'000'000'000),
            poisson_schedule(8, 100, 1'000'000'000));
}

TEST(Generator, TopkTriplesNeverRepeat) {
  std::map<std::string, int> seen;
  for (const TopkParams& p : topk_stream(3, 2944)) {
    const std::string triple = std::to_string(p.k) + "/" +
                               std::to_string(p.min_common) + "/" + p.strategy;
    EXPECT_EQ(++seen[triple], 1) << triple;
    EXPECT_GE(p.k, 5u);
    EXPECT_LE(p.k, 50u);
  }
  // Every block of four carries each strategy once.
  const std::vector<TopkParams> stream = topk_stream(3, 2944);
  for (std::size_t block = 0; block < stream.size(); block += 4) {
    std::set<std::string> strategies;
    for (std::size_t i = block; i < block + 4; ++i) {
      strategies.insert(stream[i].strategy);
    }
    EXPECT_EQ(strategies.size(), 4u) << "block at " << block;
  }
  // Past the triple space the stream stays cache-cold through `rows`.
  std::map<std::string, int> bodies;
  for (const TopkParams& p : topk_stream(3, 6000)) {
    EXPECT_EQ(++bodies[topk_body(p)], 1);
  }
}

std::string directory_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  std::string out;
  for (const auto& [name, bytes] : files) out += name + "\n" + bytes;
  return out;
}

TEST(Generator, SameSeedSameCompendiumBytes) {
  const fs::path root = fs::current_path() /
                        ("fv_e2e_helpers_" + std::to_string(::getpid()));
  write_compendium(5, (root / "a").string(), 300);
  write_compendium(5, (root / "b").string(), 300);
  write_compendium(6, (root / "c").string(), 300);
  const std::string a = directory_bytes((root / "a").string());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, directory_bytes((root / "b").string()));
  EXPECT_NE(a, directory_bytes((root / "c").string()));
  fs::remove_all(root);
}

TEST(OpenLoop, PoissonScheduleHasTheRate) {
  const auto due = poisson_schedule(11, 200.0, 20'000'000'000);
  EXPECT_NEAR(static_cast<double>(due.size()), 4000.0, 4 * 63.0);  // ±4σ
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), 20'000'000'000);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Sent on time: latency is the service time, nothing late.
  DueTimes t = due_times(1000, 1000, 1500);
  EXPECT_EQ(t.latency_ns, 500);
  EXPECT_EQ(t.late_ns, 0);
  // Every client was busy, the request went out 300 ns late: the wait is
  // the client's lateness AND part of the job's latency.
  t = due_times(1000, 1300, 1800);
  EXPECT_EQ(t.latency_ns, 800);
  EXPECT_EQ(t.late_ns, 300);
  // A sender that woke early is not credited negative lateness.
  t = due_times(1000, 990, 1400);
  EXPECT_EQ(t.late_ns, 0);
  EXPECT_EQ(t.latency_ns, 400);
}

}  // namespace
}  // namespace fv::e2e
