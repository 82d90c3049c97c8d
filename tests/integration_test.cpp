// Integration tests: full cross-module pipelines.
//
//  * disk round trip: synthesize -> cluster -> save compendium dir ->
//    reload -> identical session behavior
//  * the complete paper workflow: select -> SPELL -> GOLEM -> wall render,
//    checking cross-module consistency at each hop
//  * failure injection at the pipeline level (corrupt directories, partial
//    files)
#include <gtest/gtest.h>

#include <filesystem>

#include "cluster/hclust.hpp"
#include "core/adapters.hpp"
#include "core/app.hpp"
#include "expr/compendium_io.hpp"
#include "expr/gmt_io.hpp"
#include "expr/synth.hpp"
#include "go/obo_io.hpp"
#include "go/synth_ontology.hpp"
#include "stats/correlation.hpp"
#include "util/error.hpp"
#include "util/table_io.hpp"
#include "test_paths.hpp"

namespace {

namespace ex = fv::expr;
namespace co = fv::core;
namespace fs = std::filesystem;

class CompendiumDirTest : public ::testing::Test {
 protected:
  // Unique per test and process: ctest runs cases in parallel processes, so
  // a shared directory would race between one test's TearDown and another's
  // writes.
  std::string dir_ = fv::test::test_scratch_path("fv_compendium_it_");
  void TearDown() override { fs::remove_all(dir_); }
};

ex::Compendium small_compendium(std::uint64_t seed = 404) {
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(300);
  spec.stress_datasets = 1;
  spec.nutrient_datasets = 1;
  spec.knockout_datasets = 1;
  spec.noise_datasets = 0;
  spec.seed = seed;
  return ex::make_compendium(spec);
}

TEST_F(CompendiumDirTest, SaveLoadRoundTripPreservesSessionBehavior) {
  auto compendium = small_compendium();
  // Cluster the first dataset so the directory mixes CDT and PCL files.
  fv::par::ThreadPool pool(2);
  fv::cluster::cluster_genes(compendium.datasets[0],
                             fv::cluster::Metric::kPearson,
                             fv::cluster::Linkage::kAverage, pool);
  const auto original_order = compendium.datasets[0].display_order();

  ex::save_compendium_dir(compendium.datasets, dir_);
  EXPECT_TRUE(fs::exists(dir_ + "/compendium.manifest"));
  EXPECT_TRUE(fs::exists(dir_ + "/stress_1.cdt"));
  EXPECT_TRUE(fs::exists(dir_ + "/stress_1.gtr"));
  EXPECT_TRUE(fs::exists(dir_ + "/nutrient_1.pcl"));

  auto reloaded = ex::load_compendium_dir(dir_);
  ASSERT_EQ(reloaded.size(), compendium.datasets.size());
  EXPECT_EQ(reloaded[0].name(), "stress_1");
  ASSERT_TRUE(reloaded[0].gene_tree().has_value());

  // The reloaded clustered dataset must present the same display order of
  // gene names (rows may be permuted on disk; semantics must survive).
  const auto reloaded_order = reloaded[0].display_order();
  ASSERT_EQ(reloaded_order.size(), original_order.size());
  for (std::size_t i = 0; i < original_order.size(); ++i) {
    EXPECT_EQ(
        compendium.datasets[0].gene(original_order[i]).systematic_name,
        reloaded[0].gene(reloaded_order[i]).systematic_name);
  }

  // Sessions over the original and reloaded compendia agree on a selection
  // propagated across datasets.
  co::Session session_a(std::move(compendium.datasets));
  co::Session session_b(std::move(reloaded));
  session_a.select_region(0, 10, 25);
  session_b.select_region(0, 10, 25);
  ASSERT_EQ(session_a.selection().size(), session_b.selection().size());
  for (std::size_t i = 0; i < session_a.selection().size(); ++i) {
    EXPECT_EQ(session_a.merged().catalog().name(
                  session_a.selection().ordered()[i]),
              session_b.merged().catalog().name(
                  session_b.selection().ordered()[i]));
  }
}

TEST_F(CompendiumDirTest, MissingManifestThrows) {
  fs::create_directories(dir_);
  EXPECT_THROW(ex::load_compendium_dir(dir_), fv::IoError);
}

TEST_F(CompendiumDirTest, ManifestEntryWithoutFileThrows) {
  fs::create_directories(dir_);
  fv::write_text_file(dir_ + "/compendium.manifest", "ghost_dataset\n");
  EXPECT_THROW(ex::load_compendium_dir(dir_), fv::IoError);
}

TEST_F(CompendiumDirTest, DirectoryInPlaceOfDataFileThrowsIoError) {
  fs::create_directories(dir_ + "/ghost.pcl");
  fv::write_text_file(dir_ + "/compendium.manifest", "ghost\n");
  try {
    (void)ex::load_compendium_dir(dir_);
    FAIL() << "expected IoError";
  } catch (const fv::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(dir_ + "/ghost.pcl"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CompendiumDirTest, EmptyManifestThrows) {
  fs::create_directories(dir_);
  fv::write_text_file(dir_ + "/compendium.manifest", "# nothing here\n");
  EXPECT_THROW(ex::load_compendium_dir(dir_), fv::ParseError);
}

TEST_F(CompendiumDirTest, CorruptMemberFileThrows) {
  auto compendium = small_compendium();
  ex::save_compendium_dir(compendium.datasets, dir_);
  fv::write_text_file(dir_ + "/nutrient_1.pcl",
                      "ID\tNAME\tGWEIGHT\tc1\nYAL001C\tx\t1\tnot_a_number\n");
  EXPECT_THROW(ex::load_compendium_dir(dir_), fv::ParseError);
}

TEST_F(CompendiumDirTest, DatasetNameWithPathSeparatorRejected) {
  auto compendium = small_compendium();
  std::vector<ex::Dataset> bad;
  bad.emplace_back("../evil", compendium.datasets[0].genes(),
                   compendium.datasets[0].conditions(),
                   compendium.datasets[0].values());
  EXPECT_THROW(ex::save_compendium_dir(bad, dir_), fv::InvalidArgument);
}

TEST(FullPipelineTest, SelectSpellGolemWallStaysConsistent) {
  // The Figure-6 workflow end to end, with cross-module consistency checks.
  auto compendium = small_compendium(777);
  const auto genome_copy = compendium.genome;  // keep truth accessible
  const auto synth_go = fv::go::make_synth_ontology(genome_copy);

  // Query: a handful of ESR genes.
  std::vector<std::string> query;
  for (const std::size_t g : genome_copy.module_members("ESR_UP")) {
    query.push_back(genome_copy.gene(g).systematic_name);
    if (query.size() == 5) break;
  }

  co::Session session(std::move(compendium.datasets));
  const auto integration = co::apply_spell_search(session, query, 15);

  // 1. Panes were reordered to match SPELL's dataset ranking.
  ASSERT_EQ(session.pane_order().size(),
            integration.result.dataset_ranking.size());
  for (std::size_t i = 0; i < session.pane_order().size(); ++i) {
    EXPECT_EQ(session.pane_order()[i],
              integration.result.dataset_ranking[i].dataset_index);
  }

  // 2. The selection holds the query plus top hits, resolvable by name.
  EXPECT_GE(session.selection().size(), query.size());
  for (const std::string& name : query) {
    const auto id = session.merged().catalog().find(name);
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(session.selection().contains(*id));
  }

  // 3. GOLEM on the selection recovers the planted ESR term.
  const auto enrichment =
      co::run_golem_on_selection(session, synth_go.propagated);
  ASSERT_FALSE(enrichment.terms.empty());
  EXPECT_EQ(enrichment.terms[0].term, synth_go.module_terms.at("ESR_UP"));
  EXPECT_LT(enrichment.terms[0].q_benjamini_hochberg, 1e-4);

  // 4. Wall render of the final state matches the desktop render exactly.
  co::ForestViewApp app(&session);
  const fv::wall::WallSpec spec{2, 2, 256, 192};
  co::FrameConfig config;
  config.width = static_cast<long>(spec.total_width());
  config.height = static_cast<long>(spec.total_height());
  const auto desktop = app.render_desktop(config);
  const auto wall = app.render_wall(spec);
  EXPECT_EQ(wall.frame, desktop);

  // 5. Export/import round trip of the final selection.
  const auto gmt_text = ex::format_gmt({session.export_selection("hits")});
  const auto sets = ex::parse_gmt(gmt_text);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].genes.size(), session.selection().size());
}

TEST(FullPipelineTest, Section4StudyFindsStressSignal) {
  // Condensed §4 pipeline as an always-on regression: the knockout-derived
  // cluster must correlate strongly inside the stress dataset.
  const auto genome = ex::make_genome(ex::GenomeSpec::yeast_like(500), 55);
  ex::StressDatasetSpec stress_spec;
  stress_spec.missing_rate = 0.0;
  ex::KnockoutDatasetSpec ko_spec;
  ko_spec.knockouts = 80;
  ko_spec.slow_growth_fraction = 0.25;
  std::vector<ex::Dataset> datasets;
  datasets.push_back(ex::make_stress_dataset(genome, stress_spec, 1));
  datasets.push_back(ex::make_knockout_dataset(genome, ko_spec, 2).dataset);

  fv::par::ThreadPool pool(2);
  fv::cluster::cluster_genes(datasets[1], fv::cluster::Metric::kPearson,
                             fv::cluster::Linkage::kAverage, pool);
  const auto clusters =
      fv::cluster::cut_tree_at_similarity(*datasets[1].gene_tree(), 0.35);
  std::size_t best = 0;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    if (clusters[i].size() > clusters[best].size()) best = i;
  }
  ASSERT_GE(clusters[best].size(), 10u);

  co::Session session(std::move(datasets));
  std::vector<co::GeneId> picked;
  for (const std::size_t row : clusters[best]) {
    picked.push_back(session.merged().catalog().id_of_row(1, row));
  }
  session.select_from_analysis(picked, "clustering");

  // Cross-dataset correlation of the selected cluster inside stress data.
  std::vector<std::size_t> rows;
  for (const auto gene : session.selection().ordered()) {
    if (const auto row = session.merged().catalog().row_in(0, gene);
        row.has_value()) {
      rows.push_back(*row);
    }
  }
  ASSERT_GE(rows.size(), 10u);
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < rows.size() && i < 30; ++i) {
    for (std::size_t j = i + 1; j < rows.size() && j < 30; ++j) {
      total += fv::stats::pearson(session.dataset(0).profile(rows[i]),
                                  session.dataset(0).profile(rows[j]));
      ++pairs;
    }
  }
  EXPECT_GT(total / static_cast<double>(pairs), 0.4)
      << "the knockout cluster must carry the stress signature";
}

TEST(FullPipelineTest, ObTheOboPathWorksAgainstGolem) {
  // Real-format path: serialize the synthetic ontology to OBO, reparse it,
  // and verify enrichment still works against the reparsed DAG.
  const auto genome = ex::make_genome(ex::GenomeSpec::yeast_like(300), 66);
  const auto synth_go = fv::go::make_synth_ontology(genome);
  const std::string obo_text = fv::go::format_obo(*synth_go.ontology);
  const auto reparsed =
      std::make_shared<fv::go::Ontology>(fv::go::parse_obo(obo_text));
  ASSERT_EQ(reparsed->term_count(), synth_go.ontology->term_count());

  // Rebuild annotations against the reparsed ontology (term indices match
  // because format_obo preserves order).
  fv::go::AnnotationTable direct(reparsed);
  for (const std::string& gene : synth_go.direct.genes()) {
    for (const auto term : synth_go.direct.terms_of(gene)) {
      direct.annotate(gene, term);
    }
  }
  const auto propagated = direct.propagated();

  std::vector<std::string> query;
  for (const std::size_t g : genome.module_members("RP")) {
    query.push_back(genome.gene(g).systematic_name);
  }
  const auto result = fv::go::enrich(propagated, query);
  ASSERT_FALSE(result.terms.empty());
  EXPECT_EQ(result.terms[0].term, synth_go.module_terms.at("RP"));
}

}  // namespace
