// Ingest equivalence for the PCL/CDT row scanner.
//
// The seed's line-vector/split parsers are kept verbatim below as the
// reference. The scanner must accept exactly what they accept, with
// memcmp-equal matrices, and reject exactly what they reject, with the same
// ParseError text and line. The decimal fast path is checked bit for bit
// against std::from_chars.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "expr/cdt_io.hpp"
#include "expr/pcl_io.hpp"
#include "expr/synth.hpp"
#include "expr/table_scan.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace {

namespace ex = fv::expr;
namespace str = fv::str;
using ex::CdtBundle;
using ex::Dataset;
using ex::ExpressionMatrix;
using ex::GeneInfo;
using ex::HierTree;
using fv::ParseError;

// ---------------------------------------------------------------------------
// The seed's parsers, verbatim apart from the namespace.
namespace seed_reference {

GeneInfo parse_name_cell(std::string_view id, std::string_view name_cell) {
  GeneInfo info;
  info.systematic_name = std::string(fv::str::trim(id));
  const std::size_t bar = name_cell.find('|');
  if (bar == std::string_view::npos) {
    info.common_name = std::string(fv::str::trim(name_cell));
  } else {
    info.common_name = std::string(fv::str::trim(name_cell.substr(0, bar)));
    info.description = std::string(fv::str::trim(name_cell.substr(bar + 1)));
  }
  return info;
}

constexpr std::size_t kMetaColumns = 3;  // ID, NAME, GWEIGHT

Dataset parse_pcl(const std::string& content, const std::string& name) {
  std::vector<std::string> lines;
  {
    std::istringstream stream(content);
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
  }
  if (lines.empty()) throw ParseError("empty PCL file");

  const auto header = str::split(lines[0], '\t');
  if (header.size() < kMetaColumns) {
    throw ParseError("PCL header needs at least ID, NAME, GWEIGHT columns", 1);
  }
  std::vector<std::string> conditions;
  for (std::size_t c = kMetaColumns; c < header.size(); ++c) {
    conditions.emplace_back(str::trim(header[c]));
  }
  const std::size_t cols = conditions.size();

  std::size_t first_data_line = 1;
  if (lines.size() > 1) {
    const auto second = str::split(lines[1], '\t');
    if (!second.empty() && str::iequals(str::trim(second[0]), "EWEIGHT")) {
      first_data_line = 2;  // weights are accepted and ignored
    }
  }

  std::vector<GeneInfo> genes;
  std::vector<std::vector<float>> rows;
  for (std::size_t ln = first_data_line; ln < lines.size(); ++ln) {
    if (str::trim(lines[ln]).empty()) continue;
    const auto fields = str::split(lines[ln], '\t');
    if (fields.size() < kMetaColumns) {
      throw ParseError("data row has fewer than 3 columns", ln + 1);
    }
    if (fields.size() > kMetaColumns + cols) {
      throw ParseError("data row has more value cells than conditions",
                       ln + 1);
    }
    genes.push_back(parse_name_cell(fields[0], fields[1]));
    std::vector<float> row(cols, fv::stats::missing_value());
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t field = kMetaColumns + c;
      if (field >= fields.size()) break;  // short row: trailing missing cells
      const std::string_view cell = str::trim(fields[field]);
      if (cell.empty()) continue;
      const auto value = str::parse_double(cell);
      if (!value.has_value()) {
        throw ParseError("unparseable expression value '" +
                             std::string(cell) + "'",
                         ln + 1);
      }
      row[c] = static_cast<float>(*value);
    }
    rows.push_back(std::move(row));
  }

  ExpressionMatrix matrix(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) matrix.set(r, c, rows[r][c]);
  }
  return Dataset(name, std::move(genes), std::move(conditions),
                 std::move(matrix));
}

std::string array_leaf_name(std::size_t col) {
  return "ARRY" + std::to_string(col) + "X";
}

HierTree parse_tree(const std::string& text, std::size_t leaf_count,
                    const std::unordered_map<std::string, std::size_t>&
                        leaf_ids) {
  HierTree tree(leaf_count);
  std::unordered_map<std::string, int> node_ids;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (fv::str::trim(line).empty()) continue;
    const auto fields = fv::str::split(line, '\t');
    if (fields.size() < 4) {
      throw ParseError("tree row needs NODE, two children, similarity",
                       line_no);
    }
    const auto resolve = [&](std::string_view token) -> int {
      const std::string key(fv::str::trim(token));
      if (const auto it = leaf_ids.find(key); it != leaf_ids.end()) {
        return static_cast<int>(it->second);
      }
      if (const auto it = node_ids.find(key); it != node_ids.end()) {
        return it->second;
      }
      throw ParseError("unknown tree child '" + key + "'", line_no);
    };
    const int left = resolve(fields[1]);
    const int right = resolve(fields[2]);
    const auto similarity = fv::str::parse_double(fields[3]);
    if (!similarity.has_value()) {
      throw ParseError("unparseable similarity", line_no);
    }
    const int id = tree.add_node(left, right, *similarity);
    node_ids.emplace(std::string(fv::str::trim(fields[0])), id);
  }
  if (!tree.is_complete()) {
    throw ParseError("tree file does not describe a complete dendrogram");
  }
  return tree;
}

Dataset parse_cdt(const CdtBundle& bundle, const std::string& name) {
  std::vector<std::string> lines;
  {
    std::istringstream stream(bundle.cdt);
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
  }
  if (lines.empty()) throw ParseError("empty CDT file");

  const auto header = str::split(lines[0], '\t');
  if (header.empty()) throw ParseError("missing CDT header", 1);
  const bool has_gid = str::iequals(str::trim(header[0]), "GID");
  const std::size_t meta_cols = has_gid ? 4 : 3;
  if (header.size() < meta_cols) {
    throw ParseError("CDT header too short", 1);
  }
  std::vector<std::string> conditions;
  for (std::size_t c = meta_cols; c < header.size(); ++c) {
    conditions.emplace_back(str::trim(header[c]));
  }
  const std::size_t cols = conditions.size();

  // Optional AID row then optional EWEIGHT row.
  std::size_t next_line = 1;
  std::vector<std::string> array_leaf_tokens;
  if (next_line < lines.size()) {
    const auto fields = str::split(lines[next_line], '\t');
    if (!fields.empty() && str::iequals(str::trim(fields[0]), "AID")) {
      for (std::size_t c = meta_cols; c < fields.size(); ++c) {
        array_leaf_tokens.emplace_back(str::trim(fields[c]));
      }
      if (array_leaf_tokens.size() != cols) {
        throw ParseError("AID row width disagrees with header",
                         next_line + 1);
      }
      ++next_line;
    }
  }
  if (next_line < lines.size()) {
    const auto fields = str::split(lines[next_line], '\t');
    if (!fields.empty() && str::iequals(str::trim(fields[0]), "EWEIGHT")) {
      ++next_line;
    }
  }

  std::vector<GeneInfo> genes;
  std::vector<std::vector<float>> rows;
  std::unordered_map<std::string, std::size_t> gene_leaf_ids;
  for (std::size_t ln = next_line; ln < lines.size(); ++ln) {
    if (str::trim(lines[ln]).empty()) continue;
    const auto fields = str::split(lines[ln], '\t');
    if (fields.size() < meta_cols) {
      throw ParseError("CDT data row too short", ln + 1);
    }
    if (fields.size() > meta_cols + cols) {
      throw ParseError("CDT data row too long", ln + 1);
    }
    const std::size_t row_index = rows.size();
    if (has_gid) {
      gene_leaf_ids.emplace(std::string(str::trim(fields[0])), row_index);
    }
    genes.push_back(
        parse_name_cell(fields[meta_cols - 3], fields[meta_cols - 2]));
    std::vector<float> row(cols, fv::stats::missing_value());
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t field = meta_cols + c;
      if (field >= fields.size()) break;
      const std::string_view cell = str::trim(fields[field]);
      if (cell.empty()) continue;
      const auto value = str::parse_double(cell);
      if (!value.has_value()) {
        throw ParseError("unparseable expression value", ln + 1);
      }
      row[c] = static_cast<float>(*value);
    }
    rows.push_back(std::move(row));
  }

  ExpressionMatrix matrix(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) matrix.set(r, c, rows[r][c]);
  }
  Dataset dataset(name, std::move(genes), std::move(conditions),
                  std::move(matrix));

  if (!bundle.gtr.empty()) {
    if (!has_gid) {
      throw ParseError("GTR supplied but CDT has no GID column");
    }
    dataset.attach_gene_tree(
        parse_tree(bundle.gtr, dataset.gene_count(), gene_leaf_ids));
  }
  if (!bundle.atr.empty()) {
    std::unordered_map<std::string, std::size_t> array_leaf_ids;
    if (!array_leaf_tokens.empty()) {
      for (std::size_t c = 0; c < array_leaf_tokens.size(); ++c) {
        array_leaf_ids.emplace(array_leaf_tokens[c], c);
      }
    } else {
      for (std::size_t c = 0; c < dataset.condition_count(); ++c) {
        array_leaf_ids.emplace(array_leaf_name(c), c);
      }
    }
    dataset.attach_array_tree(
        parse_tree(bundle.atr, dataset.condition_count(), array_leaf_ids));
  }
  return dataset;
}

}  // namespace seed_reference

// ---------------------------------------------------------------------------
// Comparison helpers.

void expect_same_tree(const std::optional<HierTree>& a,
                      const std::optional<HierTree>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) return;
  ASSERT_EQ(a->leaf_count(), b->leaf_count());
  ASSERT_EQ(a->node_count(), b->node_count());
  for (std::size_t id = a->leaf_count(); id < a->node_count(); ++id) {
    const auto& na = a->node(static_cast<int>(id));
    const auto& nb = b->node(static_cast<int>(id));
    EXPECT_EQ(na.left, nb.left);
    EXPECT_EQ(na.right, nb.right);
    EXPECT_EQ(std::memcmp(&na.similarity, &nb.similarity, sizeof(double)), 0);
  }
}

void expect_identical(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.conditions(), b.conditions());
  ASSERT_EQ(a.gene_count(), b.gene_count());
  for (std::size_t r = 0; r < a.gene_count(); ++r) {
    EXPECT_EQ(a.gene(r).systematic_name, b.gene(r).systematic_name);
    EXPECT_EQ(a.gene(r).common_name, b.gene(r).common_name);
    EXPECT_EQ(a.gene(r).description, b.gene(r).description);
  }
  ASSERT_EQ(a.values().rows(), b.values().rows());
  ASSERT_EQ(a.values().cols(), b.values().cols());
  const auto va = a.values().data();
  const auto vb = b.values().data();
  if (!va.empty()) {
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size_bytes()), 0);
  }
  expect_same_tree(a.gene_tree(), b.gene_tree());
  expect_same_tree(a.array_tree(), b.array_tree());
}

/// What one parse did: the dataset, or the error's type, text and line.
struct Outcome {
  std::optional<Dataset> dataset;
  bool parse_error = false;
  std::string error;
  std::size_t line = 0;
};

template <typename Parse>
Outcome run(Parse&& parse) {
  Outcome outcome;
  try {
    outcome.dataset = parse();
  } catch (const ParseError& e) {
    outcome.parse_error = true;
    outcome.error = e.what();
    outcome.line = e.line();
  } catch (const fv::Error& e) {
    outcome.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return outcome;
}

/// Asserts both parsers agree on accept/reject, and on what they produced.
void expect_same_outcome(const Outcome& reference, const Outcome& scanned) {
  ASSERT_EQ(reference.dataset.has_value(), scanned.dataset.has_value())
      << "reference: " << reference.error << " | scanner: " << scanned.error;
  if (reference.dataset.has_value()) {
    expect_identical(*reference.dataset, *scanned.dataset);
    return;
  }
  EXPECT_TRUE(reference.parse_error) << reference.error;
  EXPECT_TRUE(scanned.parse_error) << scanned.error;
  EXPECT_EQ(reference.error, scanned.error);
  EXPECT_EQ(reference.line, scanned.line);
}

Outcome run_pcl_reference(const std::string& text) {
  return run([&] { return seed_reference::parse_pcl(text, "t"); });
}
Outcome run_pcl(const std::string& text) {
  return run([&] { return ex::parse_pcl(text, "t"); });
}
Outcome run_cdt_reference(const CdtBundle& bundle) {
  return run([&] { return seed_reference::parse_cdt(bundle, "t"); });
}
Outcome run_cdt(const CdtBundle& bundle) {
  return run([&] { return ex::parse_cdt(bundle, "t"); });
}

// ---------------------------------------------------------------------------
// Synthetic tables.

struct Shape {
  bool cdt = false;
  bool gid = false;      // CDT: GID column plus a gene tree
  bool aid = false;      // CDT: AID row plus an array tree
  bool eweight = true;
  bool crlf = false;
  bool messy = false;    // padded, empty, short and special cells, blank lines
};

std::string value_cell(fv::Rng& rng, bool messy) {
  static const char* const kSpecial[] = {
      "inf",    "-inf",   "nan", "NaN",    "-0",     "0",
      "1e22",   "1e23",   "1E+2", "0.5e-3", "-12.25", "007",
      "1e-310", "123456789012345", "1234567890123456"};
  char buffer[48];
  const double u = rng.uniform();
  if (messy && u < 0.08) return "";
  if (messy && u < 0.16) {
    return kSpecial[rng.uniform_u64(sizeof(kSpecial) / sizeof(*kSpecial))];
  }
  const double value = rng.normal(0.0, 2.0);
  if (messy && u < 0.24) {
    std::snprintf(buffer, sizeof(buffer), " %.4f ", value);
    return buffer;
  }
  if (messy && u < 0.32) {
    std::snprintf(buffer, sizeof(buffer), "%.*g",
                  1 + static_cast<int>(rng.uniform_u64(17)), value);
    return buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "%.6g",
                static_cast<double>(static_cast<float>(value)));
  return buffer;
}

/// Caterpillar merge list over leaves named by `leaf`.
template <typename LeafName>
std::string caterpillar_tree(std::size_t leaves, LeafName leaf) {
  std::string out;
  for (std::size_t m = 0; m + 1 < leaves; ++m) {
    const std::string left =
        m == 0 ? leaf(0) : "NODE" + std::to_string(m) + "X";
    out += "NODE" + std::to_string(m + 1) + "X\t" + left + "\t" +
           leaf(m + 1) + "\t0.5\n";
  }
  return out;
}

CdtBundle synth_table(fv::Rng& rng, const Shape& shape, std::size_t rows,
                      std::size_t cols) {
  const std::string eol = shape.crlf ? "\r\n" : "\n";
  const std::size_t meta = shape.gid ? 4 : 3;
  CdtBundle out;
  std::string& t = out.cdt;
  if (shape.gid) t += "GID\t";
  t += "ID\tNAME\tGWEIGHT";
  for (std::size_t c = 0; c < cols; ++c) {
    t += shape.messy && c % 3 == 1 ? "\t cond" : "\tcond";
    t += std::to_string(c);
  }
  t += eol;
  if (shape.aid) {
    t += "AID";
    for (std::size_t i = 1; i < meta; ++i) t += '\t';
    for (std::size_t c = 0; c < cols; ++c) t += "\tARRY" + std::to_string(c) + "X";
    t += eol;
  }
  if (shape.eweight) {
    t += "EWEIGHT";
    for (std::size_t i = 1; i < meta; ++i) t += '\t';
    for (std::size_t c = 0; c < cols; ++c) t += "\t1";
    t += eol;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (shape.messy && rng.uniform() < 0.05) t += rng.bernoulli(0.5) ? eol : " \t " + eol;
    if (shape.gid) t += "GENE" + std::to_string(r) + "X\t";
    t += "Y" + std::to_string(r) + "\t";
    t += rng.bernoulli(0.5) ? "G" + std::to_string(r) + "|desc " + std::to_string(r)
                            : " G" + std::to_string(r) + " ";
    t += "\t1";
    std::size_t cells = cols;
    if (shape.messy && rng.uniform() < 0.15) cells = rng.uniform_u64(cols + 1);
    for (std::size_t c = 0; c < cells; ++c) t += '\t' + value_cell(rng, shape.messy);
    t += eol;
  }
  if (shape.gid) {
    out.gtr = caterpillar_tree(
        rows, [](std::size_t i) { return "GENE" + std::to_string(i) + "X"; });
  }
  if (shape.aid) {
    out.atr = caterpillar_tree(
        cols, [](std::size_t i) { return "ARRY" + std::to_string(i) + "X"; });
  }
  return out;
}

std::vector<Shape> all_shapes() {
  std::vector<Shape> shapes;
  for (int bits = 0; bits < 32; ++bits) {
    Shape s;
    s.cdt = (bits & 1) != 0;
    s.gid = s.cdt && (bits & 2) != 0;
    s.aid = s.cdt && (bits & 4) != 0;
    s.eweight = (bits & 8) != 0;
    s.crlf = (bits & 16) != 0;
    if (!s.cdt && (bits & 6) != 0) continue;  // PCL has no GID/AID
    for (const bool messy : {false, true}) {
      s.messy = messy;
      shapes.push_back(s);
    }
  }
  return shapes;
}

std::string describe(const Shape& s) {
  return std::string(s.cdt ? "cdt" : "pcl") + (s.gid ? "+gid" : "") +
         (s.aid ? "+aid" : "") + (s.eweight ? "+eweight" : "") +
         (s.crlf ? "+crlf" : "") + (s.messy ? "+messy" : "");
}

// ---------------------------------------------------------------------------

TEST(IngestEquivalenceTest, SyntheticTablesMatchSeedParsers) {
  fv::Rng rng(1301);
  for (const Shape& shape : all_shapes()) {
    for (const std::size_t rows : {0u, 1u, 7u, 40u}) {
      for (const std::size_t cols : {0u, 1u, 5u, 17u}) {
        SCOPED_TRACE(describe(shape) + " rows=" + std::to_string(rows) +
                     " cols=" + std::to_string(cols));
        const CdtBundle bundle = synth_table(rng, shape, rows, cols);
        // The same table with a last row whose value underflows a double
        // (std::from_chars reports 1e-400 out of range: a rejection).
        CdtBundle underflow = bundle;
        underflow.cdt += std::string(shape.gid ? "GENEyX\t" : "") +
                         "Yy\tG\t1\t1e-400\n";
        if (shape.cdt) {
          const Outcome reference = run_cdt_reference(bundle);
          ASSERT_TRUE(reference.dataset.has_value()) << reference.error;
          expect_same_outcome(reference, run_cdt(bundle));
          expect_same_outcome(run_cdt_reference(underflow), run_cdt(underflow));
        } else {
          const Outcome reference = run_pcl_reference(bundle.cdt);
          ASSERT_TRUE(reference.dataset.has_value()) << reference.error;
          expect_same_outcome(reference, run_pcl(bundle.cdt));
          expect_same_outcome(run_pcl_reference(underflow.cdt),
                              run_pcl(underflow.cdt));
        }
      }
    }
  }
}

TEST(IngestEquivalenceTest, SynthCompendiumMatchesSeedParsers) {
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(300);
  spec.seed = 7;
  for (const Dataset& dataset : ex::make_compendium(spec).datasets) {
    SCOPED_TRACE(dataset.name());
    const std::string pcl = ex::format_pcl(dataset);
    const Outcome reference = run_pcl_reference(pcl);
    ASSERT_TRUE(reference.dataset.has_value()) << reference.error;
    expect_same_outcome(reference, run_pcl(pcl));
    const CdtBundle cdt = ex::format_cdt(dataset);
    expect_same_outcome(run_cdt_reference(cdt), run_cdt(cdt));
  }
}

TEST(IngestEquivalenceTest, HandWrittenEdgeInputs) {
  const char* const kPcl[] = {
      "",
      "\n",
      "\r",
      "ID\tNAME\n",
      "ID\tNAME\tGWEIGHT",
      "ID\tNAME\tGWEIGHT\n",
      "ID\tNAME\tGWEIGHT\nEWEIGHT\n",
      "ID\tNAME\tGWEIGHT\na\n",
      "ID\tNAME\tGWEIGHT\na\tb\n",
      "ID\tNAME\tGWEIGHT\na\tb\tw\n",
      "ID\tNAME\tGWEIGHT\na\tb\tw\t\n",
      "ID\tNAME\tGWEIGHT\tc\na\tb\tw\t1\t2\n",
      "ID\tNAME\tGWEIGHT\tc\na\tb\tw\tx\t2\n",
      "ID\tNAME\tGWEIGHT\tc\na\tb\tw\tx\n",
      "ID\tNAME\tGWEIGHT\tc\na\tb\tw\t1\r\r\n",
      "ID\tNAME\tGWEIGHT\tc\n\t\t\n \r\n",
      "ID\tNAME\tGWEIGHT\tc\teweight\nEWEIGHT\t\t\t1\na\tb|c|d\tw\t-\n",
      "ID\tNAME\tGWEIGHT\tc\tc2\na\tb\tw\t1e\t2\n",
      "ID\tNAME\tGWEIGHT\tc\tc2\na\tb\tw\t\v1\f\t2\n",
      "ID\tNAME\tGWEIGHT\tc\tc2\na\tb\tw\t1\t2\t\n",
      "ID\tNAME\tGWEIGHT\tc\tc2\na\tb\tw\tjunk\t2\t3\n",
  };
  for (const char* text : kPcl) {
    SCOPED_TRACE(std::string("pcl: ") + text);
    expect_same_outcome(run_pcl_reference(text), run_pcl(text));
    const CdtBundle bundle{text, "", ""};
    expect_same_outcome(run_cdt_reference(bundle), run_cdt(bundle));
  }
  const char* const kCdt[] = {
      "GID\tID\tNAME\n",
      "GID\tID\tNAME\tGWEIGHT\tc\nAID\n",
      "GID\tID\tNAME\tGWEIGHT\tc\nAID\t\t\t\tA0\nEWEIGHT\na\tb\tc\n",
      "GID\tID\tNAME\tGWEIGHT\tc\nAID\t\t\t\tA0\tA1\n",
      "GID\tID\tNAME\tGWEIGHT\tc\ng\ta\tb\tw\t1\t2\n",
      "GID\tID\tNAME\tGWEIGHT\tc\ng\ta\tb\tw\tbad\t2\n",
      "ID\tNAME\tGWEIGHT\tc\nAID\t\t\tA0\na\tb\tw\t1\n",
  };
  for (const char* text : kCdt) {
    SCOPED_TRACE(std::string("cdt: ") + text);
    const CdtBundle bundle{text, "", ""};
    expect_same_outcome(run_cdt_reference(bundle), run_cdt(bundle));
  }
}

// ---------------------------------------------------------------------------
// Seeded byte mutations of small valid tables.

std::string mutate(std::string text, fv::Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "\t\t\t\n\n\r -+.eE0123456789|xinfaNAIDGEWHT";
  const auto pick = [&] {
    return kAlphabet[rng.uniform_u64(kAlphabet.size())];
  };
  const std::uint64_t edits = 1 + rng.uniform_u64(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_u64(text.size() + 1);
    const bool inside = pos < text.size();
    switch (rng.uniform_u64(6)) {
      case 0:
        if (inside) text[pos] = pick();
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), pick());
        break;
      case 2:
        if (inside) text.erase(pos, 1);
        break;
      case 3:
        if (inside) text[pos] = static_cast<char>(rng.uniform_u64(256));
        break;
      case 4:
        if (inside) text.erase(pos, 1 + rng.uniform_u64(8));
        break;
      default:
        if (rng.uniform() < 0.25) text.resize(pos);  // truncation
        break;
    }
  }
  return text;
}

// Budget: a fixed count, not a clock, so every run checks the same inputs.
constexpr int kMutationsPerBase = 1500;

TEST(IngestMutationTest, PclAcceptRejectAndLinesMatchSeedParser) {
  fv::Rng rng(20261);
  std::size_t rejected = 0;
  std::size_t total = 0;
  for (const Shape& shape : all_shapes()) {
    if (shape.cdt) continue;
    const std::string base = synth_table(rng, shape, 6, 4).cdt;
    for (int i = 0; i < kMutationsPerBase; ++i) {
      const std::string text = mutate(base, rng);
      const Outcome reference = run_pcl_reference(text);
      const Outcome scanned = run_pcl(text);
      if (!reference.dataset.has_value()) ++rejected;
      ++total;
      SCOPED_TRACE(describe(shape) + " mutation " + std::to_string(i));
      expect_same_outcome(reference, scanned);
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Both branches must actually be exercised.
  EXPECT_GT(rejected, total / 10);
  EXPECT_LT(rejected, total * 9 / 10);
}

TEST(IngestMutationTest, CdtAcceptRejectAndLinesMatchSeedParser) {
  fv::Rng rng(20262);
  std::size_t rejected = 0;
  std::size_t total = 0;
  for (const Shape& shape : all_shapes()) {
    if (!shape.cdt) continue;
    const CdtBundle base = synth_table(rng, shape, 6, 4);
    for (int i = 0; i < kMutationsPerBase; ++i) {
      CdtBundle bundle = base;
      bundle.cdt = mutate(base.cdt, rng);
      const Outcome reference = run_cdt_reference(bundle);
      const Outcome scanned = run_cdt(bundle);
      if (!reference.dataset.has_value()) ++rejected;
      ++total;
      SCOPED_TRACE(describe(shape) + " mutation " + std::to_string(i));
      expect_same_outcome(reference, scanned);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(rejected, total / 10);
  EXPECT_LT(rejected, total * 9 / 10);
}

// ---------------------------------------------------------------------------
// The decimal fast path against std::from_chars.

/// Runs the fast path on the whole of `text`; nullopt when it declines.
/// Checks it twice: alone, ending at the end of the text, and followed by
/// a tab and more cells, as inside a row. Both must agree.
std::optional<double> fast(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const char* stop = ex::detail::parse_exact_decimal(text.data(), end, value);
  const std::string in_row = std::string(text) + "\t12345678\t1";
  double row_value = 0.0;
  const char* row_stop = ex::detail::parse_exact_decimal(
      in_row.data(), in_row.data() + in_row.size(), row_value);
  EXPECT_EQ(stop == nullptr, row_stop == nullptr) << "'" << text << "'";
  if (stop == nullptr || row_stop == nullptr) return std::nullopt;
  EXPECT_EQ(stop, end) << "fast path stopped inside '" << text << "'";
  EXPECT_EQ(row_stop, in_row.data() + text.size()) << "'" << text << "'";
  EXPECT_EQ(std::memcmp(&value, &row_value, sizeof(double)), 0) << text;
  return value;
}

void expect_bits_match_from_chars(std::string_view text, double value) {
  double expected = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), expected);
  ASSERT_EQ(ec, std::errc{}) << "from_chars rejected '" << text << "'";
  ASSERT_EQ(ptr, text.data() + text.size()) << text;
  EXPECT_EQ(std::memcmp(&value, &expected, sizeof(double)), 0)
      << "'" << text << "': fast " << value << " vs from_chars " << expected;
}

/// The same cell through parse_pcl and through the seed parser.
void expect_cell_matches_reference(const std::string& cell) {
  const std::string text = "ID\tNAME\tGWEIGHT\tc\tc2\nG\tN\t1\t" + cell + "\t" +
                           cell + "\n";
  expect_same_outcome(run_pcl_reference(text), run_pcl(text));
}

TEST(DecimalFastPathTest, EdgeCases) {
  struct Edge {
    const char* text;
    bool fast;  // the fast path takes it (else: general parser)
  };
  const Edge kEdges[] = {
      {"-0", true},
      {"0", true},
      {"-0.0e-5", true},
      {"0e999", false},
      {"1e22", true},
      {"1e-22", true},
      {"1e23", false},
      {"1e-23", false},
      {"9007199254740993", false},
      {"123456789012345", true},
      {"-999999999999999e22", true},
      {"0.000123456789012345", true},
      {"1234567890123456", false},
      {"1.000000000000000", false},
      {"1.", false},
      {".5", false},
      {"+1", false},
      {"1e", false},
      {"1e+", false},
      {"1e-", false},
      {" 1", false},
      {"1 ", false},
      {"0x1p3", false},
      {"inf", false},
      {"nan", false},
      {"-", false},
      {"", false},
      {"1e-400", false},
      {"2.5E+3", true},
      {"007.50", true},
      {"1.5e0000000000000000000000001", true},
      {"12345678", true},
      {"123456789", true},
      {"-0.12345678", true},
      {"1234567.8", true},
      {"99999999.9999999", true},
      {"99999999.99999999", false},
      {"0000000000000000001", true},
      {"00000000000000000001", false},
      {"1\x80", false},
      {"1/", false},
      {"1:", false},
  };
  for (const Edge& edge : kEdges) {
    SCOPED_TRACE(edge.text);
    const auto value = fast(edge.text);
    EXPECT_EQ(value.has_value(), edge.fast);
    if (value.has_value()) expect_bits_match_from_chars(edge.text, *value);
    expect_cell_matches_reference(edge.text);
  }
  // Signed zero survives the fast path.
  EXPECT_TRUE(std::signbit(*fast("-0")));
}

TEST(DecimalFastPathTest, SeededCorpusMatchesFromCharsBitForBit) {
  fv::Rng rng(4242);
  std::size_t taken = 0;
  std::size_t total = 0;
  const auto check = [&](const std::string& text) {
    ++total;
    if (const auto value = fast(text)) {
      ++taken;
      expect_bits_match_from_chars(text, *value);
    }
  };
  char buffer[64];
  for (int i = 0; i < 40000; ++i) {
    // Printed doubles in every printf form, at every precision.
    const double magnitude = std::pow(10.0, rng.uniform(-25.0, 25.0));
    const double value = (rng.bernoulli(0.5) ? -1.0 : 1.0) * magnitude *
                         rng.uniform(1.0, 10.0);
    const int precision = static_cast<int>(rng.uniform_u64(18));
    static const char* const kForms[] = {"%.*g", "%.*e", "%.*f", "%.*E"};
    std::snprintf(buffer, sizeof(buffer), kForms[rng.uniform_u64(4)],
                  precision, value);
    check(buffer);
    // Random digit strings: integer part, fraction, exponent.
    std::string digits;
    if (rng.bernoulli(0.3)) digits += '-';
    const std::uint64_t int_digits = 1 + rng.uniform_u64(18);
    for (std::uint64_t d = 0; d < int_digits; ++d) {
      digits += static_cast<char>('0' + rng.uniform_u64(10));
    }
    if (rng.bernoulli(0.7)) {
      digits += '.';
      const std::uint64_t frac_digits = 1 + rng.uniform_u64(18);
      for (std::uint64_t d = 0; d < frac_digits; ++d) {
        digits += static_cast<char>('0' + rng.uniform_u64(10));
      }
    }
    if (rng.bernoulli(0.6)) {
      digits += rng.bernoulli(0.5) ? 'e' : 'E';
      const std::uint64_t sign = rng.uniform_u64(3);
      if (sign == 1) digits += '-';
      if (sign == 2) digits += '+';
      digits += std::to_string(rng.uniform_u64(40));
    }
    check(digits);
  }
  // What the writers emit: every %.6g float of expression-like magnitude
  // takes the fast path.
  for (int i = 0; i < 40000; ++i) {
    const auto value = static_cast<float>(rng.normal(0.0, 3.0));
    std::snprintf(buffer, sizeof(buffer), "%.6g", static_cast<double>(value));
    ASSERT_TRUE(fast(buffer).has_value()) << buffer;
    check(buffer);
  }
  EXPECT_GT(taken, total / 2);
  EXPECT_LT(taken, total);
}

}  // namespace
