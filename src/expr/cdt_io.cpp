#include "expr/cdt_io.hpp"

#include <filesystem>
#include <sstream>
#include <unordered_map>

#include "expr/table_scan.hpp"
#include "util/string_util.hpp"
#include "util/table_io.hpp"

namespace fv::expr {

namespace {

std::string gene_leaf_name(std::size_t row) {
  return "GENE" + std::to_string(row) + "X";
}

std::string array_leaf_name(std::size_t col) {
  return "ARRY" + std::to_string(col) + "X";
}

std::string node_name(std::size_t merge_index) {
  return "NODE" + std::to_string(merge_index + 1) + "X";
}

// Serializes merges as "NODEkX child child similarity" rows, children named
// after the given leaf-name function.
template <typename LeafNameFn>
std::string format_tree(const HierTree& tree, LeafNameFn leaf_name) {
  std::string out;
  const std::size_t leaves = tree.leaf_count();
  for (std::size_t m = 0; m + 1 < leaves; ++m) {
    const int id = static_cast<int>(leaves + m);
    const HierTreeNode& node = tree.node(id);
    const auto child_name = [&](int child) {
      return tree.is_leaf(child)
                 ? leaf_name(static_cast<std::size_t>(child))
                 : node_name(static_cast<std::size_t>(child) - leaves);
    };
    char sim[32];
    std::snprintf(sim, sizeof(sim), "%.6g", node.similarity);
    out += node_name(m) + '\t' + child_name(node.left) + '\t' +
           child_name(node.right) + '\t' + sim + '\n';
  }
  return out;
}

// Parses tree text; `resolve_leaf` maps a leaf token (e.g. "GENE7X") to a
// leaf index, returning npos for unknown tokens.
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

}  // namespace

CdtBundle format_cdt(const Dataset& dataset) {
  CdtBundle bundle;
  const bool has_gene_tree = dataset.gene_tree().has_value();
  const bool has_array_tree = dataset.array_tree().has_value();

  std::string& out = bundle.cdt;
  out.reserve(dataset.gene_count() * (dataset.condition_count() * 8 + 48));
  if (has_gene_tree) out += "GID\t";
  out += "ID\tNAME\tGWEIGHT";
  for (const std::string& condition : dataset.conditions()) {
    out += '\t';
    out += condition;
  }
  out += '\n';

  const std::size_t meta_cols = has_gene_tree ? 4 : 3;
  if (has_array_tree) {
    out += "AID";
    for (std::size_t i = 1; i < meta_cols; ++i) out += '\t';
    for (std::size_t c = 0; c < dataset.condition_count(); ++c) {
      out += '\t';
      out += array_leaf_name(c);
    }
    out += '\n';
  }
  out += "EWEIGHT";
  for (std::size_t i = 1; i < meta_cols; ++i) out += '\t';
  for (std::size_t c = 0; c < dataset.condition_count(); ++c) out += "\t1";
  out += '\n';

  for (const std::size_t r : dataset.display_order()) {
    if (has_gene_tree) {
      out += gene_leaf_name(r);
      out += '\t';
    }
    detail::append_gene_cells(out, dataset.gene(r), dataset.values().row(r));
    out += '\n';
  }

  if (has_gene_tree) {
    bundle.gtr = format_tree(*dataset.gene_tree(), gene_leaf_name);
  }
  if (has_array_tree) {
    bundle.atr = format_tree(*dataset.array_tree(), array_leaf_name);
  }
  return bundle;
}

Dataset parse_cdt(const CdtBundle& bundle, const std::string& name) {
  detail::ScannedTable table =
      detail::scan_table(bundle.cdt, detail::TableDialect::kCdt);
  Dataset dataset(name, std::move(table.genes), std::move(table.conditions),
                  std::move(table.values));

  if (!bundle.gtr.empty()) {
    if (!table.has_gid) {
      throw ParseError("GTR supplied but CDT has no GID column");
    }
    std::unordered_map<std::string, std::size_t> gene_leaf_ids;
    for (std::size_t r = 0; r < table.gene_keys.size(); ++r) {
      gene_leaf_ids.emplace(std::move(table.gene_keys[r]), r);
    }
    dataset.attach_gene_tree(
        parse_tree(bundle.gtr, dataset.gene_count(), gene_leaf_ids));
  }
  if (!bundle.atr.empty()) {
    std::unordered_map<std::string, std::size_t> array_leaf_ids;
    if (!table.array_keys.empty()) {
      for (std::size_t c = 0; c < table.array_keys.size(); ++c) {
        array_leaf_ids.emplace(std::move(table.array_keys[c]), c);
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

void write_cdt(const Dataset& dataset, const std::string& base_path) {
  const CdtBundle bundle = format_cdt(dataset);
  write_text_file(base_path + ".cdt", bundle.cdt);
  if (!bundle.gtr.empty()) write_text_file(base_path + ".gtr", bundle.gtr);
  if (!bundle.atr.empty()) write_text_file(base_path + ".atr", bundle.atr);
}

Dataset read_cdt(const std::string& base_path) {
  CdtBundle bundle;
  bundle.cdt = read_text_file(base_path + ".cdt");
  namespace fs = std::filesystem;
  if (fs::exists(base_path + ".gtr")) {
    bundle.gtr = read_text_file(base_path + ".gtr");
  }
  if (fs::exists(base_path + ".atr")) {
    bundle.atr = read_text_file(base_path + ".atr");
  }
  const fs::path p(base_path);
  return parse_cdt(bundle, p.filename().string());
}

}  // namespace fv::expr
