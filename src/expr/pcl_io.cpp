#include "expr/pcl_io.hpp"

#include "expr/table_scan.hpp"
#include "util/table_io.hpp"

namespace fv::expr {

namespace {

std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end =
      (dot == std::string::npos || dot < start) ? path.size() : dot;
  return path.substr(start, end - start);
}

}  // namespace

Dataset parse_pcl(const std::string& content, const std::string& name) {
  detail::ScannedTable table =
      detail::scan_table(content, detail::TableDialect::kPcl);
  return Dataset(name, std::move(table.genes), std::move(table.conditions),
                 std::move(table.values));
}

Dataset read_pcl(const std::string& path) {
  return parse_pcl(read_text_file(path), file_stem(path));
}

std::string format_pcl(const Dataset& dataset) {
  std::string out;
  out.reserve(dataset.gene_count() * (dataset.condition_count() * 8 + 32));
  out += "ID\tNAME\tGWEIGHT";
  for (const std::string& condition : dataset.conditions()) {
    out += '\t';
    out += condition;
  }
  out += '\n';
  out += "EWEIGHT\t\t";
  for (std::size_t c = 0; c < dataset.condition_count(); ++c) out += "\t1";
  out += '\n';
  for (std::size_t r = 0; r < dataset.gene_count(); ++r) {
    detail::append_gene_cells(out, dataset.gene(r), dataset.values().row(r));
    out += '\n';
  }
  return out;
}

void write_pcl(const Dataset& dataset, const std::string& path) {
  write_text_file(path, format_pcl(dataset));
}

}  // namespace fv::expr
