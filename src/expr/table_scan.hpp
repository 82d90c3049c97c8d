// The tab table shared by PCL and CDT files, read in one pass.
//
// A PCL is a CDT without the GID column and the AID row:
//   [GID <tab>] ID <tab> NAME <tab> GWEIGHT <tab> cond1 ... condM
//   AID ... <tab> leaf1 ... leafM                 (CDT only, optional)
//   EWEIGHT <tab> ... <tab> 1 ... 1               (optional)
//   [gid <tab>] systematic <tab> common|description <tab> w <tab> v1 ... vM
// Both readers (pcl_io, cdt_io) and both writers go through this file, so
// the dialects cannot drift apart.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "expr/expression_matrix.hpp"
#include "expr/gene.hpp"

namespace fv::expr::detail {

enum class TableDialect { kPcl, kCdt };

/// What one scan of a table yields, before trees are attached.
struct ScannedTable {
  std::vector<std::string> conditions;
  std::vector<GeneInfo> genes;
  ExpressionMatrix values;
  bool has_gid = false;                 ///< CDT header starts with GID
  std::vector<std::string> gene_keys;   ///< trimmed GID cell per data row
  std::vector<std::string> array_keys;  ///< trimmed AID cells, when present
};

/// Walks `text` once, writing each data row straight into the matrix
/// storage. Blank lines are skipped, CR before LF is dropped, short rows get
/// trailing missing cells. Throws ParseError with the 1-based line number on
/// a short header, a row with too few or too many cells, or a value cell
/// that is not a number.
ScannedTable scan_table(std::string_view text, TableDialect dialect);

/// Exact fast path for one value cell starting at `first`: accepts
/// -?digits(.digits+)?([eE][+-]?digits)? ending at a tab or `last`, with at
/// most 15 significant digits and a decimal exponent in [-22, 22]. Stores
/// the correctly rounded double (the one std::from_chars returns) and
/// returns the end of the number; returns nullptr for anything else, which
/// the caller must hand to the general parser.
const char* parse_exact_decimal(const char* first, const char* last,
                                double& value) noexcept;

/// Appends "systematic <tab> common|description <tab> 1 <tab> v1 ... vM"
/// (missing values as empty cells, others as %.6g), without the newline.
void append_gene_cells(std::string& out, const GeneInfo& gene,
                       std::span<const float> values);

}  // namespace fv::expr::detail
