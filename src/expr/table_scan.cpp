#include "expr/table_scan.hpp"

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>

#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

// The fast decimal path rounds once, in double. Extended-precision
// evaluation (x87) would round twice and could differ from std::from_chars.
static_assert(FLT_EVAL_METHOD == 0,
              "parse_exact_decimal needs double arithmetic in double");

namespace fv::expr::detail {

namespace {

/// The error texts that differ between the two dialects.
struct DialectText {
  const char* empty_file;
  const char* short_header;
  const char* short_row;
  const char* long_row;
  bool quote_bad_value;  // PCL names the cell in its message, CDT does not
};

constexpr DialectText kPclText{
    "empty PCL file", "PCL header needs at least ID, NAME, GWEIGHT columns",
    "data row has fewer than 3 columns",
    "data row has more value cells than conditions", true};
constexpr DialectText kCdtText{"empty CDT file", "CDT header too short",
                               "CDT data row too short",
                               "CDT data row too long", false};

/// Line-at-a-time view of the text with the same splitting as
/// std::getline: LF ends a line, one trailing CR is dropped, and a final
/// LF does not start an empty last line.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const auto* lf = static_cast<const char*>(
        std::memchr(rest_.data(), '\n', rest_.size()));
    const std::size_t length =
        lf == nullptr ? rest_.size() : static_cast<std::size_t>(lf - rest_.data());
    line = rest_.substr(0, length);
    rest_.remove_prefix(lf == nullptr ? length : length + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++number_;
    return true;
  }

  /// 1-based number of the line last returned.
  std::size_t number() const noexcept { return number_; }

 private:
  std::string_view rest_;
  std::size_t number_ = 0;
};

const char* find_tab(const char* first, const char* last) {
  const void* tab = std::memchr(first, '\t', static_cast<std::size_t>(last - first));
  return tab == nullptr ? last : static_cast<const char*>(tab);
}

bool first_cell_is(std::string_view line, std::string_view tag) {
  return str::iequals(str::trim(line.substr(0, line.find('\t'))), tag);
}

GeneInfo parse_name_cell(std::string_view id, std::string_view name_cell) {
  GeneInfo info;
  info.systematic_name = std::string(str::trim(id));
  const std::size_t bar = name_cell.find('|');
  if (bar == std::string_view::npos) {
    info.common_name = std::string(str::trim(name_cell));
  } else {
    info.common_name = std::string(str::trim(name_cell.substr(0, bar)));
    info.description = std::string(str::trim(name_cell.substr(bar + 1)));
  }
  return info;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Appends the run of ASCII digits at `p` (up to `last`) to `acc` and
/// returns its end. `acc` wraps on more than 19 digits; the caller counts
/// digits and declines such input.
const char* take_digits(const char* p, const char* last, std::uint64_t& acc) {
  for (; p != last && is_digit(*p); ++p) {
    acc = acc * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  return p;
}

}  // namespace

const char* parse_exact_decimal(const char* first, const char* last,
                                double& value) noexcept {
  // Every power of ten up to 1e22 is an exact double (5^22 < 2^53).
  static constexpr double kPow10[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  constexpr long kMaxExponent = 22;

  const char* p = first;
  const bool negative = p != last && *p == '-';
  p += negative ? 1 : 0;
  std::uint64_t significand = 0;
  const char* integer = p;
  p = take_digits(p, last, significand);
  if (p == integer) return nullptr;  // ".5", "-", "inf", "nan", "+1", " 1"
  std::ptrdiff_t digits = p - integer;
  long exponent = 0;
  if (p != last && *p == '.') {
    const char* fraction = ++p;
    p = take_digits(p, last, significand);
    if (p == fraction) return nullptr;  // "1."
    digits += p - fraction;
    exponent = -static_cast<long>(p - fraction);
  }
  if (p != last && (*p == 'e' || *p == 'E')) {
    ++p;
    const bool exponent_negative = p != last && *p == '-';
    if (p != last && (*p == '-' || *p == '+')) ++p;
    const char* exponent_digits = p;
    long written = 0;
    for (; p != last && is_digit(*p); ++p) {
      if (written <= kMaxExponent * 100) written = written * 10 + (*p - '0');
    }
    if (p == exponent_digits) return nullptr;  // "1e", "1e+"
    exponent += exponent_negative ? -written : written;
  }
  if (p != last && *p != '\t') return nullptr;  // trailing junk or spaces
  // At most 19 digits cannot wrap the significand; below 10^15 it has at
  // most 15 significant digits and is an exact double (10^15 < 2^53).
  if (digits > 19 || significand >= 1000000000000000ULL) return nullptr;
  if (exponent < -kMaxExponent || exponent > kMaxExponent) return nullptr;
  // Both operands are exact, so the one IEEE rounding of the product or
  // quotient is the correctly rounded value of the decimal (Clinger 1990).
  const double magnitude =
      exponent < 0 ? static_cast<double>(significand) / kPow10[-exponent]
                   : static_cast<double>(significand) * kPow10[exponent];
  value = negative ? -magnitude : magnitude;
  return p;
}

ScannedTable scan_table(std::string_view text, TableDialect dialect) {
  const DialectText& msg = dialect == TableDialect::kCdt ? kCdtText : kPclText;
  LineCursor lines(text);
  std::string_view line;
  if (!lines.next(line)) throw ParseError(msg.empty_file);

  ScannedTable table;
  const auto header = str::split(line, '\t');
  table.has_gid = dialect == TableDialect::kCdt &&
                  str::iequals(str::trim(header[0]), "GID");
  const std::size_t meta_cols = table.has_gid ? 4 : 3;
  if (header.size() < meta_cols) throw ParseError(msg.short_header, 1);
  for (std::size_t c = meta_cols; c < header.size(); ++c) {
    table.conditions.emplace_back(str::trim(header[c]));
  }
  const std::size_t cols = table.conditions.size();

  // Optional AID row (CDT only), then optional EWEIGHT row (ignored).
  bool have = lines.next(line);
  if (have && dialect == TableDialect::kCdt && first_cell_is(line, "AID")) {
    const auto fields = str::split(line, '\t');
    for (std::size_t c = meta_cols; c < fields.size(); ++c) {
      table.array_keys.emplace_back(str::trim(fields[c]));
    }
    if (table.array_keys.size() != cols) {
      throw ParseError("AID row width disagrees with header", lines.number());
    }
    have = lines.next(line);
  }
  if (have && first_cell_is(line, "EWEIGHT")) have = lines.next(line);

  std::vector<float> values;
  for (; have; have = lines.next(line)) {
    if (str::trim(line).empty()) continue;
    const std::size_t line_no = lines.number();
    const char* p = line.data();
    const char* const end = p + line.size();

    // Meta cells: [GID] ID NAME GWEIGHT. `p` ends on the first value cell,
    // or on `end` when the row has none.
    std::string_view meta[4];
    bool has_values = false;
    for (std::size_t f = 0; f < meta_cols; ++f) {
      const char* tab = find_tab(p, end);
      meta[f] = std::string_view(p, static_cast<std::size_t>(tab - p));
      if (tab == end) {
        if (f + 1 < meta_cols) throw ParseError(msg.short_row, line_no);
        p = end;
        break;
      }
      p = tab + 1;
      has_values = f + 1 == meta_cols;
    }
    if (table.has_gid) table.gene_keys.emplace_back(str::trim(meta[0]));
    table.genes.push_back(
        parse_name_cell(meta[meta_cols - 3], meta[meta_cols - 2]));

    // A bad value in a row that also has too many cells is reported as
    // the latter, as the seed parsers checked widths first.
    const auto reject_value = [&](std::string_view cell) {
      if (static_cast<std::size_t>(std::count(line.begin(), line.end(), '\t')) >=
          meta_cols + cols) {
        throw ParseError(msg.long_row, line_no);
      }
      throw ParseError(msg.quote_bad_value
                           ? "unparseable expression value '" +
                                 std::string(cell) + "'"
                           : std::string("unparseable expression value"),
                       line_no);
    };
    const std::size_t base = values.size();
    values.resize(base + cols, stats::missing_value());
    float* const row = values.data() + base;
    for (std::size_t c = 0; has_values; ++c) {
      if (c == cols) throw ParseError(msg.long_row, line_no);
      const char* stop = p;  // an empty cell stays missing
      double value = 0.0;
      bool present = p != end && *p != '\t';
      if (present) {
        stop = parse_exact_decimal(p, end, value);
        if (stop == nullptr) {  // the general parser, on the trimmed cell
          stop = find_tab(p, end);
          const std::string_view cell = str::trim(
              std::string_view(p, static_cast<std::size_t>(stop - p)));
          present = !cell.empty();
          if (present) {
            const auto parsed = str::parse_double(cell);
            if (!parsed.has_value()) reject_value(cell);
            value = *parsed;
          }
        }
      }
      if (present) row[c] = static_cast<float>(value);
      has_values = stop != end;
      if (has_values) p = stop + 1;
    }
  }
  const std::size_t rows = table.genes.size();
  table.values = ExpressionMatrix(rows, cols, std::move(values));
  return table;
}

void append_gene_cells(std::string& out, const GeneInfo& gene,
                       std::span<const float> values) {
  out += gene.systematic_name;
  out += '\t';
  out += gene.common_name;
  if (!gene.description.empty()) {
    out += '|';
    out += gene.description;
  }
  out += "\t1";
  for (const float value : values) {
    out += '\t';
    if (stats::is_missing(value)) continue;  // empty cell == missing
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", static_cast<double>(value));
    out += buffer;
  }
}

}  // namespace fv::expr::detail
