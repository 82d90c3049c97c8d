// Dense gene-by-condition expression storage.
//
// Rows are genes, columns are conditions (arrays). Values are log-ratios as
// in Java TreeView; missing measurements are quiet NaN. Storage is row-major
// float so a whole-compendium merged view (paper claim: hundreds of millions
// of measurements) stays memory-feasible.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace fv::expr {

class ExpressionMatrix {
 public:
  ExpressionMatrix() = default;

  /// Creates a rows x cols matrix filled with `fill` (default: missing).
  ExpressionMatrix(std::size_t rows, std::size_t cols)
      : ExpressionMatrix(rows, cols, stats::missing_value()) {}

  ExpressionMatrix(std::size_t rows, std::size_t cols, float fill)
      : rows_(rows), cols_(cols), values_(rows * cols, fill) {}

  /// Adopts row-major `values` (rows * cols of them) without copying.
  ExpressionMatrix(std::size_t rows, std::size_t cols, std::vector<float> values)
      : rows_(rows), cols_(cols), values_(std::move(values)) {
    FV_REQUIRE(values_.size() == rows * cols, "matrix storage size mismatch");
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  float at(std::size_t row, std::size_t col) const {
    FV_REQUIRE(row < rows_ && col < cols_, "matrix index out of range");
    return values_[row * cols_ + col];
  }

  void set(std::size_t row, std::size_t col, float value) {
    FV_REQUIRE(row < rows_ && col < cols_, "matrix index out of range");
    values_[row * cols_ + col] = value;
  }

  std::span<const float> row(std::size_t index) const {
    FV_REQUIRE(index < rows_, "matrix row out of range");
    return {values_.data() + index * cols_, cols_};
  }

  std::span<float> row(std::size_t index) {
    FV_REQUIRE(index < rows_, "matrix row out of range");
    return {values_.data() + index * cols_, cols_};
  }

  std::span<const float> data() const noexcept { return values_; }
  std::span<float> data() noexcept { return values_; }

  /// Extracts one column (gene profile across one condition).
  std::vector<float> column(std::size_t col) const {
    FV_REQUIRE(col < cols_, "matrix column out of range");
    std::vector<float> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = values_[r * cols_ + col];
    return out;
  }

  /// Returns the transpose (conditions become rows). Column-wise analyses
  /// (array clustering, per-condition scans) should materialize this once
  /// and use contiguous row access instead of calling column() per pair,
  /// which allocates every time.
  ExpressionMatrix transposed() const {
    ExpressionMatrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        t.values_[c * rows_ + r] = values_[r * cols_ + c];
      }
    }
    return t;
  }

  /// Fraction of cells that are missing.
  double missing_fraction() const {
    if (values_.empty()) return 0.0;
    std::size_t missing = 0;
    for (float v : values_) {
      if (stats::is_missing(v)) ++missing;
    }
    return static_cast<double>(missing) / static_cast<double>(values_.size());
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> values_;
};

}  // namespace fv::expr
