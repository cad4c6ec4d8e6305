/// \file table.hpp
/// Column-aligned ASCII table used by the benchmark harness to print the
/// paper's tables and figure series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace conflux {

/// A simple table: a header row plus data rows of strings. Cells are
/// formatted by the caller (see format helpers below) so the table stays
/// type-agnostic.
class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render with aligned columns, a header underline, and `indent` leading
  /// spaces on every line.
  void print(std::ostream& os, int indent = 0) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `prec` significant-ish decimal digits.
[[nodiscard]] std::string fmt(double value, int prec = 3);

/// Format a byte count as a human-readable string (B, KB, MB, GB) using
/// decimal units, matching how the paper reports GB volumes.
[[nodiscard]] std::string human_bytes(double bytes);

/// Format bytes as GB with two decimals (the paper's Table 2 unit).
[[nodiscard]] std::string gb(double bytes);

}  // namespace conflux
