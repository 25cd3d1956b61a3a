// Column-aligned text tables and CSV emission for the benchmark harness.
//
// Each bench binary prints one table per paper figure series, both as an
// aligned human-readable table and (optionally) as CSV for plotting.

#ifndef TRITON_UTIL_TABLE_H_
#define TRITON_UTIL_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace triton::util {

/// Collects rows of string cells and renders them aligned or as CSV.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Appends a row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  size_t num_rows() const { return rows_.size(); }

  /// Renders an aligned, boxed table.
  std::string ToText() const;

  /// Renders RFC-4180-ish CSV (no quoting needed for our cell contents).
  std::string ToCsv() const;

  /// Prints ToText() to stdout, preceded by `title`.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision = 3);

}  // namespace triton::util

#endif  // TRITON_UTIL_TABLE_H_
