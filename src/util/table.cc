#include "util/table.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace triton::util {

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

void Table::AddRow(std::vector<std::string> cells) {
  CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToText() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto append_row = [&](std::string& out,
                        const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += "| ";
      out += row[c];
      out.append(widths[c] - row[c].size() + 1, ' ');
    }
    out += "|\n";
  };

  std::string sep = "+";
  for (size_t w : widths) {
    sep.append(w + 2, '-');
    sep += "+";
  }
  sep += "\n";

  std::string out = sep;
  append_row(out, headers_);
  out += sep;
  for (const auto& row : rows_) append_row(out, row);
  out += sep;
  return out;
}

std::string Table::ToCsv() const {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ",";
      out += row[c];
    }
    out += "\n";
  };
  append_row(headers_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

void Table::Print(const std::string& title) const {
  std::printf("\n%s\n%s", title.c_str(), ToText().c_str());
  std::fflush(stdout);
}

}  // namespace triton::util
