#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "support/assert.hpp"

namespace conflux {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CONFLUX_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  CONFLUX_EXPECTS_MSG(cells.size() == headers_.size(),
                      "row has " << cells.size() << " cells, expected "
                                 << headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os, int indent) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  const std::string pad(static_cast<std::size_t>(indent), ' ');
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << pad;
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << std::string(width[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit_row(headers_);
  os << pad;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c], '-');
    if (c + 1 < headers_.size()) os << "  ";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string fmt(double value, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", prec, value);
  return buf;
}

std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (std::abs(bytes) >= 1000.0 && u < 5) {
    bytes /= 1000.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3g %s", bytes, units[u]);
  return buf;
}

std::string gb(double bytes) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", bytes / 1e9);
  return buf;
}

}  // namespace conflux
