/// \file cli.hpp
/// Strict argument parsing shared by the command-line tools and the figure
/// benches: a number must be whole and within range, and a list must have
/// no empty item, or the parse throws std::invalid_argument, which each
/// program reports as a usage error (exit 2). `std::stoi` would accept
/// "128x" as 128.
#pragma once

#include <charconv>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace conflux::cli {

/// `token` parsed whole as a number of type T, rejected below `min`.
template <typename T>
[[nodiscard]] T parse_number(const std::string& token, T min) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end || value < min)
    throw std::invalid_argument("bad number '" + token + "'");
  return value;
}

/// A comma-separated list of non-empty names ("COnfLUX,CALU").
[[nodiscard]] inline std::vector<std::string> parse_name_list(
    const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) throw std::invalid_argument("empty item in '" + s + "'");
    out.push_back(item);
  }
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

/// A comma-separated list of integers, each parsed by parse_number.
[[nodiscard]] inline std::vector<int> parse_int_list(const std::string& s,
                                                     int min) {
  std::vector<int> out;
  for (const std::string& item : parse_name_list(s))
    out.push_back(parse_number(item, min));
  return out;
}

}  // namespace conflux::cli
