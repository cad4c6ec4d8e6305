/// \file cli.hpp
/// Strict number parsing shared by the command-line tools: the whole token
/// must be a number and within range, or the parse throws
/// std::invalid_argument, which each tool reports as a usage error (exit 2).
/// `std::stoi` would accept "128x" as 128.
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

/// A comma-separated list of integers, each parsed by parse_number.
[[nodiscard]] inline std::vector<int> parse_int_list(const std::string& s,
                                                     int min) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(parse_number(item, min));
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

}  // namespace conflux::cli
