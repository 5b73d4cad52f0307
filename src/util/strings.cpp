#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace slmob {

std::vector<std::string> split(std::string_view input, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view input) {
  std::size_t begin = 0;
  std::size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) --end;
  return input.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

long long parse_non_negative_int(std::string_view text) {
  text = trim(text);
  long long value = 0;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || value < 0) return -1;
  return value;
}

double parse_positive_double(std::string_view text) {
  double value = 0.0;
  const auto* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || !std::isfinite(value) || value <= 0.0) return -1.0;
  return value;
}

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  text = trim(text);
  T value{};
  const auto* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> parse_double(std::string_view text) { return parse_whole<double>(text); }

std::optional<std::uint32_t> parse_u32(std::string_view text) {
  return parse_whole<std::uint32_t>(text);
}

}  // namespace slmob
