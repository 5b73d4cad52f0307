// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slmob {

// Splits `input` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> split(std::string_view input, char delim);

// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view input);

bool starts_with(std::string_view text, std::string_view prefix);

// Case-insensitive ASCII comparison (for HTTP header names).
bool iequals(std::string_view a, std::string_view b);

// Parses a non-negative integer; returns -1 on malformed input.
long long parse_non_negative_int(std::string_view text);

// Parses a positive finite decimal spanning all of `text`; returns -1 on
// anything else.
double parse_positive_double(std::string_view text);

// Parse all of `text` (surrounding ASCII whitespace aside) with
// std::from_chars; nullopt on anything else. parse_double also takes
// "inf" and "nan"; parse_u32 takes decimal digits only, in [0, 2^32).
std::optional<double> parse_double(std::string_view text);
std::optional<std::uint32_t> parse_u32(std::string_view text);

}  // namespace slmob
