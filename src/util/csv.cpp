#include "util/csv.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace slmob {

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    if (f.find_first_of(",\"\n\r") != std::string::npos) {
      throw std::invalid_argument("CsvWriter: field needs quoting, which is unsupported: " + f);
    }
    if (i > 0) out_ << ',';
    out_ << f;
  }
  out_ << '\n';
}

void for_each_csv_row(
    std::string_view text,
    const std::function<void(std::size_t line, const std::vector<std::string_view>& fields)>& row) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  std::size_t line_no = 1;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!trim(line).empty()) {
        fields.clear();
        for (std::size_t from = 0;;) {
          const std::size_t comma = line.find(',', from);
          fields.push_back(line.substr(from, comma - from));
          if (comma == std::string_view::npos) break;
          from = comma + 1;
        }
        row(line_no, fields);
      }
      start = i + 1;
      ++line_no;
    }
  }
}

}  // namespace slmob
