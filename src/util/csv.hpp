// Minimal CSV reading/writing for trace import/export and bench output.
// Fields never contain commas or quotes in our formats, so no quoting layer
// is implemented; the writer rejects fields that would need it.
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace slmob {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  // Writes one row; throws std::invalid_argument if a field contains a comma,
  // quote or newline.
  void row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
};

// Calls `row(line, fields)` for each non-blank line of `text`, in order;
// `line` is 1-based and a trailing '\r' is dropped. The fields view `text`.
void for_each_csv_row(
    std::string_view text,
    const std::function<void(std::size_t line, const std::vector<std::string_view>& fields)>& row);

}  // namespace slmob
