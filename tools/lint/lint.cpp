#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string_view>

namespace slmob::lint {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class Kind { kIdent, kNumber, kString, kPunct };

struct Tok {
  Kind kind;
  std::string text;
  int line;
  int col;
};

// A suppression comment, parsed from `// slmob-lint: allow(a, b) -- why`.
struct Allow {
  std::vector<std::string> rules;
  bool justified{false};
  std::string justification;
  int line{0};
  bool alone{false};  // comment is the only thing on its line
};

struct Scan {
  std::vector<Tok> tokens;
  std::vector<Allow> allows;
  std::vector<int> alloc_free_lines;  // lines carrying `slmob:alloc-free`
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

std::string trim(std::string s) {
  const auto notspace = [](unsigned char c) { return std::isspace(c) == 0; };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), notspace));
  s.erase(std::find_if(s.rbegin(), s.rend(), notspace).base(), s.end());
  return s;
}

// Parses the body of a suppression comment. `tokens_on_line` tells whether
// any code token precedes the comment on its line (trailing style) or the
// comment stands alone (applies to the next line instead).
void parse_comment(const std::string& text, int line, bool alone, Scan& out) {
  // The marker must open the comment body; doc examples that quote the
  // syntax behind a nested `//` or prose are not live suppressions.
  std::size_t body = 0;
  if (text.size() >= 2 && (text.compare(0, 2, "//") == 0 || text.compare(0, 2, "/*") == 0)) {
    body = 2;
  }
  while (body < text.size() && std::isspace(static_cast<unsigned char>(text[body])) != 0) {
    ++body;
  }
  if (text.compare(body, 16, "slmob:alloc-free") == 0) {
    out.alloc_free_lines.push_back(line);
  }
  if (text.compare(body, 11, "slmob-lint:") != 0) return;
  const std::size_t tag = body;
  Allow allow;
  allow.line = line;
  allow.alone = alone;
  const std::size_t open = text.find("allow(", tag);
  if (open != std::string::npos) {
    const std::size_t close = text.find(')', open);
    if (close != std::string::npos) {
      std::string list = text.substr(open + 6, close - open - 6);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string rule = trim(list.substr(pos, comma - pos));
        if (!rule.empty()) allow.rules.push_back(rule);
        pos = comma + 1;
      }
      const std::size_t dash = text.find("--", close);
      if (dash != std::string::npos) {
        allow.justification = trim(text.substr(dash + 2));
        allow.justified = !allow.justification.empty();
      }
    }
  }
  out.allows.push_back(std::move(allow));
}

Scan tokenize(const std::string& text) {
  Scan out;
  int line = 1;
  int col = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  int last_token_line = 0;  // for deciding whether a comment stands alone

  const auto advance = [&](std::size_t k) {
    for (std::size_t j = 0; j < k && i < n; ++j, ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };

  while (i < n) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const int at = line;
      const bool alone = last_token_line != line;
      std::size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_comment(text.substr(i, end - i), at, alone, out);
      advance(end - i);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int at = line;
      const bool alone = last_token_line != line;
      std::size_t end = text.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      parse_comment(text.substr(i, end - i), at, alone, out);
      advance(end - i);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && text[p] != '(') delim += text[p++];
      const std::string closer = ")" + delim + "\"";
      std::size_t end = text.find(closer, p);
      end = end == std::string::npos ? n : end + closer.size();
      out.tokens.push_back({Kind::kString, "<raw-string>", line, col});
      last_token_line = line;
      advance(end - i);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t p = i + 1;
      while (p < n && text[p] != quote) {
        p += text[p] == '\\' ? 2u : 1u;
      }
      out.tokens.push_back({Kind::kString, "<string>", line, col});
      last_token_line = line;
      advance(std::min(p + 1, n) - i);
      continue;
    }
    if (ident_start(c)) {
      std::size_t p = i + 1;
      while (p < n && ident_char(text[p])) ++p;
      out.tokens.push_back({Kind::kIdent, text.substr(i, p - i), line, col});
      last_token_line = line;
      advance(p - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0)) {
      // pp-number: digits, idents, dots, and exponent signs.
      std::size_t p = i + 1;
      while (p < n) {
        const char d = text[p];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++p;
        } else if ((d == '+' || d == '-') &&
                   (text[p - 1] == 'e' || text[p - 1] == 'E' || text[p - 1] == 'p' ||
                    text[p - 1] == 'P')) {
          ++p;
        } else {
          break;
        }
      }
      out.tokens.push_back({Kind::kNumber, text.substr(i, p - i), line, col});
      last_token_line = line;
      advance(p - i);
      continue;
    }
    // `::` folds into one token so qualification checks are single lookups.
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      out.tokens.push_back({Kind::kPunct, "::", line, col});
      last_token_line = line;
      advance(2);
      continue;
    }
    if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      out.tokens.push_back({Kind::kPunct, "->", line, col});
      last_token_line = line;
      advance(2);
      continue;
    }
    out.tokens.push_back({Kind::kPunct, std::string(1, c), line, col});
    last_token_line = line;
    advance(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule scoping
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h");
}

// The only sanctioned wall-clock entry point (see DESIGN.md §16). Bench
// timing harnesses measure real elapsed time by design and are allowlisted
// as a path; everything else reaches the clock through util/wallclock.hpp.
bool wall_clock_allowed(const std::string& path) {
  return path == "src/util/wallclock.hpp" || starts_with(path, "bench/");
}

bool in_ordered_iteration_scope(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "tools/");
}

bool in_float_scope(const std::string& path) { return starts_with(path, "src/"); }

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const std::set<std::string>& clock_idents() {
  static const std::set<std::string> kClocks = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "timespec_get",
      "localtime",     "gmtime",       "mktime"};
  return kClocks;
}

const std::set<std::string>& durability_idents() {
  static const std::set<std::string> kCalls = {"fwrite", "fflush", "fsync", "fdatasync",
                                               "fclose"};
  return kCalls;
}

const std::set<std::string>& alloc_idents() {
  static const std::set<std::string> kAlloc = {
      "push_back", "emplace_back", "emplace",     "emplace_front", "insert",
      "resize",    "reserve",      "make_unique", "make_shared",   "malloc",
      "calloc",    "realloc",      "strdup",      "new"};
  return kAlloc;
}

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> kTypes = {"unordered_map", "unordered_set",
                                               "unordered_multimap",
                                               "unordered_multiset"};
  return kTypes;
}

struct Ctx {
  const std::string& path;
  const std::vector<Tok>& toks;
  std::vector<Finding>& findings;

  void add(const Tok& at, std::string rule, std::string message) const {
    findings.push_back(
        {path, at.line, at.col, std::move(rule), std::move(message), false, {}});
  }
};

// Index of the matching close paren/brace for the opener at `open`.
// Returns toks.size() when unbalanced (torn fixture); callers stop there.
std::size_t match_forward(const std::vector<Tok>& toks, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Kind::kPunct) continue;
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer && --depth == 0) return i;
  }
  return toks.size();
}

// True when token i is qualified as std::<name> (or ::<name> at global
// scope) rather than a member or a name in some other namespace.
bool std_qualified(const std::vector<Tok>& toks, std::size_t i) {
  if (i < 1 || toks[i - 1].text != "::") return false;
  return i < 2 || toks[i - 2].text == "std" || toks[i - 2].kind == Kind::kPunct;
}

bool member_access(const std::vector<Tok>& toks, std::size_t i) {
  return i >= 1 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

void check_determinism(const Ctx& c) {
  const auto& toks = c.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "random_device") {
      c.add(toks[i], "determinism/random-device",
            "std::random_device is non-deterministic; seed a slmob RNG instead");
      continue;
    }
    if ((t == "rand" || t == "srand") && i + 1 < toks.size() && toks[i + 1].text == "(" &&
        !member_access(toks, i)) {
      if (i >= 1 && toks[i - 1].text == "::" && !std_qualified(toks, i)) continue;
      c.add(toks[i], "determinism/libc-rand",
            t + "() uses hidden global state; use a seeded slmob RNG");
      continue;
    }
    if (wall_clock_allowed(c.path)) continue;
    if (clock_idents().contains(t)) {
      c.add(toks[i], "determinism/wall-clock",
            t + " reads the wall clock; go through util/wallclock.hpp (the only "
                "sanctioned entry point) so simulation stays replayable");
      continue;
    }
    if (t == "time" && i + 1 < toks.size() && toks[i + 1].text == "(" &&
        std_qualified(toks, i)) {
      c.add(toks[i], "determinism/wall-clock",
            "time() reads the wall clock; go through util/wallclock.hpp");
    }
  }
}

void check_ordered_iteration(const Ctx& c) {
  if (!in_ordered_iteration_scope(c.path)) return;
  const auto& toks = c.toks;

  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent || !unordered_types().contains(toks[i].text)) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" || toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Kind::kIdent) {
      unordered_names.insert(toks[j].text);
    }
  }

  // Pass 2: range-for statements whose range expression names one of them.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent || toks[i].text != "for" || toks[i + 1].text != "(") {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    // Find the range-for `:` at depth 1 (``::`` is a distinct token).
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")") --depth;
      if (depth == 1 && toks[j].kind == Kind::kPunct && toks[j].text == ":") {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind != Kind::kIdent) continue;
      if (unordered_names.contains(toks[j].text) ||
          unordered_types().contains(toks[j].text)) {
        c.add(toks[i], "ordered-iteration/unordered-range-for",
              "range-for over unordered container '" + toks[j].text +
                  "': iteration order is implementation-defined and must not reach "
                  "traces, reports, CSV or journal frames — sort first or justify");
        break;
      }
    }
  }
}

void check_checked_durability(const Ctx& c) {
  const auto& toks = c.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent || !durability_idents().contains(toks[i].text)) {
      continue;
    }
    if (toks[i + 1].text != "(") continue;
    if (member_access(toks, i)) continue;  // some_obj.fflush(...) is not libc
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close + 1 >= toks.size() || toks[close + 1].text != ";") continue;
    // Walk back over std:: qualification to the statement context.
    std::size_t k = i;
    if (k >= 1 && toks[k - 1].text == "::") k = k >= 2 ? k - 2 : 0;
    const bool discarded =
        k == 0 || toks[k - 1].text == ";" || toks[k - 1].text == "{" ||
        toks[k - 1].text == "}" || toks[k - 1].text == ")" ||
        toks[k - 1].text == ":" || toks[k - 1].text == "else";
    if (discarded) {
      c.add(toks[i], "checked-durability/discarded-result",
            "result of " + toks[i].text +
                "() is discarded; durability I/O errors must be checked (a full "
                "disk silently truncates the artefact) — check or justify");
    }
  }
}

void check_alloc_free(const Ctx& c, const std::vector<int>& regions) {
  const auto& toks = c.toks;
  for (const int anno_line : regions) {
    // The annotated function's body is the first brace block at or after
    // the annotation line.
    std::size_t open = toks.size();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind == Kind::kPunct && toks[i].text == "{" && toks[i].line >= anno_line) {
        open = i;
        break;
      }
    }
    if (open >= toks.size()) continue;
    const std::size_t close = match_forward(toks, open, "{", "}");
    for (std::size_t i = open + 1; i < close && i < toks.size(); ++i) {
      if (toks[i].kind != Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      if (alloc_idents().contains(t) && !(t == "new" && member_access(toks, i))) {
        c.add(toks[i], "alloc-free/allocation",
              "'" + t + "' inside a slmob:alloc-free region; this path is gated "
                        "allocation-free by the WarmPath ctest — hoist the "
                        "allocation out of the hot path or justify (e.g. capacity "
                        "retained across calls)");
        continue;
      }
      if (t == "function" && std_qualified(toks, i)) {
        c.add(toks[i], "alloc-free/allocation",
              "std::function construction may heap-allocate inside a "
              "slmob:alloc-free region; use a function pointer or template");
      }
    }
  }
}

void check_float_determinism(const Ctx& c) {
  if (!in_float_scope(c.path)) return;
  const auto& toks = c.toks;
  const auto is_float_literal = [](const Tok& t) {
    if (t.kind != Kind::kNumber) return false;
    if (starts_with(t.text, "0x") || starts_with(t.text, "0X")) return false;
    return t.text.find('.') != std::string::npos ||
           t.text.find('e') != std::string::npos ||
           t.text.find('E') != std::string::npos || ends_with(t.text, "f") ||
           ends_with(t.text, "F");
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "accumulate" && toks[i + 1].text == "(" && !member_access(toks, i)) {
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (is_float_literal(toks[j])) {
          c.add(toks[i], "float-determinism/accumulate",
                "std::accumulate over floats: the sum depends on element order, "
                "which must be canonical (sorted) before reduction — sort first "
                "or justify");
          break;
        }
      }
      continue;
    }
    if ((t == "reduce" || t == "transform_reduce") && std_qualified(toks, i) &&
        toks[i + 1].text == "(") {
      c.add(toks[i], "float-determinism/unordered-reduce",
            "std::" + t + " has unspecified operand order; analysis kernels must "
                          "reduce in a canonical order (use std::accumulate over "
                          "sorted data)");
      continue;
    }
    if (t == "execution" && std_qualified(toks, i)) {
      c.add(toks[i], "float-determinism/unordered-reduce",
            "std::execution policies make evaluation order unspecified; use the "
            "ThreadPool fan-out with deterministic merge instead");
    }
  }
}

void check_header_hygiene(const Ctx& c, const std::string& text) {
  if (!is_header(c.path)) return;
  // Directive scan is line-anchored so a comment that merely mentions
  // "#pragma once" does not count as a guard.
  bool pragma_once = false;
  bool saw_ifndef = false;
  bool guard = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::size_t i = pos;
    while (i < eol && (text[i] == ' ' || text[i] == '\t')) ++i;
    const std::string_view line(text.data() + i, eol - i);
    if (line.rfind("#pragma", 0) == 0 && line.find("once") != std::string_view::npos) {
      pragma_once = true;
    } else if (line.rfind("#ifndef", 0) == 0) {
      saw_ifndef = true;
    } else if (saw_ifndef && line.rfind("#define", 0) == 0) {
      guard = true;
    }
    pos = eol + 1;
  }
  if (!pragma_once && !guard) {
    c.findings.push_back({c.path, 1, 1, "header-hygiene/missing-include-guard",
                          "header has neither #pragma once nor an include guard", false,
                          {}});
  }
  const auto& toks = c.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == Kind::kIdent && toks[i].text == "using" &&
        toks[i + 1].text == "namespace") {
      c.add(toks[i], "header-hygiene/using-namespace-header",
            "'using namespace' in a header leaks into every includer");
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression application
// ---------------------------------------------------------------------------

bool allow_matches(const Allow& allow, const std::string& rule) {
  const std::string family = rule.substr(0, rule.find('/'));
  for (const auto& r : allow.rules) {
    if (r == rule || r == family) return true;
  }
  return false;
}

void apply_allows(const std::string& path, const std::vector<Allow>& allows,
                  std::vector<Finding>& findings) {
  for (auto& f : findings) {
    if (f.path != path) continue;
    for (const auto& allow : allows) {
      const bool same_line = allow.line == f.line;
      const bool line_above = allow.alone && allow.line == f.line - 1;
      if ((same_line || line_above) && allow_matches(allow, f.rule) && allow.justified) {
        f.suppressed = true;
        f.justification = allow.justification;
        break;
      }
    }
  }
  for (const auto& allow : allows) {
    if (allow.rules.empty()) {
      findings.push_back({path, allow.line, 1, "lint/malformed-suppression",
                          "slmob-lint comment without an allow(<rule>) clause", false,
                          {}});
      continue;
    }
    if (!allow.justified) {
      findings.push_back(
          {path, allow.line, 1, "lint/missing-justification",
           "suppression without a justification: write `allow(<rule>) -- <why this "
           "site is safe>`",
           false,
           {}});
    }
    for (const auto& r : allow.rules) {
      bool known = false;
      for (const auto& k : known_rules()) {
        if (k == r || starts_with(k, r + "/")) {
          known = true;
          break;
        }
      }
      if (!known) {
        findings.push_back({path, allow.line, 1, "lint/unknown-rule",
                            "allow() names unknown rule '" + r + "'", false, {}});
      }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "alloc-free/allocation",
      "checked-durability/discarded-result",
      "determinism/libc-rand",
      "determinism/random-device",
      "determinism/wall-clock",
      "float-determinism/accumulate",
      "float-determinism/unordered-reduce",
      "header-hygiene/missing-include-guard",
      "header-hygiene/using-namespace-header",
      "lint/malformed-suppression",
      "lint/missing-justification",
      "lint/unknown-rule",
      "ordered-iteration/unordered-range-for",
  };
  return kRules;
}

bool should_scan(const std::string& path) {
  if (path.find("lint_fixtures") != std::string::npos) return false;
  if (starts_with(path, "build")) return false;
  return ends_with(path, ".cpp") || ends_with(path, ".hpp") || ends_with(path, ".cc") ||
         ends_with(path, ".h");
}

LintResult lint_sources(const std::vector<SourceFile>& sources) {
  LintResult result;
  for (const auto& src : sources) {
    ++result.files_scanned;
    const Scan scan = tokenize(src.text);
    std::vector<Finding> file_findings;
    Ctx ctx{src.path, scan.tokens, file_findings};
    check_determinism(ctx);
    check_ordered_iteration(ctx);
    check_checked_durability(ctx);
    check_alloc_free(ctx, scan.alloc_free_lines);
    check_float_determinism(ctx);
    check_header_hygiene(ctx, src.text);
    apply_allows(src.path, scan.allows, file_findings);
    for (auto& f : file_findings) result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
  return result;
}

LintResult lint_source(const std::string& path, const std::string& text) {
  return lint_sources({{path, text}});
}

std::string findings_to_json(const LintResult& result) {
  std::ostringstream os;
  os << "{\n  \"files_scanned\": " << result.files_scanned << ",\n";
  os << "  \"unsuppressed\": " << result.unsuppressed() << ",\n";
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(f.path) << "\", \"line\": " << f.line
       << ", \"col\": " << f.col << ", \"rule\": \"" << json_escape(f.rule)
       << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
       << ", \"message\": \"" << json_escape(f.message) << "\"";
    if (f.suppressed) {
      os << ", \"justification\": \"" << json_escape(f.justification) << "\"";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace slmob::lint
