#include "analysis/static/source_scan.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace parbounds::analysis::det {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Keywords that can precede a '(' without naming a function. Anything
// here never becomes a function-name candidate for token attribution.
bool control_keyword(std::string_view s) {
  static constexpr std::array<std::string_view, 14> kw = {
      "if",     "for",      "while",    "switch",       "catch",
      "return", "sizeof",   "alignof",  "decltype",     "noexcept",
      "throw",  "co_await", "co_yield", "static_assert"};
  return std::find(kw.begin(), kw.end(), s) != kw.end();
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

// Parse every `DETLINT(rule): reason` note inside one comment body.
// The first marker must be the first word of the comment (NOLINT
// convention); further markers may chain after it. Prose that quotes
// the syntax mid-sentence therefore stays inert — documentation about
// detlint can never suppress anything.
void parse_notes(std::string_view comment, std::uint32_t line,
                 std::vector<Suppression>& out) {
  std::size_t at = 0;
  bool accepted = false;
  while ((at = comment.find("DETLINT(", at)) != std::string_view::npos) {
    bool marker_ok;
    if (accepted) {
      marker_ok = std::isspace(static_cast<unsigned char>(
                      comment[at - 1])) != 0;
    } else {
      marker_ok = true;
      for (std::size_t j = 0; j < at; ++j)
        if (std::isspace(static_cast<unsigned char>(comment[j])) == 0) {
          marker_ok = false;
          break;
        }
    }
    if (!marker_ok) {
      at += 8;
      continue;
    }
    const std::size_t open = at + 7;  // index of '('
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) {
      // Unterminated note: record it with an empty rule so the linter
      // can flag the malformed suppression instead of dropping it.
      out.push_back({line, "", "", false});
      return;
    }
    Suppression s;
    s.line = line;
    s.rule = trim(comment.substr(open + 1, close - open - 1));
    std::size_t rest = close + 1;
    if (rest < comment.size() && comment[rest] == ':') {
      std::size_t end = comment.find("DETLINT(", rest);
      if (end == std::string_view::npos) end = comment.size();
      s.reason = trim(comment.substr(rest + 1, end - rest - 1));
    }
    out.push_back(std::move(s));
    accepted = true;
    at = close + 1;
  }
}

// String-literal prefixes; an identifier in this set that is
// immediately followed by '"' belongs to the literal, not the code.
bool literal_prefix(std::string_view s) {
  static constexpr std::array<std::string_view, 8> pre = {
      "u8", "u", "U", "L", "R", "u8R", "uR", "UR"};
  return std::find(pre.begin(), pre.end(), s) != pre.end();
}

class Lexer {
 public:
  Lexer(std::string path, std::string_view text)
      : text_(text) {
    out_.path = std::move(path);
  }

  ScannedFile run() {
    while (i_ < text_.size()) step();
    return std::move(out_);
  }

 private:
  void step() {
    const char c = text_[i_];
    if (c == '\n') {
      ++line_;
      ++i_;
      at_line_start_ = true;
      return;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i_;
      return;
    }
    if (c == '#' && at_line_start_) {
      skip_preprocessor();
      return;
    }
    at_line_start_ = false;
    if (c == '/' && peek(1) == '/') {
      const std::uint32_t start = line_;
      std::size_t end = text_.find('\n', i_);
      if (end == std::string_view::npos) end = text_.size();
      parse_notes(text_.substr(i_ + 2, end - i_ - 2), start,
                  out_.suppressions);
      i_ = end;
      return;
    }
    if (c == '/' && peek(1) == '*') {
      skip_block_comment();
      return;
    }
    if (c == '"') {
      skip_string(/*raw=*/false);
      return;
    }
    if (c == '\'') {
      skip_char_literal();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      skip_number();
      return;
    }
    if (ident_start(c)) {
      lex_identifier();
      return;
    }
    lex_punct();
  }

  char peek(std::size_t ahead) const {
    return i_ + ahead < text_.size() ? text_[i_ + ahead] : '\0';
  }

  void skip_preprocessor() {
    // A directive runs to the first newline not escaped by '\'.
    while (i_ < text_.size()) {
      if (text_[i_] == '\n') {
        if (i_ > 0 && text_[i_ - 1] == '\\') {
          ++line_;
          ++i_;
          continue;
        }
        return;  // the newline itself is handled by step()
      }
      // Comments inside directives still carry suppression notes.
      if (text_[i_] == '/' && peek(1) == '/') {
        std::size_t end = text_.find('\n', i_);
        if (end == std::string_view::npos) end = text_.size();
        parse_notes(text_.substr(i_ + 2, end - i_ - 2), line_,
                    out_.suppressions);
        i_ = end;
        return;
      }
      ++i_;
    }
  }

  void skip_block_comment() {
    const std::uint32_t start = line_;
    const std::size_t body = i_ + 2;
    std::size_t end = text_.find("*/", body);
    if (end == std::string_view::npos) end = text_.size();
    parse_notes(text_.substr(body, end - body), start, out_.suppressions);
    for (std::size_t j = i_; j < end; ++j)
      if (text_[j] == '\n') ++line_;
    i_ = std::min(end + 2, text_.size());
  }

  void skip_string(bool raw) {
    if (raw) {
      // R"delim( ... )delim"
      const std::size_t open = text_.find('(', i_ + 1);
      if (open == std::string_view::npos) {
        i_ = text_.size();
        return;
      }
      std::string closer = ")";
      closer += text_.substr(i_ + 1, open - i_ - 1);
      closer += '"';
      std::size_t end = text_.find(closer, open + 1);
      if (end == std::string_view::npos) end = text_.size();
      for (std::size_t j = i_; j < end && j < text_.size(); ++j)
        if (text_[j] == '\n') ++line_;
      i_ = std::min(end + closer.size(), text_.size());
      return;
    }
    ++i_;  // opening quote
    while (i_ < text_.size()) {
      const char c = text_[i_];
      if (c == '\\') {
        i_ += 2;
        continue;
      }
      if (c == '\n') ++line_;  // ill-formed, but keep line counts sane
      ++i_;
      if (c == '"') return;
    }
  }

  void skip_char_literal() {
    ++i_;
    while (i_ < text_.size()) {
      const char c = text_[i_];
      if (c == '\\') {
        i_ += 2;
        continue;
      }
      ++i_;
      if (c == '\'' || c == '\n') return;
    }
  }

  void skip_number() {
    // pp-number: digits, letters, '_', '\'', and exponent signs. None
    // of the rules care about numeric values, so they are not emitted.
    while (i_ < text_.size()) {
      const char c = text_[i_];
      if (ident_char(c) || c == '\'' || c == '.') {
        ++i_;
        continue;
      }
      if ((c == '+' || c == '-') && i_ > 0 &&
          (text_[i_ - 1] == 'e' || text_[i_ - 1] == 'E' ||
           text_[i_ - 1] == 'p' || text_[i_ - 1] == 'P')) {
        ++i_;
        continue;
      }
      return;
    }
  }

  void lex_identifier() {
    const std::size_t b = i_;
    while (i_ < text_.size() && ident_char(text_[i_])) ++i_;
    std::string id(text_.substr(b, i_ - b));
    if (i_ < text_.size() && text_[i_] == '"' && literal_prefix(id)) {
      skip_string(/*raw=*/id.back() == 'R');
      return;
    }
    emit(std::move(id), /*ident=*/true);
  }

  void lex_punct() {
    // '->' and '::' surface as single tokens; everything else is one
    // character. That is all the structure the rules need.
    if (text_[i_] == '-' && peek(1) == '>') {
      emit("->", false);
      i_ += 2;
      return;
    }
    if (text_[i_] == ':' && peek(1) == ':') {
      emit("::", false);
      i_ += 2;
      return;
    }
    emit(std::string(1, text_[i_]), false);
    ++i_;
  }

  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t j = 0; j < out_.functions.size(); ++j)
      if (out_.functions[j] == name) return j;
    out_.functions.push_back(name);
    return static_cast<std::uint32_t>(out_.functions.size() - 1);
  }

  std::uint32_t current_fn() const {
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it)
      if (*it != Token::kNoFn) return *it;
    return Token::kNoFn;
  }

  void emit(std::string text, bool ident) {
    Token t;
    t.line = line_;
    t.ident = ident;
    t.fn = current_fn();
    t.text = text;
    track_function(t);
    out_.tokens.push_back(std::move(t));
  }

  // ctags-style function attribution: remember the identifier that
  // opens a top-level parameter list; when the matching ')' is later
  // followed by '{', that identifier names the new brace frame.
  void track_function(const Token& t) {
    if (t.ident) {
      prev_ident_ = control_keyword(t.text) ? std::string() : t.text;
      return;
    }
    if (t.text == "(") {
      if (paren_depth_ == 0) {
        candidate_ = prev_ident_;
        armed_ = false;
      }
      ++paren_depth_;
    } else if (t.text == ")") {
      if (paren_depth_ > 0) --paren_depth_;
      if (paren_depth_ == 0 && !candidate_.empty()) armed_ = true;
    } else if (t.text == ";") {
      if (paren_depth_ == 0) {
        candidate_.clear();
        armed_ = false;
      }
    } else if (t.text == "{") {
      frames_.push_back(armed_ ? intern(candidate_) : Token::kNoFn);
      candidate_.clear();
      armed_ = false;
    } else if (t.text == "}") {
      if (!frames_.empty()) frames_.pop_back();
    }
    prev_ident_.clear();
  }

  std::string_view text_;
  ScannedFile out_;
  std::size_t i_ = 0;
  std::uint32_t line_ = 1;
  bool at_line_start_ = true;

  // function-attribution state
  std::string prev_ident_;
  std::string candidate_;
  bool armed_ = false;
  int paren_depth_ = 0;
  std::vector<std::uint32_t> frames_;
};

}  // namespace

ScannedFile scan_source(std::string path, std::string_view text) {
  return Lexer(std::move(path), text).run();
}

}  // namespace parbounds::analysis::det
