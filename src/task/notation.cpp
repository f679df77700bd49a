#include "src/task/notation.hpp"

#include <charconv>
#include <sstream>

namespace sda::task {

namespace {

// ASCII-exact classifiers (the grammar is ASCII; bytes >= 0x80 are neither
// space nor name characters, matching <cctype> in the classic locale) —
// inlined, unlike the locale-table calls they replace on this hot path.
constexpr bool is_space_ascii(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}
constexpr bool is_digit_ascii(char c) noexcept { return c >= '0' && c <= '9'; }
constexpr bool is_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         is_digit_ascii(c) || c == '_' || c == '-' || c == '.';
}

/// Recursive-descent parser over the notation grammar.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  TreePtr parse() {
    skip_ws();
    TreePtr t = parse_task();
    skip_ws();
    if (pos_ != text_.size()) {
      throw NotationError("trailing input after task", pos_);
    }
    return t;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && is_space_ascii(text_[pos_])) {
      ++pos_;
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool at_parallel_sep() const {
    return pos_ + 1 < text_.size() && text_[pos_] == '|' &&
           text_[pos_ + 1] == '|';
  }

  TreePtr parse_task() {
    skip_ws();
    if (pos_ >= text_.size()) throw NotationError("unexpected end of input", pos_);
    if (at('[')) return parse_composite();
    return parse_leaf();
  }

  TreePtr parse_composite() {
    const std::size_t open = pos_;
    ++pos_;  // consume '['
    std::vector<TreePtr> children;
    children.reserve(4);  // covers typical fan-outs without realloc churn
    children.push_back(parse_task());
    skip_ws();

    // The first separator decides serial vs parallel for this level.
    const bool parallel = at_parallel_sep();
    while (true) {
      skip_ws();
      if (at(']')) {
        ++pos_;
        break;
      }
      if (pos_ >= text_.size()) {
        throw NotationError("unclosed '['", open);
      }
      if (parallel) {
        if (!at_parallel_sep()) {
          throw NotationError("expected '||' between parallel subtasks", pos_);
        }
        pos_ += 2;
      } else if (at_parallel_sep()) {
        throw NotationError(
            "mixed serial/parallel at one level; nest with brackets", pos_);
      }
      children.push_back(parse_task());
    }
    if (children.size() == 1) {
      // [X] is just X: collapse the trivial composite.
      return std::move(children.front());
    }
    return parallel ? make_parallel(std::move(children))
                    : make_serial(std::move(children));
  }

  TreePtr parse_leaf() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    // Single substring assignment (SSO for typical short names) instead of
    // growing character by character.
    std::string name(text_, start, pos_ - start);
    if (name.empty()) {
      throw NotationError(std::string("expected task name, found '") +
                              (pos_ < text_.size() ? std::string(1, text_[pos_])
                                                   : std::string("<eof>")) +
                              "'",
                          start);
    }
    int exec_node = -1;
    double ex = 0.0, pex = -1.0;
    if (at('@')) {
      ++pos_;
      exec_node = static_cast<int>(parse_number("node index"));
    }
    if (at(':')) {
      ++pos_;
      ex = parse_number("execution time");
      if (at('/')) {
        ++pos_;
        pex = parse_number("predicted execution time");
      }
    }
    return make_leaf(exec_node, ex, pex, std::move(name));
  }

  double parse_number(const char* what) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (is_digit_ascii(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
          (c == '-' && pos_ == start)) {
        ++pos_;
      } else {
        break;
      }
    }
    // Straight off the input buffer, allocation-free.  from_chars takes no
    // leading '+', so skip one: "+1.5" is 1.5, while "++1" and "+-1" leave
    // a rest that is not one whole number and stay malformed.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (first != last && *first == '+') ++first;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last) {
      throw NotationError(std::string("malformed ") + what, start);
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void print(const TreeNode& t, bool with_attrs, std::ostringstream& os) {
  if (t.is_leaf()) {
    os << (t.name.empty() ? "T" : t.name);
    if (with_attrs) {
      if (t.exec_node >= 0) os << '@' << t.exec_node;
      os << ':' << t.exec_time << '/' << t.pred_exec;
    }
    return;
  }
  os << '[';
  for (std::size_t i = 0; i < t.children.size(); ++i) {
    if (i) os << (t.is_parallel() ? " || " : " ");
    print(*t.children[i], with_attrs, os);
  }
  os << ']';
}

}  // namespace

TreePtr parse_notation(const std::string& text) {
  return Parser(text).parse();
}

std::string to_notation(const TreeNode& t, bool with_attrs) {
  std::ostringstream os;
  print(t, with_attrs, os);
  return os.str();
}

}  // namespace sda::task
