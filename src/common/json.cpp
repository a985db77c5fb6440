#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace protean {
namespace {

std::string number_to_string(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", d);
  return buf;
}

void pad(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

// Recursive descent over the whole document. The first failure records its
// message and byte offset; every caller then unwinds with nullopt.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> document(std::string* error) {
    std::optional<Json> v = value(0);
    skip_ws();
    if (v && pos_ != text_.size()) {
      v = fail("trailing characters after document");
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  std::nullopt_t fail(const char* message) {
    if (error_.empty()) {
      error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> value(int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= Json::kMaxDepth) return fail("nesting too deep");
      ++pos_;
      return c == '{' ? object(depth + 1) : array(depth + 1);
    }
    if (c == '"') {
      std::optional<std::string> s = string_body();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json(nullptr);
    // strtod's number syntax in the C locale, minus hex floats. NaN and
    // infinities are rejected, so every parsed number is finite.
    double v = 0.0;
    const char* first = text_.data() + pos_;
    const auto [end, ec] =
        std::from_chars(first, text_.data() + text_.size(), v);
    if (ec == std::errc::result_out_of_range) {
      return fail("number out of range");
    }
    if (ec != std::errc{} || !std::isfinite(v)) return fail("expected value");
    pos_ += static_cast<std::size_t>(end - first);
    return Json(v);
  }

  std::optional<Json> object(int depth) {
    Json::Object out;
    if (consume('}')) return Json(std::move(out));
    while (true) {
      skip_ws();
      std::optional<std::string> key = string_body();
      if (!key) return std::nullopt;
      if (!consume(':')) return fail("expected ':' in object");
      std::optional<Json> v = value(depth);
      if (!v) return std::nullopt;
      out.emplace_back(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return Json(std::move(out));
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<Json> array(int depth) {
    Json::Array out;
    if (consume(']')) return Json(std::move(out));
    while (true) {
      std::optional<Json> v = value(depth);
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return Json(std::move(out));
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<std::string> string_body() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The writers only emit \u00XX for control bytes, so ASCII
          // decodes exactly; anything wider becomes a placeholder.
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          const char* hex = text_.data() + pos_;
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc{} || end != hex + 4) {
            return fail("bad \\u escape");
          }
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          --pos_;
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

void append_json_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == 0.0) return "0";  // normalizes -0
  // Integral fast path: most samples are counts, and %.12g renders any
  // integer below 10^12 as plain digits, so to_chars produces identical
  // bytes at a fraction of libc's float-formatting cost.
  if (value == std::floor(value) && std::fabs(value) < 1e12) {
    char buf[24];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(value));
    return std::string(buf, res.ptr);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).document(error);
}

const Json& Json::find(std::string_view key) const {
  static const Json kMissing;
  if (const Object* o = as_object()) {
    for (const auto& [k, v] : *o) {
      if (k == key) return v;
    }
  }
  return kMissing;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (const bool* b = as_bool()) {
    out += *b ? "true" : "false";
  } else if (const double* d = as_number()) {
    out += number_to_string(*d);
  } else if (const std::string* s = as_string()) {
    out += '"';
    append_json_escaped(out, *s);
    out += '"';
  } else if (const Array* a = as_array()) {
    out += '[';
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i > 0) out += ',';
      pad(out, indent, depth + 1);
      (*a)[i].dump_to(out, indent, depth + 1);
    }
    if (!a->empty()) pad(out, indent, depth);
    out += ']';
  } else if (const Object* o = as_object()) {
    out += '{';
    for (std::size_t i = 0; i < o->size(); ++i) {
      if (i > 0) out += ',';
      pad(out, indent, depth + 1);
      out += '"';
      append_json_escaped(out, (*o)[i].first);
      out += indent > 0 ? "\": " : "\":";
      (*o)[i].second.dump_to(out, indent, depth + 1);
    }
    if (!o->empty()) pad(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace protean
