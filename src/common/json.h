// The one JSON value type: it writes the harness reports and reads back
// every artifact the tools inspect (run JSON, span traces, telemetry JSONL
// lines). The string escaper and the %.12g number formatter that the
// streaming writers (tracer, telemetry pipeline) use live here as well, so
// each exists once.
//
// Purpose-built for the simulator's own artifacts; not a general JSON
// library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace protean {

/// A small JSON value: null, bool, number, string, array, object.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;  // ordered

  /// Deepest array/object nesting parse() accepts. Deeper input is an
  /// error, so a hostile file cannot exhaust the stack.
  static constexpr int kMaxDepth = 512;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  /// Parses one document; whitespace may surround it. On malformed input
  /// returns nullopt and, when `error` is non-null, a message ending in
  /// "at offset N" (a byte offset into `text`). Unknown string escapes are
  /// errors; an ASCII `\u00XX` escape decodes to its byte and any other
  /// `\u` escape to '?'.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

  /// Serializes with stable key order and round-trippable numbers.
  std::string dump(int indent = 0) const;

  // Typed views: nullptr when the value holds another kind.
  bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  const bool* as_bool() const { return std::get_if<bool>(&value_); }
  const double* as_number() const { return std::get_if<double>(&value_); }
  const std::string* as_string() const {
    return std::get_if<std::string>(&value_);
  }
  const Array* as_array() const { return std::get_if<Array>(&value_); }
  const Object* as_object() const { return std::get_if<Object>(&value_); }

  /// The number, or `fallback` when the value is not a number.
  double number_or(double fallback) const {
    const double* d = as_number();
    return d != nullptr ? *d : fallback;
  }

  /// The first member named `key`; a null value when this is not an
  /// object or has no such member.
  const Json& find(std::string_view key) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Appends `text` escaped for embedding in a JSON string (quotes not
/// included): `\" \\ \n \r \t`, and `\u00XX` for other control bytes.
void append_json_escaped(std::string& out, std::string_view text);

/// Returns `text` escaped as append_json_escaped() does.
std::string json_escape(std::string_view text);

/// Formats a number for the streaming writers: %.12g in the C locale
/// (deterministic, as nothing calls setlocale), with non-finite values
/// and -0 written as "0". %.12g keeps microsecond timestamps exact over
/// multi-hour horizons.
std::string format_double(double value);

}  // namespace protean
