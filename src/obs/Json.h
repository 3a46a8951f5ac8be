//===- obs/Json.h - Minimal JSON writer and parser --------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough JSON for run reports: a streaming writer that always emits
/// valid documents (escaping, comma placement) and a small recursive-
/// descent parser used by tests and tools to check reports round-trip.
/// No external dependency; the grammar subset is objects, arrays, strings,
/// numbers, booleans and null — all a report needs.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_OBS_JSON_H
#define NARADA_OBS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace narada {
namespace obs {

/// Builds a JSON document incrementally.  The caller supplies structure
/// (object/array begin-end pairs); the writer handles quoting, escaping
/// and separators.
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits the key of the next member (only valid inside an object).
  JsonWriter &key(std::string_view Key);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(uint64_t N);
  JsonWriter &value(int64_t N);
  JsonWriter &value(double D);
  JsonWriter &value(bool B);
  JsonWriter &null();

  /// The finished document.
  const std::string &str() const { return Out; }

private:
  void separate(); ///< Emits "," between siblings.

  std::string Out;
  std::vector<bool> NeedComma; ///< One flag per open container.
  bool AfterKey = false;
};

/// Escapes \p S for embedding in a JSON string literal (no quotes added).
std::string jsonEscape(std::string_view S);

/// A parsed JSON value (tests + tools only; not a speed path).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool BoolVal = false;
  double NumberVal = 0.0;
  std::string StringVal;
  std::vector<JsonValue> Elements;
  std::map<std::string, JsonValue> Members;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }

  /// Member lookup; null when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
  /// Dotted-path lookup ("phases.pipeline.seconds" style is NOT split on
  /// metric-name dots — each path element is one member name).
  const JsonValue *at(std::initializer_list<const char *> Path) const;
  double numberOr(double Default) const {
    return isNumber() ? NumberVal : Default;
  }
};

/// The deepest array and object nesting parseJson() accepts.  Run reports
/// and bench trajectories nest five levels; the parser recurses once per
/// level, so a bound keeps a hostile document from exhausting the stack.
inline constexpr unsigned MaxJsonNesting = 512;

/// Parses \p Text; empty optional on malformed input (trailing garbage and
/// nesting deeper than MaxJsonNesting included).
std::optional<JsonValue> parseJson(std::string_view Text);

} // namespace obs
} // namespace narada

#endif // NARADA_OBS_JSON_H
