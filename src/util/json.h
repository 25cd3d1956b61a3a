// Streaming JSON writer for the benchmark-reporting layer.
//
// The output is the *canonical* serialization the regression gate
// (tools/bench_regress.py) diffs byte-for-byte against committed baselines,
// so everything about it is deterministic: keys appear in call order,
// numbers use the shortest round-trip representation (std::to_chars, locale
// independent), and the pretty-printing (2-space indent, one value per
// line) never depends on the environment. Non-finite doubles have no JSON
// number representation; they are emitted as the quoted strings "NaN",
// "Infinity" and "-Infinity" to keep the document parseable everywhere.
//
// Usage:
//   util::JsonWriter w;
//   w.BeginObject();
//   w.Key("points");
//   w.BeginArray();
//   ...
//   w.EndArray();
//   w.EndObject();
//   std::string doc = w.str();  // complete document, trailing newline

#ifndef TRITON_UTIL_JSON_H_
#define TRITON_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace triton::util {

/// Builds one JSON document incrementally; CHECK-fails on malformed use
/// (value without key inside an object, str() with open containers, ...).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes the key for the next value; only valid inside an object.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(int64_t value);
  void Uint(uint64_t value);
  void Double(double value);
  void Bool(bool value);

  /// The finished document (all containers closed), ending in '\n'.
  const std::string& str();

  /// Escapes `raw` for inclusion in a JSON string literal (no quotes).
  static std::string Escape(std::string_view raw);

  /// Deterministic number formatting: shortest representation that parses
  /// back to the same double (finite input only).
  static std::string FormatDouble(double value);

 private:
  struct Scope {
    bool is_object = false;
    size_t values = 0;
    bool key_pending = false;
  };

  /// Emits the comma/newline/indent before a value (or key) and validates
  /// that a value is legal here.
  void BeforeValue();
  void Indent();
  void Raw(std::string_view text) { out_.append(text); }

  std::string out_;
  std::vector<Scope> stack_;
  bool done_ = false;
};

}  // namespace triton::util

#endif  // TRITON_UTIL_JSON_H_
