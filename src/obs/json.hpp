// Minimal JSON document model shared by the observability layer.
//
// One value type covers everything the instrumentation layer emits and
// consumes: the metrics-registry export, Chrome trace_event files, and the
// service's JSON-lines protocol. Two properties matter and are guaranteed
// here:
//
//   * object keys keep **insertion order** on dump(), so a document written
//     through the same code path serializes byte-identically run to run;
//   * parse() is a full round-trip partner for dump(): tests parse every
//     trace and response back and assert on structure, so a malformed
//     emitter cannot ship silently.
//
// Numbers remember whether they were integers, so counters print as "42",
// not "42.000000". This is a deliberately small JSON — no comments, no
// NaN/Inf (dumped as 0), UTF-8 passed through verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/check.hpp"

namespace hlshc::obs {

class Json {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default value is null.
  Json() = default;

  static Json boolean(bool b);
  static Json number(double v);
  static Json number(int64_t v);
  static Json number(uint64_t v);
  static Json number(int v) { return number(static_cast<int64_t>(v)); }
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // ---- scalar access (checked) -------------------------------------------

  bool as_bool() const;
  double as_number() const;
  int64_t as_int() const;
  const std::string& as_string() const;

  // ---- object access ------------------------------------------------------

  /// Insert or overwrite a key; insertion order is the dump order. Returns
  /// *this so report-building code can chain set() calls.
  Json& set(std::string key, Json value);
  /// Member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  /// Checked member lookup.
  const Json& at(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& items() const;

  // ---- array access -------------------------------------------------------

  Json& push(Json value);  ///< returns *this for chaining
  size_t size() const;     ///< elements (array) or members (object)
  const Json& operator[](size_t index) const;

  // ---- serialization ------------------------------------------------------

  /// Compact when indent < 0; pretty-printed with `indent` spaces per level
  /// otherwise. Key order is insertion order — stable by construction.
  std::string dump(int indent = -1) const;

  /// Recursive-descent parser; throws hlshc::Error with position info on
  /// malformed input. Accepts exactly what dump() produces plus arbitrary
  /// standard JSON.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool int_number_ = false;
  double num_ = 0.0;
  int64_t int_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace hlshc::obs
