// Minimal JSON reader for the tools that consume our own exporters'
// output (metrics JSON, bench reports).
//
// The repo deliberately carries no third-party JSON dependency: the
// writers (parix/metrics.cpp, bench_engine_wall.cpp, with
// support/fields.h's JsonObject for the counter blocks) emit JSON by
// hand, and this is the matching hand-rolled reader -- a small
// recursive-descent parser over the full JSON grammar, returning a
// tagged tree.  It favours clarity over speed; the inputs are
// kilobyte-scale reports, not data planes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace skil::support::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered (objects round-trip in writer order).
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Object member access; throws ContractError when absent.
  const Value& at(std::string_view key) const;

  /// Numeric member with a default for absent keys; throws when the
  /// member exists but is not a number.
  double num(std::string_view key, double fallback = 0.0) const;
};

/// Parses one JSON document (throws ContractError on malformed input
/// or trailing garbage).
Value parse(std::string_view text);

}  // namespace skil::support::json
