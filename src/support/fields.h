// Field tables: one declaration per counter.
//
// A counter struct lists its counters once, in a static constexpr
// `fields()` table of (JSON name, member pointer) entries written next
// to the members, in report order.  Sums and the JSON objects of the
// metrics and BENCH reports derive from that table, so adding a
// counter is one member plus one table entry (DESIGN.md section 17).
#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

namespace skil::support {

/// One table entry: a counter's JSON key and its member.
template <class S, class T>
struct Field {
  std::string_view name;
  T S::*member;
};

/// Calls visit(name, value) for every table entry of `s`, in order.
template <class S, class Visit>
void for_each(S& s, Visit&& visit) {
  for (const auto& f : std::remove_const_t<S>::fields())
    visit(f.name, s.*f.member);
}

/// Adds every counter of `from` into `into`.
template <class S>
S& add(S& into, const S& from) {
  for (const auto& f : S::fields()) into.*f.member += from.*f.member;
  return into;
}

/// Appends one JSON object to `out` in the compact layout of the
/// metrics JSON ({"a":1,"b":2}) or the spaced one of the BENCH
/// reports and skil-lint ({"a": 1, "b": 2}).  close() writes the
/// closing brace.
class JsonObject {
 public:
  JsonObject(std::string& out, bool spaced) : out_(out), spaced_(spaced) {
    out_ += '{';
  }

  /// Starts member `name`; its value is appended to the returned buffer.
  std::string& key(std::string_view name) {
    if (!first_) out_ += spaced_ ? ", " : ",";
    first_ = false;
    out_ += '"';
    out_ += name;
    out_ += spaced_ ? "\": " : "\":";
    return out_;
  }
  JsonObject& num(std::string_view name, std::integral auto value) {
    key(name) += std::to_string(value);
    return *this;
  }
  /// A string member; `value` must need no escaping.
  JsonObject& str(std::string_view name, std::string_view value) {
    key(name) += '"';
    out_ += value;
    out_ += '"';
    return *this;
  }
  JsonObject& raw(std::string_view name, std::string_view json) {
    key(name) += json;
    return *this;
  }
  /// One member per table entry of `s`.
  template <class S>
  JsonObject& fields(const S& s) {
    for_each(s, [this](std::string_view name, auto v) { num(name, v); });
    return *this;
  }
  /// Starts a nested object member.
  JsonObject object(std::string_view name) {
    key(name);
    return JsonObject(out_, spaced_);
  }
  void close() { out_ += '}'; }

 private:
  std::string& out_;
  bool spaced_;
  bool first_ = true;
};

}  // namespace skil::support
