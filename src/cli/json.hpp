#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace easydram::cli {

/// Minimal ordered JSON document builder for the experiment runner's
/// machine-readable summaries. Insertion order of object keys is preserved
/// so emitted files diff cleanly across runs; no parsing is provided (the
/// repository only ever writes JSON).
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(bool b) : value_(b) {}  // NOLINT(google-explicit-constructor)
  Json(double d) : value_(d) {}  // NOLINT(google-explicit-constructor)
  Json(std::int64_t i) : value_(i) {}  // NOLINT(google-explicit-constructor)
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}  // NOLINT(google-explicit-constructor)
  Json(std::uint64_t u);  // NOLINT(google-explicit-constructor)
  Json(std::string s) : value_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  bool is_object() const { return std::holds_alternative<Object>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }

  /// Object access: returns the value for `key`, inserting a null member if
  /// absent. The Json must be (or become) an object.
  Json& operator[](const std::string& key);

  /// Array append. The Json must be (or become) an array.
  void push_back(Json v);

  std::size_t size() const;

  /// Read access, for checks over a built document. `at` returns member
  /// `key` / element `i` and throws ContractViolation when it is absent;
  /// each `as_*` reader requires its type (an integer also reads as a
  /// double).
  const Json& at(std::string_view key) const;
  const Json& at(std::size_t i) const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Serializes pretty-printed with 2-space indentation; `indent` is the
  /// nesting depth the value starts at (used by the recursion).
  void dump(std::ostream& os, int indent = 0) const;
  std::string dump_string() const;

 private:
  explicit Json(Object o) : value_(std::move(o)) {}
  explicit Json(Array a) : value_(std::move(a)) {}

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array,
               Object>
      value_;
};

}  // namespace easydram::cli
