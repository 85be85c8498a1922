#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file json.hpp
/// A minimal recursive-descent JSON reader for the observability tools,
/// and the one string escaper every JSON writer in the repo uses.
///
/// The repo's machine-readable artifacts (ecfd.trace.v1, ecfd.metrics.v1,
/// bench reports) are all JSON emitted by this codebase; tools/ecfd_trace
/// needs to read them back without adding a dependency the container does
/// not have. This parser handles exactly standard JSON (objects, arrays,
/// strings with the escapes our writers emit, numbers, booleans, null) and
/// rejects everything else with a position-carrying error. It is for
/// tool-sized inputs — values are owned copies, not views.

namespace ecfd::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  explicit Value(double d) : kind_(Kind::kDouble), double_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::int64_t as_int() const {
    return kind_ == Kind::kDouble ? static_cast<std::int64_t>(double_) : int_;
  }
  [[nodiscard]] double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const {
    static const Array kEmpty;
    return array_ ? *array_ : kEmpty;
  }
  [[nodiscard]] const Object& as_object() const {
    static const Object kEmpty;
    return object_ ? *object_ : kEmpty;
  }

  /// Object member lookup; returns a null Value for absent keys or
  /// non-objects.
  [[nodiscard]] const Value& at(const std::string& key) const;

 private:
  Kind kind_{Kind::kNull};
  bool bool_{false};
  std::int64_t int_{0};
  double double_{0.0};
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses \p text. On failure returns a null Value and sets \p error (with
/// a byte offset) when non-null.
Value parse(const std::string& text, std::string* error = nullptr);

/// Appends \p s to \p out as the body of a JSON string literal: quote and
/// backslash escaped, and every control character below 0x20 too, so
/// strict readers (Python's json among them) accept the output.
void escape_into(std::string* out, const std::string& s);

}  // namespace ecfd::obs::json
