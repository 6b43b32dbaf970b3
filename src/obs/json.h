// A minimal JSON document model: build, serialize, parse.
//
// The observability exporters (Perfetto traces, metrics snapshots, BENCH_*.json) must emit
// machine-readable output without adding a third-party dependency, and the tests must prove
// the output round-trips through a real parser. This is that parser/serializer pair: the
// full JSON grammar (RFC 8259) minus \u escapes beyond Basic Latin, with insertion-ordered
// objects so serialized documents are stable and diffable across runs.

#ifndef PPCMM_SRC_OBS_JSON_H_
#define PPCMM_SRC_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppcmm {

// One JSON value of any type. Objects preserve insertion order.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}                   // NOLINT(runtime/explicit)
  JsonValue(double n) : type_(Type::kNumber), number_(n) {}             // NOLINT(runtime/explicit)
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}               // NOLINT(runtime/explicit)
  JsonValue(uint32_t n) : JsonValue(static_cast<double>(n)) {}          // NOLINT(runtime/explicit)
  JsonValue(uint64_t n) : JsonValue(static_cast<double>(n)) {}          // NOLINT(runtime/explicit)
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : JsonValue(std::string(s)) {}               // NOLINT(runtime/explicit)

  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }

  // Array access.
  JsonValue& Append(JsonValue item) {
    items_.push_back(std::move(item));
    return items_.back();
  }
  const std::vector<JsonValue>& Items() const { return items_; }
  size_t Size() const { return type_ == Type::kObject ? members_.size() : items_.size(); }

  // Object access. Set overwrites an existing key in place.
  JsonValue& Set(const std::string& key, JsonValue value);
  // nullptr when absent.
  const JsonValue* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& Members() const { return members_; }

  // Compact serialization (no whitespace). Numbers use the shortest representation that
  // round-trips; integral values print without a decimal point.
  std::string Serialize() const;

  // Parses one JSON document (trailing whitespace allowed, trailing garbage is an error).
  // Returns nullopt on malformed input, with a human-readable reason in *error if given.
  static std::optional<JsonValue> Parse(std::string_view text, std::string* error = nullptr);

 private:
  void SerializeTo(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members_;  // kObject, insertion-ordered
};

// Serializes a string with JSON escaping (quotes included).
std::string JsonQuote(std::string_view s);

// Formats a double the way Serialize does (shortest round-trip; integral without a point).
std::string JsonNumber(double value);

}  // namespace ppcmm

#endif  // PPCMM_SRC_OBS_JSON_H_
