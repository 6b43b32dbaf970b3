#include "src/obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ppcmm {

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  members_.emplace_back(key, std::move(value));
  return members_.back().second;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";  // JSON has no Inf/NaN; clamp rather than emit an invalid document
  }
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}

void JsonValue::SerializeTo(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      out += JsonNumber(number_);
      return;
    case Type::kString:
      out += JsonQuote(string_);
      return;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        item.SerializeTo(out);
      }
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out += JsonQuote(key);
        out.push_back(':');
        value.SerializeTo(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(out);
  return out;
}

namespace {

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Run(std::string* error) {
    std::optional<JsonValue> value = ParseValue();
    if (!value.has_value()) {
      if (error != nullptr) {
        *error = error_;
      }
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return Fail("bad literal");
  }

  std::optional<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        std::optional<std::string> s = ParseString();
        if (!s.has_value()) {
          return std::nullopt;
        }
        return JsonValue(std::move(*s));
      }
      case 't':
        if (!ConsumeLiteral("true")) {
          return std::nullopt;
        }
        return JsonValue(true);
      case 'f':
        if (!ConsumeLiteral("false")) {
          return std::nullopt;
        }
        return JsonValue(false);
      case 'n':
        if (!ConsumeLiteral("null")) {
          return std::nullopt;
        }
        return JsonValue();
      default:
        return ParseNumber();
    }
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const std::from_chars_result r =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (r.ec != std::errc{} || r.ptr != text_.data() + pos_ || pos_ == start) {
      Fail("bad number");
      return std::nullopt;
    }
    return JsonValue(value);
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
        return std::nullopt;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("short \\u escape");
            return std::nullopt;
          }
          uint32_t code = 0;
          const std::from_chars_result r =
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (r.ec != std::errc{} || r.ptr != text_.data() + pos_ + 4) {
            Fail("bad \\u escape");
            return std::nullopt;
          }
          pos_ += 4;
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else {
            // Multi-byte code points pass through as UTF-8 (enough for our own output,
            // which never emits non-ASCII escapes).
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
          return std::nullopt;
      }
    }
    if (!Consume('"')) {
      return std::nullopt;
    }
    return out;
  }

  std::optional<JsonValue> ParseArray() {
    if (!Consume('[')) {
      return std::nullopt;
    }
    JsonValue array = JsonValue::Array();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      std::optional<JsonValue> item = ParseValue();
      if (!item.has_value()) {
        return std::nullopt;
      }
      array.Append(std::move(*item));
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume(']')) {
        return std::nullopt;
      }
      return array;
    }
  }

  std::optional<JsonValue> ParseObject() {
    if (!Consume('{')) {
      return std::nullopt;
    }
    JsonValue object = JsonValue::Object();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipWs();
      std::optional<std::string> key = ParseString();
      if (!key.has_value()) {
        return std::nullopt;
      }
      SkipWs();
      if (!Consume(':')) {
        return std::nullopt;
      }
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) {
        return std::nullopt;
      }
      object.Set(*key, std::move(*value));
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume('}')) {
        return std::nullopt;
      }
      return object;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> JsonValue::Parse(std::string_view text, std::string* error) {
  return Parser(text).Run(error);
}

}  // namespace ppcmm
