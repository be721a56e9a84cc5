#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hlshc::obs {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = std::isfinite(v) ? v : 0.0;
  return j;
}

Json Json::number(int64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.int_number_ = true;
  j.int_ = v;
  j.num_ = static_cast<double>(v);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool() const {
  HLSHC_CHECK(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  HLSHC_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  return num_;
}

int64_t Json::as_int() const {
  HLSHC_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  return int_number_ ? int_ : static_cast<int64_t>(num_);
}

const std::string& Json::as_string() const {
  HLSHC_CHECK(kind_ == Kind::kString, "JSON value is not a string");
  return str_;
}

Json& Json::set(std::string key, Json value) {
  HLSHC_CHECK(kind_ == Kind::kObject, "set() on non-object JSON value");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

// kept: test-observation hook: tests read responses and traces with it.
const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  HLSHC_CHECK(v != nullptr, "missing JSON key '" << key << '\'');
  return *v;
}

// kept: test-observation hook: tests read responses and traces with it.
const std::vector<std::pair<std::string, Json>>& Json::items() const {
  HLSHC_CHECK(kind_ == Kind::kObject, "items() on non-object JSON value");
  return obj_;
}

Json& Json::push(Json value) {
  HLSHC_CHECK(kind_ == Kind::kArray, "push() on non-array JSON value");
  arr_.push_back(std::move(value));
  return *this;
}

// kept: test-observation hook: tests read responses and traces with it.
size_t Json::size() const {
  return kind_ == Kind::kArray ? arr_.size() : obj_.size();
}

// kept: test-observation hook: tests read responses and traces with it.
const Json& Json::operator[](size_t index) const {
  HLSHC_CHECK(kind_ == Kind::kArray, "operator[] on non-array JSON value");
  HLSHC_CHECK(index < arr_.size(),
              "JSON index " << index << " out of " << arr_.size());
  return arr_[index];
}

// ---- serialization ---------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  out += '"';
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: {
      char buf[40];
      if (int_number_) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(int_));
      } else {
        // %.17g round-trips doubles; trim to a friendlier form when exact.
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        double parsed = 0;
        char probe[40];
        std::snprintf(probe, sizeof probe, "%.6g", num_);
        std::sscanf(probe, "%lf", &parsed);
        if (parsed == num_) std::snprintf(buf, sizeof buf, "%.6g", num_);
      }
      out += buf;
      break;
    }
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_newline_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent < 0 ? ":" : ": ";
        v.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

// ---- parsing ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    HLSHC_CHECK(pos_ == text_.size(),
                "trailing JSON content at offset " << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" +
                          text_[pos_] + '\'');
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // Basic-multilingual-plane only; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("malformed number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0')
        return Json::number(static_cast<int64_t>(v));
    }
    double d = 0;
    if (std::sscanf(token.c_str(), "%lf", &d) != 1) fail("malformed number");
    return Json::number(d);
  }

  Json parse_value() {
    char c = peek();
    switch (c) {
      case '{': {
        ++pos_;
        Json obj = Json::object();
        if (peek() == '}') {
          ++pos_;
          return obj;
        }
        while (true) {
          skip_ws();
          std::string key = parse_string_body();
          expect(':');
          obj.set(std::move(key), parse_value());
          char d = peek();
          if (d == ',') {
            ++pos_;
            continue;
          }
          if (d == '}') {
            ++pos_;
            return obj;
          }
          fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        Json arr = Json::array();
        if (peek() == ']') {
          ++pos_;
          return arr;
        }
        while (true) {
          arr.push(parse_value());
          char d = peek();
          if (d == ',') {
            ++pos_;
            continue;
          }
          if (d == ']') {
            ++pos_;
            return arr;
          }
          fail("expected ',' or ']' in array");
        }
      }
      case '"': return Json::string(parse_string_body());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("bad literal");
      default: return parse_number();
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace hlshc::obs
