/// \file codec.cpp

#include "util/codec.hpp"

#include <charconv>
#include <cmath>
#include <limits>

namespace dominosyn::codec {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

[[noreturn]] void throw_bad_value(const Field& field, std::string_view kind) {
  throw Error("bad " + std::string(kind) + " value for '" +
              std::string(field.key) + "': '" + std::string(field.value) +
              "'");
}

void append_key(std::string& out, std::string_view key) {
  out += '"';
  out += key;
  out += "\":";
}

/// `"key":` plus already-encoded value text.
void append_raw_field(std::string& out, std::string_view key,
                      std::string_view text, bool comma) {
  append_key(out, key);
  out += text;
  if (comma) out += ',';
}

/// std::from_chars over all of `text` (optionally in `base`), or nullopt.
template <typename T, typename... Base>
std::optional<T> parse_whole(std::string_view text, Base... base) {
  T value{};
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value, base...);
  if (result.ec != std::errc{} || result.ptr != end) return std::nullopt;
  return value;
}

/// Position just past the first `"key":`, or npos.
std::size_t value_pos(std::string_view json, std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":";
  const std::size_t at = json.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

/// An unquoted JSON value starting at `at`: up to the next ',', '}' or ']'.
std::string_view scalar_at(std::string_view json, std::size_t at) {
  return json.substr(at, json.find_first_of(",}]", at) - at);
}

}  // namespace

std::string encode_double(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  return parse_whole<double>(text);
}

std::string encode_hex32(std::uint32_t value) {
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[i] = kHexDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::optional<std::uint32_t> parse_hex32(std::string_view text) {
  if (text.size() != 8) return std::nullopt;
  return parse_whole<std::uint32_t>(text, 16);
}

std::uint32_t narrow_u32(std::string_view key, std::uint64_t value) {
  if (value > std::numeric_limits<std::uint32_t>::max())
    throw Error("value for '" + std::string(key) + "' exceeds 32 bits: " +
                std::to_string(value));
  return static_cast<std::uint32_t>(value);
}

std::string percent_encode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7f || c == '%' || c == '=') {
      out += '%';
      out += kHexDigits[u >> 4];
      out += kHexDigits[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string percent_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const int high =
        text[i] == '%' && i + 2 < text.size() ? hex_value(text[i + 1]) : -1;
    const int low = high < 0 ? -1 : hex_value(text[i + 2]);
    out += low < 0 ? text[i] : static_cast<char>(high * 16 + low);
    if (low >= 0) i += 2;
  }
  return out;
}

std::vector<std::string_view> split_tokens(std::string_view line,
                                           std::string_view separators) {
  std::vector<std::string_view> tokens;
  std::size_t at = line.find_first_not_of(separators);
  while (at != std::string_view::npos) {
    const std::size_t end = line.find_first_of(separators, at);
    tokens.push_back(line.substr(at, end - at));
    at = line.find_first_not_of(separators, end);
  }
  return tokens;
}

std::vector<std::string_view> split_positional(std::string_view line,
                                               char separator) {
  std::vector<std::string_view> fields;
  std::size_t at = 0;
  std::size_t end = line.find(separator);
  while (end != std::string_view::npos) {
    fields.push_back(line.substr(at, end - at));
    at = end + 1;
    end = line.find(separator, at);
  }
  fields.push_back(line.substr(at));
  return fields;
}

Field split_field(std::string_view verb, std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0)
    throw Error(std::string(verb) + " arguments are key=value, got '" +
                std::string(token) + "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

Field find_field(const std::vector<std::string_view>& tokens,
                 std::string_view key) {
  const std::string_view verb = tokens.empty() ? "" : tokens[0];
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const Field field = split_field(verb, tokens[i]);
    if (field.key == key) return field;
  }
  throw Error(std::string(verb) + " needs " + std::string(key) + "=");
}

std::uint64_t decode_u64(const Field& field) {
  if (const auto value = parse_u64(field.value)) return *value;
  throw_bad_value(field, "uint64");
}

double decode_double(const Field& field) {
  if (const auto value = parse_double(field.value)) return *value;
  throw_bad_value(field, "number");
}

bool decode_flag(const Field& field) {
  if (field.value != "0" && field.value != "1") throw_bad_value(field, "0|1");
  return field.value == "1";
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHexDigits[c >> 4];
          out += kHexDigits[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_field(std::string& out, std::string_view key,
                  std::string_view value, bool comma) {
  append_key(out, key);
  append_json_string(out, value);
  if (comma) out += ',';
}

void append_field(std::string& out, std::string_view key, std::uint64_t value,
                  bool comma) {
  append_raw_field(out, key, std::to_string(value), comma);
}

void append_field(std::string& out, std::string_view key, double value,
                  bool comma) {
  const std::string text = encode_double(value);
  append_raw_field(out, key, std::isfinite(value) ? text : '"' + text + '"',
                   comma);
}

void append_field(std::string& out, std::string_view key, bool value,
                  bool comma) {
  append_raw_field(out, key, value ? "true" : "false", comma);
}

std::optional<double> find_number(std::string_view json,
                                  std::string_view key) {
  const std::size_t at = value_pos(json, key);
  if (at == std::string_view::npos) return std::nullopt;
  // Finite values are bare; the non-finite ones travel quoted.
  const bool quoted = at < json.size() && json[at] == '"';
  const std::size_t close = quoted ? json.find('"', at + 1) : at;
  if (close == std::string_view::npos) return std::nullopt;
  const auto value = quoted ? parse_double(json.substr(at + 1, close - at - 1))
                            : parse_double(scalar_at(json, at));
  if (!value || std::isfinite(*value) == quoted) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> find_uint64(std::string_view json,
                                         std::string_view key) {
  const std::size_t at = value_pos(json, key);
  if (at == std::string_view::npos) return std::nullopt;
  return parse_u64(scalar_at(json, at));
}

std::optional<std::string> find_string(std::string_view json,
                                       std::string_view key) {
  std::size_t at = value_pos(json, key);
  if (at >= json.size() || json[at] != '"') return std::nullopt;
  std::string out;
  for (++at; at < json.size(); ++at) {
    if (json[at] == '"') return out;
    if (json[at] != '\\') {
      out += json[at];
      continue;
    }
    if (++at == json.size()) break;
    switch (json[at]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // \uXXXX: the control bytes append_json_string escapes; any other
        // code point comes back as UTF-8.
        if (json.size() - at < 5) return std::nullopt;
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          const int digit = hex_value(json[++at]);
          if (digit < 0) return std::nullopt;
          cp = cp * 16 + static_cast<unsigned>(digit);
        }
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xc0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
          out += static_cast<char>(0xe0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        break;
      }
      default: return std::nullopt;  // no encoder writes other escapes
    }
  }
  return std::nullopt;  // unterminated
}

std::optional<bool> find_bool(std::string_view json, std::string_view key) {
  const std::size_t at = value_pos(json, key);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view token = scalar_at(json, at);
  if (token == "true") return true;
  if (token == "false") return false;
  return std::nullopt;
}

}  // namespace dominosyn::codec
