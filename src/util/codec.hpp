/// \file codec.hpp
/// The one text codec behind every wire and journal format: protocol lines
/// and responses (server/protocol.hpp), work units (dist/workunit.hpp),
/// journal records and frames (dist/checkpoint.hpp, util/journal.hpp) and
/// span tokens (obs/trace.hpp); fault specs (util/fault.hpp) use its
/// splitter and number decoders.
/// docs/protocol.md ("Encodings") specifies it.  Every decoder is strict: a
/// value decodes only when the whole token is one its encoder could write —
/// `3.5junk` is no number, `false` no `0|1` flag, `%zz` stays literal.

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dominosyn::codec {

/// Malformed protocol or journal text (protocol::ProtocolError is this type).
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// -- scalars ------------------------------------------------------------------

/// Shortest-round-trip decimal (decodes bit-identically); `inf`/`-inf`/`nan`.
[[nodiscard]] std::string encode_double(double value);

/// Whole-token decoders: nullopt unless all of `text` is one value — plain
/// decimal digits for a u64 (no sign, no overflow), std::from_chars text
/// for a double.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// A decoded u64 for a 32-bit field; throws Error naming `key` unless it fits.
[[nodiscard]] std::uint32_t narrow_u32(std::string_view key,
                                       std::uint64_t value);

/// A journal frame's CRC: exactly eight hex digits (written lowercase).
[[nodiscard]] std::string encode_hex32(std::uint32_t value);
[[nodiscard]] std::optional<std::uint32_t> parse_hex32(std::string_view text);

/// Percent-encoding for free text inside whitespace-split `key=value`
/// lines: bytes <= 0x20, 0x7f, '%' and '=' become `%xx`.  Decoding turns
/// `%` plus two hex digits back into the byte; any other `%` stays literal.
[[nodiscard]] std::string percent_encode(std::string_view text);
[[nodiscard]] std::string percent_decode(std::string_view text);

// -- key=value lines ----------------------------------------------------------

/// The non-empty tokens of `line` between any of `separators` (default:
/// whitespace); the views borrow `line`.
[[nodiscard]] std::vector<std::string_view> split_tokens(
    std::string_view line, std::string_view separators = " \t\n\v\f\r");
/// Every field of `line` between `separator`s, empty ones kept: `a,,b` is
/// three fields, so a field's index is its position.
[[nodiscard]] std::vector<std::string_view> split_positional(
    std::string_view line, char separator);

/// One `key=value` token, split at its first '='.
struct Field {
  std::string_view key;
  std::string_view value;
};
/// Splits an argument of `verb`; throws Error without a '=' after a key.
[[nodiscard]] Field split_field(std::string_view verb, std::string_view token);
/// The first `key=` field among tokens[1..] (tokens[0] is the verb); throws
/// Error when it is absent.
[[nodiscard]] Field find_field(const std::vector<std::string_view>& tokens,
                               std::string_view key);

/// A field's value through parse_u64 / parse_double, or a `0|1` flag;
/// throws Error naming the key otherwise.
[[nodiscard]] std::uint64_t decode_u64(const Field& field);
[[nodiscard]] double decode_double(const Field& field);
[[nodiscard]] bool decode_flag(const Field& field);

// -- flat JSON ----------------------------------------------------------------

/// Appends `text` as a quoted JSON string: `"` and `\` backslash-escaped,
/// newline, CR and tab as \n \r \t, every other byte below 0x20 as \u00XX.
void append_json_string(std::string& out, std::string_view text);

/// Appends `"key":value`, then a ',' unless `comma` is false.  A double is
/// written as encode_double; a non-finite one as its quoted literal
/// ("inf", "-inf", "nan"), so the line stays valid JSON.
void append_field(std::string& out, std::string_view key,
                  std::string_view value, bool comma = true);
void append_field(std::string& out, std::string_view key, std::uint64_t value,
                  bool comma = true);
void append_field(std::string& out, std::string_view key, double value,
                  bool comma = true);
void append_field(std::string& out, std::string_view key, bool value,
                  bool comma = true);
/// A string literal would otherwise convert to bool.
void append_field(std::string& out, std::string_view key, const char* value,
                  bool comma = true) = delete;

/// Positional scanners for the writers' flat JSON: the value after the
/// first `"key":` (escaping keeps that needle out of string values; not a
/// general JSON parser).  A number, u64 or bool is the whole text up to the
/// next ',', '}' or ']'; non-finite numbers are read quoted only.  nullopt
/// when the key is absent or the value does not decode.
[[nodiscard]] std::optional<double> find_number(std::string_view json,
                                                std::string_view key);
[[nodiscard]] std::optional<std::uint64_t> find_uint64(std::string_view json,
                                                       std::string_view key);
[[nodiscard]] std::optional<std::string> find_string(std::string_view json,
                                                     std::string_view key);
[[nodiscard]] std::optional<bool> find_bool(std::string_view json,
                                            std::string_view key);

}  // namespace dominosyn::codec
