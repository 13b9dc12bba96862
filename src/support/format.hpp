// POLYLITH-style format strings.
//
// The paper's bus primitives name the shape of a message or state frame with
// a short format string: mh_read("display","i",...), mh_capture("llF",...),
// mh_restore("iif",...). Each character describes one value:
//
//   'i', 'l'  -- integer            (we store 64-bit signed)
//   'f', 'F'  -- floating point     (we store IEEE double)
//   's', 'S'  -- character string
//   'p', 'P'  -- abstract pointer   (symbolic heap reference; our extension)
//
// The original POLYLITH distinguished int/long and float/double widths; the
// abstract state format makes that distinction unnecessary, so upper- and
// lower-case letters are synonyms, exactly wide enough for the paper's
// examples ("llF", "iiF", "iif") to parse unchanged.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "support/diag.hpp"

namespace surgeon::support {

/// The kind of one value slot in a message or state frame.
enum class ValueKind : std::uint8_t { kInt, kReal, kString, kPointer };

[[nodiscard]] const char* value_kind_name(ValueKind kind) noexcept;
[[nodiscard]] char value_kind_code(ValueKind kind) noexcept;

/// Parses a format string into value kinds. Throws ParseError on an
/// unrecognized character.
[[nodiscard]] std::vector<ValueKind> parse_format(std::string_view format);

/// Inverse of parse_format.
[[nodiscard]] std::string format_of(const std::vector<ValueKind>& kinds);

/// Memo of parse_format: each distinct format string is parsed once. Entries
/// never move, so a caller may keep a pointer to one and revalidate it by
/// comparing `text` with the format in hand. Sema admits only literal
/// formats, so a program's entries are bounded by its format literals.
class FormatCache {
 public:
  struct Entry {
    std::string text;
    std::vector<ValueKind> kinds;
  };

  /// Throws ParseError on an unrecognized character. A bad format is never
  /// cached, so every lookup of it throws.
  [[nodiscard]] const Entry& get(std::string_view format);

 private:
  std::deque<Entry> entries_;
};

}  // namespace surgeon::support
