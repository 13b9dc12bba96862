#include "support/format.hpp"

namespace surgeon::support {

const char* value_kind_name(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::kInt:
      return "int";
    case ValueKind::kReal:
      return "real";
    case ValueKind::kString:
      return "string";
    case ValueKind::kPointer:
      return "pointer";
  }
  return "?";
}

char value_kind_code(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::kInt:
      return 'i';
    case ValueKind::kReal:
      return 'F';
    case ValueKind::kString:
      return 's';
    case ValueKind::kPointer:
      return 'p';
  }
  return '?';
}

std::vector<ValueKind> parse_format(std::string_view format) {
  std::vector<ValueKind> kinds;
  kinds.reserve(format.size());
  for (std::size_t i = 0; i < format.size(); ++i) {
    switch (format[i]) {
      case 'i':
      case 'I':
      case 'l':
      case 'L':
        kinds.push_back(ValueKind::kInt);
        break;
      case 'f':
      case 'F':
        kinds.push_back(ValueKind::kReal);
        break;
      case 's':
      case 'S':
        kinds.push_back(ValueKind::kString);
        break;
      case 'p':
      case 'P':
        kinds.push_back(ValueKind::kPointer);
        break;
      default:
        throw ParseError(
            SourceLoc{},
            std::string("bad format character '") + format[i] +
                "' at position " + std::to_string(i) + " in format \"" +
                std::string(format) + "\"");
    }
  }
  return kinds;
}

std::string format_of(const std::vector<ValueKind>& kinds) {
  std::string s;
  s.reserve(kinds.size());
  for (ValueKind k : kinds) s.push_back(value_kind_code(k));
  return s;
}

const FormatCache::Entry& FormatCache::get(std::string_view format) {
  for (const Entry& e : entries_) {
    if (e.text == format) return e;
  }
  std::vector<ValueKind> kinds = parse_format(format);
  return entries_.emplace_back(Entry{std::string(format), std::move(kinds)});
}

}  // namespace surgeon::support
