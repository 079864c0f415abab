// The one grammar of the text inputs: workload specs
// (workload/scenario.h), fault plans (server/fault_injection.h), the
// clic_* tools' numeric flags (common/cli_util.h), the ~noise=T count
// (workload/token.h) and CLIC_BENCH_REQUESTS (sweep/trace_cache.h).
//
//   N       base-10 digits only: the first character is a digit, the
//           value fits its field, and nothing follows it.
//   F       a number as the C library reads it (decimal, exponent or
//           hex), finite, with no leading space or sign, so never
//           negative.
//   clause  kind[:key=value(,key=value)*], the keys from a per-grammar
//           table whose names and forms also print the valid-keys list.
//
// Header-only with no project includes, so every layer can use it.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace clic::parse {

/// Splits `text` at every `sep`. Empty pieces are kept, so n separators
/// always give n + 1 pieces and each caller decides whether an empty
/// piece is an error.
inline std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  for (std::size_t at = text.find(sep); at != std::string::npos;
       at = text.find(sep, start)) {
    pieces.push_back(text.substr(start, at - start));
    start = at + 1;
  }
  pieces.push_back(text.substr(start));
  return pieces;
}

/// The unsigned rule N into any unsigned field; a bool field takes 0 or
/// 1. Returns false, leaving *out alone, when `text` breaks the rule.
template <typename U>
bool Unsigned(const std::string& text, U* out) {
  static_assert(std::is_unsigned_v<U>, "N fills unsigned fields only");
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  const U narrowed = static_cast<U>(value);
  if (errno != 0 || *end != '\0' || narrowed != value) return false;
  *out = narrowed;
  return true;
}

/// The real rule F. Returns false, leaving *out alone, when `text`
/// breaks it.
inline bool Real(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      text[0] == '+' || text[0] == '-') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// One key of a clause grammar: its name, the form of its value (N, F,
/// or 0|1 for a flag) and how a value text is stored into a `Target`.
template <typename Target>
struct Key {
  const char* name;
  const char* form;
  std::function<bool(const std::string& value, Target& target)> set;
};

/// A key whose value follows the unsigned rule into `field`.
template <typename Target, typename U>
Key<Target> UnsignedKey(const char* name, U Target::*field) {
  return {name, std::is_same_v<U, bool> ? "0|1" : "N",
          [field](const std::string& value, Target& target) {
            return Unsigned(value, &(target.*field));
          }};
}

/// A key whose value follows the real rule into `field`.
template <typename Target>
Key<Target> RealKey(const char* name, double Target::*field) {
  return {name, "F", [field](const std::string& value, Target& target) {
            return Real(value, &(target.*field));
          }};
}

template <typename Target>
const Key<Target>* FindKey(const std::vector<Key<Target>>& keys,
                           const std::string& name) {
  for (const Key<Target>& key : keys) {
    if (name == key.name) return &key;
  }
  return nullptr;
}

/// "name=form" for every key of the table, joined by `sep`: the list an
/// error prints as the valid keys.
template <typename Target>
std::string KeyList(const std::vector<Key<Target>>& keys, const char* sep) {
  std::string out;
  for (const Key<Target>& key : keys) {
    if (!out.empty()) out.append(sep);
    out.append(key.name).append("=").append(key.form);
  }
  return out;
}

/// Stores the key=value(,key=value)* pairs of `body`, the part of a
/// clause after its ':', into *target, in order, so a repeated key
/// keeps its last value. Returns false with a one-line reason naming the
/// offending pair, key or value in *error; the caller adds the clause
/// and the valid keys.
template <typename Target>
bool KeyValues(const std::string& body, const std::vector<Key<Target>>& keys,
               Target* target, std::string* error) {
  for (const std::string& pair : Split(body, ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == 0 || eq == std::string::npos) {
      *error = "malformed key=value pair '" + pair + "'";
      return false;
    }
    const std::string name = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    const Key<Target>* key = FindKey(keys, name);
    if (key == nullptr) {
      *error = "unknown key '" + name + "'";
      return false;
    }
    if (!key->set(value, *target)) {
      *error = "bad value '" + value + "' for " + name + "=" + key->form;
      return false;
    }
  }
  return true;
}

}  // namespace clic::parse
