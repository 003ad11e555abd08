// Strict integer parsing: the one grammar for every integer the user
// types — command-line flags, --set/--grid parameter values, bid lists.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

namespace xchain {

/// True iff `s` is one or more decimal digits.
inline bool all_digits(const std::string& s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

/// Parses an integer into [lo, hi]. Accepts decimal digits only, with a
/// leading '-' where the range admits negatives (lo < 0): bare strtoll
/// would also take leading whitespace and a '+', so "--users= 20" and
/// "delta=+3" would pass. Overflow and trailing junk fail like any other
/// bad value.
inline bool parse_long(const std::string& s, long long lo, long long hi,
                       long long& out) {
  const bool negative = lo < 0 && !s.empty() && s.front() == '-';
  if (!all_digits(negative ? s.substr(1) : s)) return false;
  errno = 0;
  out = std::strtoll(s.c_str(), nullptr, 10);
  return errno != ERANGE && out >= lo && out <= hi;
}

/// Digits only: strtoull alone would accept leading whitespace and a
/// sign, silently negating "-1" into 18446744073709551615.
inline bool parse_seed(const std::string& s, unsigned long long& out) {
  if (!all_digits(s)) return false;
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

}  // namespace xchain
