/**
 * @file
 * Strict numeric parsing for external inputs (CLI flags, environment
 * variables, config files). The C library's strtoull-style parsers
 * silently accept garbage — "abc" parses as 0, "10k" as 10, "-1"
 * wraps to 2^64-1 — which turns a typo into a silently wrong
 * experiment. These helpers reject anything that is not exactly a
 * decimal number, and the env variants raise ConfigError naming the
 * offending variable.
 */

#ifndef STOREMLP_UTIL_PARSE_HH
#define STOREMLP_UTIL_PARSE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace storemlp
{

/**
 * Parse a full string as a decimal uint64_t. Returns nullopt unless
 * the entire string is digits and the value fits: empty strings,
 * signs, whitespace, trailing characters ("10k") and out-of-range
 * values all fail.
 */
std::optional<uint64_t> parseU64Strict(const std::string &s);

/**
 * Parse a full string as a finite decimal double. Same contract as
 * parseU64Strict: the entire string must be the number ("0.4x",
 * "nan", "inf" and empty strings all fail). A leading '-' is
 * accepted; range checking is the caller's business.
 */
std::optional<double> parseDoubleStrict(const std::string &s);

/** `s` without leading and trailing spaces, tabs and CRs. */
std::string trimmed(const std::string &s);

/** The `sep`-separated tokens of `list`, trimmed; empty ones dropped. */
std::vector<std::string> splitList(const std::string &list, char sep);

/**
 * Read an environment variable as a uint64_t in [min_value,
 * max_value]. Unset returns `def`; set-but-malformed (or out of
 * range) throws ConfigError naming the variable — a mistyped knob
 * must never silently fall back to a default.
 */
uint64_t envU64Strict(const char *name, uint64_t def,
                      uint64_t min_value = 0,
                      uint64_t max_value = UINT64_MAX);

} // namespace storemlp

#endif // STOREMLP_UTIL_PARSE_HH
