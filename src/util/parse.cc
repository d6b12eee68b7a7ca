/**
 * @file
 * Strict numeric parsing implementation.
 */

#include "util/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hh"

namespace storemlp
{

std::optional<uint64_t>
parseU64Strict(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE || end != s.c_str() + s.size())
        return std::nullopt;
    return static_cast<uint64_t>(v);
}

std::optional<double>
parseDoubleStrict(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    // strtod also accepts hex ("0x10"), "nan" and "inf"; a decimal
    // number needs nothing outside this set.
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)) &&
            c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-')
            return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (errno == ERANGE || end != s.c_str() + s.size())
        return std::nullopt;
    if (!std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitList(const std::string &list, char sep)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t end = list.find(sep, pos);
        std::string tok = trimmed(list.substr(
            pos,
            end == std::string::npos ? std::string::npos : end - pos));
        if (!tok.empty())
            out.push_back(tok);
        if (end == std::string::npos)
            break;
        pos = end + 1;
    }
    return out;
}

uint64_t
envU64Strict(const char *name, uint64_t def, uint64_t min_value,
             uint64_t max_value)
{
    const char *env = std::getenv(name);
    if (!env)
        return def;
    std::optional<uint64_t> v = parseU64Strict(env);
    if (!v) {
        throw ConfigError(std::string(name) + "='" + env +
                          "' is not a decimal integer");
    }
    if (*v < min_value || *v > max_value) {
        throw ConfigError(std::string(name) + "=" +
                          std::to_string(*v) + " out of range [" +
                          std::to_string(min_value) + ", " +
                          std::to_string(max_value) + "]");
    }
    return *v;
}

} // namespace storemlp
