/**
 * @file
 * Field tables for plain configuration structs: one Field per member,
 * {key, member pointer, bound}, where the member pointer's type picks
 * the codec (decodeField/encodeField below, or an owner's overloads
 * for its own types). Load, save, flag overrides and fingerprints
 * iterate the table — the SimResult kU64Fields idiom, for inputs.
 * Each enum has one EnumName array, returned by an `enumNames(E)`
 * overload found by argument-dependent lookup; name lookup and the
 * names listed in error messages derive from it.
 */

#ifndef STOREMLP_UTIL_FIELD_TABLE_HH
#define STOREMLP_UTIL_FIELD_TABLE_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>

#include "util/error.hh"
#include "util/parse.hh"

namespace storemlp
{

/** The spellings of one enum value. */
template <typename E>
struct EnumName
{
    E value;
    const char *file;            ///< saved, and read by load and flags
    const char *display;         ///< printed in reports and artifacts
    const char *alias = nullptr; ///< older spelling load also accepts
};

/** The entry of `v`; "?" names for a value outside the table. */
template <typename E>
const EnumName<E> &
enumEntry(E v)
{
    for (const EnumName<E> &n : enumNames(v)) {
        if (n.value == v)
            return n;
    }
    static const EnumName<E> unknown{v, "?", "?"};
    return unknown;
}

/** "a|b|c": every file name, for usage and error text. */
template <typename E>
std::string
enumNameList()
{
    std::string out;
    for (const EnumName<E> &n : enumNames(E{}))
        out += (out.empty() ? "" : "|") + std::string(n.file);
    return out;
}

/** Parse `text` into `out`, a string, bool, enum, unsigned integer
 *  (range-checked) or double; ConfigError naming `key` otherwise.
 *  Owners overload decodeField/encodeField for their own types. */
template <typename T>
void
decodeField(T &out, const char *key, const std::string &text)
{
    auto bad = [&](const char *what, const std::string &hint = "") {
        return ConfigError(std::string("bad ") + what + " for '" + key +
                           "': " + text + hint);
    };
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (text == "true" || text == "1" || text == "on" || text == "yes")
            out = true;
        else if (text == "false" || text == "0" || text == "off" ||
                 text == "no")
            out = false;
        else
            throw bad("boolean");
    } else if constexpr (std::is_enum_v<T>) {
        for (const EnumName<T> &n : enumNames(out)) {
            if (text == n.file || (n.alias && text == n.alias)) {
                out = n.value;
                return;
            }
        }
        throw bad("value", " (" + enumNameList<T>() + ")");
    } else if constexpr (std::is_integral_v<T>) {
        // Strict: std::stoull would wrap "-5" to 2^64-5.
        std::optional<uint64_t> v = parseU64Strict(text);
        if (!v)
            throw bad("integer");
        if (*v > std::numeric_limits<T>::max()) {
            throw ConfigError("'" + std::string(key) + "' = " + text +
                              " exceeds the maximum " +
                              std::to_string(std::numeric_limits<T>::max()));
        }
        out = static_cast<T>(*v);
    } else {
        size_t pos = 0;
        try {
            out = std::stod(text, &pos);
        } catch (const std::exception &) {
        }
        if (pos == 0 || pos != text.size())
            throw bad("number");
    }
}

/** The text of `v` that decodeField reads back as `v`. A double is
 *  printed as 6-digit %g when that reads back exactly, else with the
 *  shortest precision that does. */
template <typename T>
std::string
encodeField(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_enum_v<T>) {
        return enumEntry(v).file;
    } else if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
    } else {
        char buf[32];
        for (int prec = 6; prec <= 17; ++prec) {
            std::snprintf(buf, sizeof buf, "%.*g", prec, v);
            if (std::strtod(buf, nullptr) == v)
                break;
        }
        return buf;
    }
}

/** Bounds a Field may declare; load and set check them. */
enum class FieldBound : uint8_t
{
    None,
    AtLeastOne, ///< a size or count
    ZeroOrPow2, ///< a granularity; 0 disables it
    Fraction,   ///< a probability or share: finite, in [0, 1]
    Positive,   ///< a rate or scale: finite, above 0
};

/** ConfigError naming `key` = `text` unless `v` meets `bound`; a
 *  bound that does not apply to `v`'s type passes. */
template <typename T>
void
checkBound(FieldBound bound, const T &v, const std::string &key,
           const std::string &text)
{
    const char *why = nullptr;
    if constexpr (std::is_same_v<T, uint32_t>) {
        if (bound == FieldBound::AtLeastOne && v == 0)
            why = " is below the minimum 1";
        else if (bound == FieldBound::ZeroOrPow2 && (v & (v - 1)))
            why = " is not 0 or a power of two";
    } else if constexpr (std::is_same_v<T, double>) {
        // Written so that NaN fails both.
        if (bound == FieldBound::Fraction && !(v >= 0.0 && v <= 1.0))
            why = " is not a fraction in [0, 1]";
        else if (bound == FieldBound::Positive &&
                 !(v > 0.0 && v <= std::numeric_limits<double>::max()))
            why = " is not a finite value above 0";
    }
    if (why)
        throw ConfigError("'" + key + "' = " + text + why);
}

/** One struct member. `Member` is a std::variant of member pointers. */
template <typename Member>
struct Field
{
    const char *key;
    Member member;
    FieldBound bound = FieldBound::None;
    const char *alias = nullptr; ///< legacy key load also accepts
    bool fingerprint = true;     ///< part of the owner's cache key
};

/** The member `m` names in `s`; owners with nested structs add
 *  overloads for the inner member pointers. */
template <typename S, typename M>
    requires std::is_member_object_pointer_v<M>
auto &
fieldOf(S &s, M m)
{
    return s.*m;
}

/** Parse `text` into the field keyed `key` (or its alias) and check
 *  its bound; ConfigError naming `what` for an unknown key. `s` is
 *  unchanged when this throws. */
template <typename S, typename Member>
void
setField(S &s, std::span<const Field<Member>> fields, const char *what,
         const std::string &key, const std::string &text)
{
    const Field<Member> *f = nullptr;
    for (const Field<Member> &c : fields) {
        if (!f && (key == c.key || (c.alias && key == c.alias)))
            f = &c;
    }
    if (!f)
        throw ConfigError("unknown " + std::string(what) + " key: " + key);
    std::visit(
        [&](auto m) {
            auto v = fieldOf(s, m);
            decodeField(v, f->key, text);
            checkBound(f->bound, v, key, text);
            fieldOf(s, m) = std::move(v);
        },
        f->member);
}

/** The text save writes for field `f` of `s`. */
template <typename S, typename Member>
std::string
fieldText(const S &s, const Field<Member> &f)
{
    return std::visit([&](auto m) { return encodeField(fieldOf(s, m)); },
                      f.member);
}

} // namespace storemlp

#endif // STOREMLP_UTIL_FIELD_TABLE_HH
