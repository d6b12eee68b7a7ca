/**
 * @file
 * Config/profile text serialization implementation.
 */

#include "core/config_io.hh"

#include <fstream>
#include <istream>
#include <ostream>

#include "util/parse.hh"

namespace storemlp
{

namespace
{

using B = FieldBound;

constexpr SimConfigField kSimConfigFields[] = {
    {"name", &SimConfig::name},
    {"fetchBufferSize", &SimConfig::fetchBufferSize},
    {"issueWindowSize", &SimConfig::issueWindowSize, B::AtLeastOne},
    {"robSize", &SimConfig::robSize, B::AtLeastOne},
    {"storeBufferSize", &SimConfig::storeBufferSize, B::AtLeastOne},
    {"storeQueueSize", &SimConfig::storeQueueSize, B::AtLeastOne},
    {"loadBufferSize", &SimConfig::loadBufferSize, B::AtLeastOne},
    {"storePrefetch", &SimConfig::storePrefetch},
    {"coalesceBytes", &SimConfig::coalesceBytes, B::ZeroOrPow2},
    {"infiniteStoreQueue", &SimConfig::infiniteStoreQueue},
    {"perfectStores", &SimConfig::perfectStores},
    // Preset name or full key=val descriptor; `memoryModel` is the
    // legacy spelling of the key.
    {"model", &SimConfig::memoryModel, B::None, "memoryModel"},
    {"sle", &SimConfig::sle},
    {"tmEnabled", &TmConfig::enabled},
    {"tmAbortProb", &TmConfig::abortProb, B::Fraction},
    {"tmAbortPenaltyCycles", &TmConfig::abortPenaltyCycles},
    {"prefetchPastSerializing", &SimConfig::prefetchPastSerializing},
    {"scout", &SimConfig::scout},
    {"missLatency", &SimConfig::missLatency, B::AtLeastOne},
    {"cpiOnChip", &SimConfig::cpiOnChip, B::Positive},
    {"mispredictPenalty", &SimConfig::mispredictPenalty},
};

/** Iterate key=value lines, invoking `set` per pair. */
template <typename Set>
void
parseLines(std::istream &is, Set set)
{
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#')
            continue;
        size_t eq = t.find('=');
        if (eq == std::string::npos) {
            throw ConfigError("line " + std::to_string(lineno) +
                              ": expected key = value");
        }
        std::string key = trimmed(t.substr(0, eq));
        std::string value = trimmed(t.substr(eq + 1));
        if (key.empty())
            throw ConfigError("line " + std::to_string(lineno) +
                              ": empty key");
        set(key, value);
    }
}

/** Load `path` with `load`, prefixing any error with the path. */
template <typename T>
T
loadFile(const std::string &path, T (*load)(std::istream &))
{
    std::ifstream ifs(path);
    if (!ifs)
        throw ConfigError("cannot open: " + path);
    try {
        return load(ifs);
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

/** One `key = value` line per table field, in table order. */
template <typename S, typename Member>
void
saveFields(std::ostream &os, const S &s,
           std::span<const Field<Member>> fields)
{
    for (const Field<Member> &f : fields)
        os << f.key << " = " << fieldText(s, f) << "\n";
}

} // namespace

std::span<const SimConfigField>
simConfigFields()
{
    return kSimConfigFields;
}

void
setSimConfigField(SimConfig &c, const std::string &key,
                  const std::string &value)
{
    setField(c, simConfigFields(), "SimConfig", key, value);
}

SimConfig
loadSimConfig(std::istream &is)
{
    SimConfig c;
    parseLines(is, [&](const std::string &key, const std::string &v) {
        setSimConfigField(c, key, v);
    });
    return c;
}

SimConfig
loadSimConfigFile(const std::string &path)
{
    return loadFile(path, &loadSimConfig);
}

void
saveSimConfig(std::ostream &os, const SimConfig &c)
{
    saveFields(os, c, simConfigFields());
}

WorkloadProfile
loadWorkloadProfile(std::istream &is)
{
    WorkloadProfile p;
    bool first = true;
    parseLines(is, [&](const std::string &key, const std::string &v) {
        if (key == "base" && !first)
            throw ConfigError("'base' must be the first profile key");
        if (key == "base")
            p = workloadProfileForName(v);
        else
            setField(p, workloadProfileFields(), "profile", key, v);
        first = false;
    });
    return p;
}

WorkloadProfile
loadWorkloadProfileFile(const std::string &path)
{
    return loadFile(path, &loadWorkloadProfile);
}

void
saveWorkloadProfile(std::ostream &os, const WorkloadProfile &p)
{
    saveFields(os, p, workloadProfileFields());
}

} // namespace storemlp
