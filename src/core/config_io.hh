/**
 * @file
 * Plain-text (key = value) serialization for SimConfig and
 * WorkloadProfile, so experiments can be captured in version-
 * controlled files and replayed exactly:
 *
 *   # oltp-aggressive.cfg
 *   storePrefetch = sp2
 *   memoryModel = wc
 *   sle = true
 *   storeQueueSize = 64
 *
 * Unknown keys are errors (catching typos beats silently ignoring a
 * misspelled knob). Lines starting with '#' and blank lines are
 * skipped. Every key is one entry of simConfigFields() or
 * workloadProfileFields(): load, save and the tools' flag overrides
 * all iterate those tables.
 */

#ifndef STOREMLP_CORE_CONFIG_IO_HH
#define STOREMLP_CORE_CONFIG_IO_HH

#include <concepts>
#include <iosfwd>
#include <span>
#include <string>
#include <variant>

#include "core/sim_config.hh"
#include "trace/workload.hh"
#include "util/error.hh"

namespace storemlp
{

/** A SimConfig member, or a member of its nested TmConfig. */
using SimConfigMember =
    std::variant<std::string SimConfig::*, bool SimConfig::*,
                 uint32_t SimConfig::*, double SimConfig::*,
                 StorePrefetch SimConfig::*, ScoutMode SimConfig::*,
                 ModelDescriptor SimConfig::*, bool TmConfig::*,
                 double TmConfig::*>;
using SimConfigField = Field<SimConfigMember>;

/** The `model` key's codec: ModelDescriptor's own parser and spec(). */
inline void
decodeField(ModelDescriptor &out, const char *, const std::string &text)
{
    out = ModelDescriptor::parse(text);
}

inline std::string
encodeField(const ModelDescriptor &m)
{
    return m.spec();
}

/** The TmConfig member `m` of `c`, for the tm* keys. */
template <typename S, typename T>
    requires std::same_as<std::remove_const_t<S>, SimConfig>
auto &
fieldOf(S &c, T TmConfig::*m)
{
    return c.tm.*m;
}

/** Every SimConfig key, in save order. */
std::span<const SimConfigField> simConfigFields();

/** Set one key from its text form, as a config line would; throws
 *  ConfigError on an unknown key, a bad value or a bound. */
void setSimConfigField(SimConfig &config, const std::string &key,
                       const std::string &value);

/** Parse a SimConfig from key=value text. Starts from defaults. */
SimConfig loadSimConfig(std::istream &is);
/** File variants: errors are prefixed with the path. */
SimConfig loadSimConfigFile(const std::string &path);

/** Serialize every SimConfig knob as key=value text. */
void saveSimConfig(std::ostream &os, const SimConfig &config);

/** Parse a WorkloadProfile from key=value text.
 *  A `base = NAME` line (first; a kNamedWorkloads name) selects the
 *  starting profile; later keys override individual knobs. */
WorkloadProfile loadWorkloadProfile(std::istream &is);
WorkloadProfile loadWorkloadProfileFile(const std::string &path);

/** Serialize every WorkloadProfile knob as key=value text. */
void saveWorkloadProfile(std::ostream &os, const WorkloadProfile &p);

} // namespace storemlp

#endif // STOREMLP_CORE_CONFIG_IO_HH
