/**
 * @file
 * Tests for config/profile text serialization.
 */

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "core/sweep_request.hh"

namespace storemlp
{
namespace
{

/** The shipped configs/ directory as seen from the test cwd, or "". */
std::string
configsDir()
{
    // Tests run from the build tree; look for the source configs.
    for (const char *d : {"configs", "../configs", "../../configs"}) {
        if (std::filesystem::exists(std::string(d) + "/pc1.cfg"))
            return d;
    }
    return "";
}

/** Every shipped config plus the defaults, for table-wide checks. */
std::vector<SimConfig>
configBases()
{
    std::vector<SimConfig> out = {SimConfig{}};
    std::string dir = configsDir();
    if (dir.empty())
        return out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".cfg")
            out.push_back(loadSimConfigFile(e.path().string()));
    }
    return out;
}

/** Every named profile, for table-wide checks. */
std::vector<WorkloadProfile>
profileBases()
{
    std::vector<WorkloadProfile> out;
    for (const NamedWorkload &w : kNamedWorkloads)
        out.push_back(w.make());
    return out;
}

/** Load one line's worth of text; for the rejection tests. */
SimConfig
loadConfigText(const std::string &text)
{
    std::stringstream ss(text);
    return loadSimConfig(ss);
}

WorkloadProfile
loadProfileText(const std::string &text)
{
    std::stringstream ss(text);
    return loadWorkloadProfile(ss);
}

// ---- a different in-range value of each field type ----
void nudge(std::string &v, FieldBound) { v += "-x"; }
void nudge(bool &v, FieldBound) { v = !v; }
// Needs more than 6 significant digits to read back exactly; a
// fraction stays in [0, 1].
void
nudge(double &v, FieldBound bound)
{
    v += bound == FieldBound::Fraction && v > 0.5 ? -0.1234567891
                                                  : 0.1234567891;
}

template <typename U>
    requires std::same_as<U, uint32_t> || std::same_as<U, uint64_t>
void
nudge(U &v, FieldBound bound)
{
    if (bound == FieldBound::ZeroOrPow2)
        v = v ? v * 2 : 8;
    else
        v += 1;
}

template <typename E>
    requires std::is_enum_v<E>
void
nudge(E &v, FieldBound)
{
    auto names = enumNames(v);
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i].value == v) {
            v = names[(i + 1) % names.size()].value;
            return;
        }
    }
}

void
nudge(ModelDescriptor &m, FieldBound)
{
    m = m == ModelDescriptor::rmo()
        ? ModelDescriptor::parse("wc,commit=inorder")
        : ModelDescriptor::rmo();
}

/** save -> load gives back every table field, and save(load(save(s)))
 *  equals save(s). */
template <typename S, typename Member>
void
expectTableRoundTrip(const S &s, std::span<const Field<Member>> fields,
                     void (*save)(std::ostream &, const S &),
                     S (*load)(std::istream &))
{
    std::stringstream ss;
    save(ss, s);
    const std::string text = ss.str();
    S back = load(ss);
    for (const Field<Member> &f : fields) {
        std::visit(
            [&](auto m) {
                EXPECT_TRUE(fieldOf(back, m) == fieldOf(s, m))
                    << f.key << " did not survive save -> load:\n"
                    << text;
            },
            f.member);
    }
    std::stringstream again;
    save(again, back);
    EXPECT_EQ(again.str(), text);
}

/** Nudge every field of `base` in turn, checking the round trip after
 *  each step. */
template <typename S, typename Member>
void
expectEveryFieldRoundTrips(S s, std::span<const Field<Member>> fields,
                           void (*save)(std::ostream &, const S &),
                           S (*load)(std::istream &))
{
    expectTableRoundTrip(s, fields, save, load);
    for (const Field<Member> &f : fields) {
        SCOPED_TRACE(f.key);
        std::string before = fieldText(s, f);
        std::visit([&](auto m) { nudge(fieldOf(s, m), f.bound); },
                   f.member);
        EXPECT_NE(fieldText(s, f), before);
        expectTableRoundTrip(s, fields, save, load);
    }
}

TEST(ConfigIo, SimConfigRoundTrip)
{
    SimConfig c = SimConfig::wc3();
    c.storePrefetch = StorePrefetch::AtExecute;
    c.storeQueueSize = 64;
    c.scout = ScoutMode::Hws2;
    c.tm.enabled = false;
    c.missLatency = 750;

    std::stringstream ss;
    saveSimConfig(ss, c);
    EXPECT_TRUE(loadSimConfig(ss) == c); // every field, bit for bit
}

TEST(ConfigIo, ParsesMinimalConfig)
{
    std::stringstream ss(
        "# a comment\n"
        "\n"
        "storePrefetch = sp2\n"
        "memoryModel = wc\n"
        "sle = true\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_EQ(c.storePrefetch, StorePrefetch::AtExecute);
    EXPECT_EQ(c.memoryModel, ModelDescriptor::wc());
    EXPECT_TRUE(c.sle);
    // Untouched knobs keep their defaults.
    EXPECT_EQ(c.storeQueueSize, 32u);

    // Every spelling in the enum arrays reads back; coalescing may be
    // off (0) or any power of two.
    for (const EnumName<StorePrefetch> &n : enumNames(StorePrefetch{})) {
        EXPECT_EQ(loadConfigText(std::string("storePrefetch = ") + n.file)
                      .storePrefetch,
                  n.value);
        EXPECT_EQ(loadConfigText(std::string("storePrefetch = ") + n.alias)
                      .storePrefetch,
                  n.value);
    }
    for (const EnumName<ScoutMode> &n : enumNames(ScoutMode{})) {
        EXPECT_EQ(loadConfigText(std::string("scout = ") + n.file).scout,
                  n.value);
    }
    EXPECT_EQ(loadConfigText("coalesceBytes = 0").coalesceBytes, 0u);
    EXPECT_EQ(loadConfigText("coalesceBytes = 64").coalesceBytes, 64u);
    EXPECT_EQ(loadConfigText("memoryModel = tso").memoryModel,
              ModelDescriptor::pc());
}

TEST(ConfigIo, RejectsUnknownKey)
{
    std::stringstream ss("storeQueue = 64\n"); // typo
    EXPECT_THROW(loadSimConfig(ss), ConfigError);
}

TEST(ConfigIo, RejectsBadValues)
{
    {
        std::stringstream ss("storeQueueSize = many\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
    {
        std::stringstream ss("sle = maybe\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
    {
        std::stringstream ss("storePrefetch = sp9\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
    {
        std::stringstream ss("just a line without equals\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
    // Out-of-range integers and violated lower bounds.
    for (const char *bad :
         {"storeQueueSize = 4294967328\n", "robSize = -1\n",
          "storeQueueSize = 0\n", "storeBufferSize = 0\n",
          "robSize = 0\n", "issueWindowSize = 0\n", "missLatency = 0\n",
          "loadBufferSize = 0\n", "coalesceBytes = 3\n",
          "coalesceBytes = 12\n", "scout = hws9\n"}) {
        EXPECT_THROW(loadConfigText(bad), ConfigError) << bad;
    }
}

TEST(ConfigIo, TmKnobs)
{
    std::stringstream ss(
        "tmEnabled = true\n"
        "tmAbortProb = 0.25\n"
        "tmAbortPenaltyCycles = 80\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_TRUE(c.tm.enabled);
    EXPECT_DOUBLE_EQ(c.tm.abortProb, 0.25);
    EXPECT_DOUBLE_EQ(c.tm.abortPenaltyCycles, 80.0);
}

TEST(ConfigIo, ProfileRoundTrip)
{
    WorkloadProfile p = WorkloadProfile::tpcw();
    std::stringstream ss;
    saveWorkloadProfile(ss, p);
    WorkloadProfile r = loadWorkloadProfile(ss);

    EXPECT_EQ(r.name, p.name);
    EXPECT_DOUBLE_EQ(r.loadFrac, p.loadFrac);
    EXPECT_DOUBLE_EQ(r.storeFrac, p.storeFrac);
    EXPECT_DOUBLE_EQ(r.storeColdProb, p.storeColdProb);
    EXPECT_EQ(r.storeMissRegionBytes, p.storeMissRegionBytes);
    EXPECT_DOUBLE_EQ(r.lockProb, p.lockProb);
    EXPECT_DOUBLE_EQ(r.cpiOnChip, p.cpiOnChip);
    EXPECT_EQ(r.flushLenMean, p.flushLenMean);
}

TEST(ConfigIo, ProfileBaseSelection)
{
    std::stringstream ss(
        "base = specjbb\n"
        "lockProb = 0.01\n");
    WorkloadProfile p = loadWorkloadProfile(ss);
    EXPECT_EQ(p.name, "SPECjbb");
    EXPECT_DOUBLE_EQ(p.lockProb, 0.01);
    // Other knobs come from the base profile.
    EXPECT_DOUBLE_EQ(p.storeFrac, WorkloadProfile::specjbb().storeFrac);
}

TEST(ConfigIo, BaseMustComeFirst)
{
    std::stringstream ss(
        "lockProb = 0.01\n"
        "base = specjbb\n");
    EXPECT_THROW(loadWorkloadProfile(ss), ConfigError);
}

TEST(ConfigIo, ProfileRejectsUnknownKey)
{
    std::stringstream ss("storeFrequency = 0.1\n");
    EXPECT_THROW(loadWorkloadProfile(ss), ConfigError);
    // Calibration targets are reference values, not profile keys.
    EXPECT_THROW(loadProfileText("targetStoresPer100 = 1"),
                 ConfigError);
    EXPECT_THROW(loadProfileText("base = bogus"), ConfigError);
    EXPECT_THROW(loadProfileText("lockCount = 0"), ConfigError);
}

TEST(ConfigIo, MissingFileThrows)
{
    EXPECT_THROW(loadSimConfigFile("/nonexistent/x.cfg"),
                 ConfigError);
    EXPECT_THROW(loadWorkloadProfileFile("/nonexistent/x.prof"),
                 ConfigError);
}

TEST(ConfigIo, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/storemlp_cfg_test.cfg";
    {
        std::ofstream ofs(path);
        SimConfig c = SimConfig::pc3();
        c.storeBufferSize = 8;
        saveSimConfig(ofs, c);
    }
    SimConfig r = loadSimConfigFile(path);
    EXPECT_TRUE(r.sle);
    EXPECT_EQ(r.storeBufferSize, 8u);
}

TEST(ConfigIo, ShippedPresetsLoad)
{
    // The configs/ presets must stay loadable as the schema evolves.
    const char *files[] = {"pc1.cfg", "pc2.cfg", "pc3.cfg",
                           "wc1.cfg", "wc2.cfg", "wc3.cfg",
                           "hws2.cfg", "rmo1.cfg", "wmm1.cfg"};
    std::string dir = configsDir();
    if (dir.empty())
        GTEST_SKIP() << "configs/ not reachable from test cwd";
    for (const char *f : files) {
        SimConfig c = loadSimConfigFile(dir + "/" + f);
        EXPECT_FALSE(c.name.empty());
    }
}

TEST(ConfigIo, ModelKeyParsesPresets)
{
    std::stringstream ss("model = rmo\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_EQ(c.memoryModel, ModelDescriptor::rmo());
}

TEST(ConfigIo, ModelKeyParsesDescriptorList)
{
    std::stringstream ss("model = wc,commit=inorder\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_TRUE(c.memoryModel.inOrderCommit());
    EXPECT_EQ(c.memoryModel.coalesce, CoalesceScope::ToYoungestFence);
    EXPECT_EQ(c.memoryModel.name, "custom");
}

TEST(ConfigIo, ModelKeyRejectsBadValues)
{
    {
        std::stringstream ss("model = bogus\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
    {
        std::stringstream ss("model = pc,frobnicate=yes\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
    {
        std::stringstream ss("model = pc,commit=sideways\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigError);
    }
}

TEST(ConfigIo, CustomDescriptorRoundTrip)
{
    // A descriptor that matches no preset must survive
    // save -> load unchanged, via its canonical spec().
    SimConfig c;
    c.memoryModel = ModelDescriptor::parse("wc,commit=inorder");
    std::stringstream ss;
    saveSimConfig(ss, c);
    SimConfig r = loadSimConfig(ss);
    EXPECT_EQ(r.memoryModel, c.memoryModel);
    EXPECT_TRUE(r.memoryModel.sameRules(c.memoryModel));
}

TEST(ConfigIo, PresetDescriptorSpecRoundTrip)
{
    for (const ModelDescriptor &m : ModelDescriptor::presets())
        EXPECT_TRUE(
            ModelDescriptor::parse(m.spec()).sameRules(m))
            << m.name;
}

TEST(ConfigIo, PresetPc3Semantics)
{
    std::stringstream ss;
    saveSimConfig(ss, SimConfig::pc3());
    SimConfig c = loadSimConfig(ss);
    EXPECT_TRUE(c.sle);
    EXPECT_TRUE(c.prefetchPastSerializing);
    EXPECT_EQ(c.memoryModel, ModelDescriptor::pc());
}

// A u32 field rejects values above 2^32-1 instead of wrapping them.
TEST(ConfigIo, U32FieldsRejectWraparound)
{
    try {
        loadConfigText("storeQueueSize = 4294967328");
        FAIL() << "storeQueueSize = 2^32+32 was accepted";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("storeQueueSize"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4294967328"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4294967295"), std::string::npos) << msg;
    }
    EXPECT_THROW(loadProfileText("base = database\ncsBodyLen = 4294967308"),
                 ConfigError);
    EXPECT_EQ(loadConfigText("storeQueueSize = 4294967295").storeQueueSize,
              UINT32_MAX);
}

// sharedLoadFrac shapes the trace, so it is part of the cache key;
// a profile file must be able to carry it.
TEST(ConfigIo, SharedLoadFracIsAProfileKey)
{
    WorkloadProfile p = WorkloadProfile::specweb();
    p.sharedLoadFrac = 0.17;
    std::stringstream ss;
    saveWorkloadProfile(ss, p);
    EXPECT_NE(ss.str().find("sharedLoadFrac = 0.17\n"), std::string::npos);
    WorkloadProfile back = loadWorkloadProfile(ss);
    EXPECT_EQ(back.sharedLoadFrac, 0.17);
    EXPECT_EQ(back.cacheKey(), p.cacheKey());
    EXPECT_NE(back.cacheKey(), WorkloadProfile::specweb().cacheKey());
}

// cpiOnChip is a timing input, not a trace knob: it stays out of the
// cache key by its table entry.
TEST(ConfigIo, CpiOnChipIsNotInTheCacheKey)
{
    WorkloadProfile p = WorkloadProfile::database();
    p.cpiOnChip = 2.5;
    EXPECT_EQ(p.cacheKey(), WorkloadProfile::database().cacheKey());
    for (const ProfileField &f : workloadProfileFields())
        EXPECT_EQ(f.fingerprint, std::string(f.key) != "cpiOnChip");
}

// Doubles that need more than 6 significant digits survive save ->
// load bit for bit, directly and through the sweep request text.
TEST(ConfigIo, DoublesRoundTripBitForBit)
{
    SimConfig c;
    c.cpiOnChip = 1.23456789;
    c.tm.abortProb = 0.0123456789;
    c.mispredictPenalty = 12.4999999;
    auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };

    std::stringstream ss;
    saveSimConfig(ss, c);
    SimConfig back = loadSimConfig(ss);
    EXPECT_EQ(bits(back.cpiOnChip), bits(c.cpiOnChip));
    EXPECT_EQ(bits(back.tm.abortProb), bits(c.tm.abortProb));
    EXPECT_EQ(bits(back.mispredictPenalty), bits(c.mispredictPenalty));

    SweepRequest req;
    req.workloads = {"tiny"};
    req.configs.push_back({"precise", c});
    SweepRequest wire = sweepRequestFromText(sweepRequestToText(req));
    ASSERT_EQ(wire.configs.size(), 1u);
    const SimConfig &w = wire.configs[0].config;
    EXPECT_EQ(bits(w.cpiOnChip), bits(c.cpiOnChip));
    EXPECT_EQ(bits(w.tm.abortProb), bits(c.tm.abortProb));
    EXPECT_EQ(bits(w.mispredictPenalty), bits(c.mispredictPenalty));

    // Values that already read back from 6 digits keep today's text.
    std::stringstream def;
    saveSimConfig(def, SimConfig{});
    EXPECT_NE(def.str().find("cpiOnChip = 1\n"), std::string::npos);
    EXPECT_NE(def.str().find("mispredictPenalty = 12\n"),
              std::string::npos);
}

// For every table entry of every shipped config and named profile:
// a non-default in-range value survives save -> load, and save is a
// fixpoint.
TEST(ConfigIo, EveryTableFieldRoundTrips)
{
    for (const SimConfig &base : configBases()) {
        SCOPED_TRACE(base.name);
        expectEveryFieldRoundTrips(base, simConfigFields(), &saveSimConfig,
                                   &loadSimConfig);
    }
    for (const WorkloadProfile &base : profileBases()) {
        SCOPED_TRACE(base.name);
        expectEveryFieldRoundTrips(base, workloadProfileFields(),
                                   &saveWorkloadProfile,
                                   &loadWorkloadProfile);
        std::stringstream ss;
        saveWorkloadProfile(ss, base);
        EXPECT_EQ(loadWorkloadProfile(ss).cacheKey(), base.cacheKey());
    }
}

/** Values outside and at the edges of each double bound. */
struct BoundCase
{
    FieldBound bound;
    std::vector<const char *> bad;
    std::vector<const char *> good;
};
const BoundCase kBoundCases[] = {
    {FieldBound::Fraction,
     {"-0.01", "1.5", "5", "nan", "inf", "-inf", "1e18"},
     {"0", "1", "0.25"}},
    {FieldBound::Positive, {"0", "-1", "nan", "inf"}, {"1e-9", "2.5"}},
};

/** Every double field of `fields` with a bound rejects the values
 *  outside it, naming the key and value, and accepts its edges.
 *  Returns how many fields were checked. */
template <typename S, typename Member>
int
expectBoundsEnforced(S s, std::span<const Field<Member>> fields)
{
    int checked = 0;
    for (const Field<Member> &f : fields) {
        for (const BoundCase &c : kBoundCases) {
            if (f.bound != c.bound)
                continue;
            ++checked;
            for (const char *text : c.bad) {
                try {
                    setField(s, fields, "test", f.key, text);
                    ADD_FAILURE() << f.key << " = " << text << " accepted";
                } catch (const ConfigError &e) {
                    EXPECT_NE(std::string(e.what()).find(
                                  "'" + std::string(f.key) + "' = " + text),
                              std::string::npos)
                        << e.what();
                }
            }
            for (const char *text : c.good) {
                EXPECT_NO_THROW(setField(s, fields, "test", f.key, text))
                    << f.key << " = " << text;
            }
        }
    }
    return checked;
}

// Shares and probabilities are finite and in [0, 1]; cpiOnChip is
// finite and positive. Every profile key named as a share or a
// probability carries the bound.
TEST(ConfigIo, BoundedDoublesRejectOutOfRange)
{
    // tmAbortProb and cpiOnChip.
    EXPECT_EQ(expectBoundsEnforced(SimConfig{}, simConfigFields()), 2);
    // 26 shares and probabilities, and cpiOnChip.
    EXPECT_EQ(expectBoundsEnforced(WorkloadProfile::database(),
                                   workloadProfileFields()),
              27);
    for (const ProfileField &f : workloadProfileFields()) {
        std::string key = f.key;
        bool share = key.ends_with("Frac") || key.ends_with("Prob") ||
            key.ends_with("BurstCont");
        EXPECT_EQ(f.bound == FieldBound::Fraction, share) << key;
    }
}

// The tools' --workload, the sweep wire and `base =` resolve names
// through one array.
TEST(ConfigIo, NamedWorkloadsResolveEverywhere)
{
    for (const NamedWorkload &w : kNamedWorkloads) {
        EXPECT_EQ(workloadProfileForName(w.name).cacheKey(),
                  w.make().cacheKey());
        EXPECT_EQ(loadProfileText(std::string("base = ") + w.name).cacheKey(),
                  w.make().cacheKey());
    }
    try {
        workloadProfileForName("bogus");
        FAIL() << "unknown workload accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(workloadNameList()),
                  std::string::npos);
    }
}

} // namespace
} // namespace storemlp
