/**
 * @file
 * Named configurations used throughout the evaluation.
 */

#include "core/sim_config.hh"

namespace storemlp
{

SimConfig
SimConfig::defaults()
{
    return SimConfig{};
}

SimConfig
SimConfig::pc2()
{
    SimConfig c;
    c.name = "PC2";
    c.prefetchPastSerializing = true;
    return c;
}

SimConfig
SimConfig::pc3()
{
    SimConfig c = pc2();
    c.name = "PC3";
    c.sle = true;
    return c;
}

SimConfig
SimConfig::wc1()
{
    SimConfig c;
    c.name = "WC1";
    c.memoryModel = ModelDescriptor::wc();
    return c;
}

SimConfig
SimConfig::wc2()
{
    SimConfig c = wc1();
    c.name = "WC2";
    c.prefetchPastSerializing = true;
    return c;
}

SimConfig
SimConfig::wc3()
{
    SimConfig c = wc2();
    c.name = "WC3";
    c.sle = true;
    return c;
}

SimConfig
SimConfig::rmo1()
{
    SimConfig c;
    c.name = "RMO1";
    c.memoryModel = ModelDescriptor::rmo();
    return c;
}

SimConfig
SimConfig::wmm1()
{
    SimConfig c;
    c.name = "WMM1";
    c.memoryModel = ModelDescriptor::wmm();
    return c;
}

SimConfig
SimConfig::withPrefetch(StorePrefetch sp) const
{
    SimConfig c = *this;
    c.storePrefetch = sp;
    return c;
}

SimConfig
SimConfig::withScout(ScoutMode sm) const
{
    SimConfig c = *this;
    c.scout = sm;
    return c;
}

const char *
storePrefetchName(StorePrefetch sp)
{
    return enumEntry(sp).display;
}

const char *
scoutModeName(ScoutMode sm)
{
    return enumEntry(sm).display;
}

} // namespace storemlp
