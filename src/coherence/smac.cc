/**
 * @file
 * SMAC implementation.
 */

#include "coherence/smac.hh"

#include <cassert>
#include <string>

#include "cache/cache_config.hh"
#include "stats/registry.hh"
#include "util/error.hh"

namespace storemlp
{

namespace
{
bool
isPow2(uint64_t v)
{
    return v && ((v & (v - 1)) == 0);
}
} // namespace

void
checkGeometry(const SmacConfig &config)
{
    checkSetGeometry(config.entries, config.assoc, "entries");
    if (!isPow2(config.subBlocks)) {
        throw ConfigError(std::to_string(config.subBlocks) +
                          " sub-blocks per entry is not a power of two");
    }
}

Smac::Smac(const SmacConfig &config) : _config(config)
{
    assert(config.entries % config.assoc == 0);
    _numSets = config.entries / config.assoc;
    assert(isPow2(_numSets));
    assert(isPow2(config.subBlocks));
    _entries.resize(config.entries);
    for (auto &e : _entries)
        e.sub.assign(config.subBlocks,
                     static_cast<uint8_t>(SubState::Invalid));
}

uint64_t
Smac::superAddr(uint64_t line_addr) const
{
    return line_addr / _config.superBlockBytes();
}

uint32_t
Smac::subIndex(uint64_t line_addr) const
{
    return static_cast<uint32_t>(
        (line_addr / _config.lineBytes) & (_config.subBlocks - 1));
}

uint64_t
Smac::setIndex(uint64_t super) const
{
    return super & (_numSets - 1);
}

Smac::Entry *
Smac::findEntry(uint64_t super)
{
    uint64_t set = setIndex(super);
    Entry *base = &_entries[set * _config.assoc];
    for (uint32_t w = 0; w < _config.assoc; ++w) {
        if (base[w].valid && base[w].tag == super)
            return &base[w];
    }
    return nullptr;
}

const Smac::Entry *
Smac::findEntry(uint64_t super) const
{
    return const_cast<Smac *>(this)->findEntry(super);
}

void
Smac::installEvicted(uint64_t line_addr)
{
    ++_installs;
    uint64_t super = superAddr(line_addr);
    Entry *e = findEntry(super);
    if (!e) {
        // Allocate: invalid way first, else LRU victim.
        uint64_t set = setIndex(super);
        Entry *base = &_entries[set * _config.assoc];
        Entry *victim = &base[0];
        for (uint32_t w = 0; w < _config.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        if (victim->valid)
            ++_tagEvictions;
        victim->valid = true;
        victim->tag = super;
        victim->sub.assign(_config.subBlocks,
                           static_cast<uint8_t>(SubState::Invalid));
        e = victim;
    }
    e->lru = ++_lruClock;
    e->sub[subIndex(line_addr)] = static_cast<uint8_t>(SubState::Exclusive);
}

Smac::ProbeResult
Smac::probeStoreMiss(uint64_t line_addr)
{
    ProbeResult res;
    Entry *e = findEntry(superAddr(line_addr));
    if (!e) {
        ++_probeMisses;
        return res;
    }
    e->lru = ++_lruClock;
    uint8_t &s = e->sub[subIndex(line_addr)];
    if (s == static_cast<uint8_t>(SubState::Exclusive)) {
        res.hit = true;
        ++_probeHits;
        // Ownership moves back into the L2 proper.
        s = static_cast<uint8_t>(SubState::Invalid);
    } else {
        ++_probeMisses;
        if (s == static_cast<uint8_t>(SubState::CoherenceInvalidated)) {
            res.hitInvalidated = true;
            ++_probeHitInvalidated;
            // The store re-fetches ownership; the stale marker clears.
            s = static_cast<uint8_t>(SubState::Invalid);
        }
    }
    return res;
}

bool
Smac::snoopInvalidate(uint64_t line_addr)
{
    Entry *e = findEntry(superAddr(line_addr));
    if (!e)
        return false;
    uint8_t &s = e->sub[subIndex(line_addr)];
    if (s == static_cast<uint8_t>(SubState::Exclusive)) {
        s = static_cast<uint8_t>(SubState::CoherenceInvalidated);
        ++_coherenceInvalidates;
        return true;
    }
    return false;
}

bool
Smac::ownsLine(uint64_t line_addr) const
{
    const Entry *e = findEntry(superAddr(line_addr));
    return e && e->sub[subIndex(line_addr)] ==
        static_cast<uint8_t>(SubState::Exclusive);
}

void
Smac::clear()
{
    for (auto &e : _entries) {
        e.valid = false;
        e.lru = 0;
        e.sub.assign(_config.subBlocks,
                     static_cast<uint8_t>(SubState::Invalid));
    }
    _lruClock = 0;
}

void
Smac::resetStats()
{
    _installs = _probeHits = _probeMisses = 0;
    _probeHitInvalidated = _coherenceInvalidates = _tagEvictions = 0;
}

void
Smac::exportStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.counter(prefix + "installs", _installs);
    reg.counter(prefix + "probeHits", _probeHits);
    reg.counter(prefix + "probeMisses", _probeMisses);
    reg.counter(prefix + "probeHitInvalidated", _probeHitInvalidated);
    reg.counter(prefix + "coherenceInvalidates", _coherenceInvalidates);
    reg.counter(prefix + "tagEvictions", _tagEvictions);
}

} // namespace storemlp
