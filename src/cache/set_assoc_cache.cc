/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache/set_assoc_cache.hh"

#include <cassert>
#include <string>

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

uint32_t
log2Floor(uint64_t v)
{
    uint32_t s = 0;
    while (v > 1) {
        v >>= 1;
        ++s;
    }
    return s;
}
} // namespace

void
checkSetGeometry(uint64_t n, uint64_t assoc, const char *unit)
{
    std::string count = std::to_string(n) + " " + unit;
    std::string ways = std::to_string(assoc) + "-way";
    if (assoc == 0 || n < assoc)
        throw ConfigError(count + " make no " + ways + " set");
    if (n % assoc != 0)
        throw ConfigError(ways + " sets do not divide " + count);
    if (!isPow2(n / assoc)) {
        throw ConfigError(std::to_string(n / assoc) + " " + ways +
                          " sets is not a power of two");
    }
}

void
checkGeometry(const CacheConfig &config)
{
    if (!isPow2(config.lineBytes)) {
        throw ConfigError("line size " + std::to_string(config.lineBytes) +
                          " is not a power of two");
    }
    checkSetGeometry(config.sizeBytes / config.lineBytes, config.assoc);
}

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : _config(config), _numSets(config.numSets())
{
    assert(_numSets >= 1);
    assert(isPow2(config.lineBytes));
    assert(isPow2(_numSets));
    _lineShift = log2Floor(_config.lineBytes);
    _setShift = log2Floor(_numSets);
    _lines.resize(_numSets * _config.assoc);
}

SetAssocCache::Line *
SetAssocCache::findLineSearch(uint64_t line_no)
{
    uint64_t set = line_no & (_numSets - 1);
    uint64_t tag = line_no >> _setShift;
    Line *base = &_lines[set * _config.assoc];
    for (uint32_t w = 0; w < _config.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            _memoLine = &base[w];
            _memoLineNo = line_no;
            return &base[w];
        }
    }
    return nullptr;
}

AccessResult
SetAssocCache::accessSearch(uint64_t addr, bool is_write, bool allocate)
{
    ++_accesses;
    AccessResult res;
    if (Line *line = findLine(addr)) {
        res.hit = true;
        if (_config.replacement != ReplacementPolicy::Fifo)
            line->lru = ++_lruClock; // FIFO: age is fill order only
        if (is_write)
            line->dirty = true;
        return res;
    }

    ++_misses;
    if (!allocate)
        return res;

    uint64_t set = setIndex(addr);
    Line *victim = chooseVictim(set);

    if (victim->valid) {
        res.victimValid = true;
        res.victimLineAddr = (victim->tag * _numSets + set)
            * _config.lineBytes;
        res.victimDirty = victim->dirty;
        res.victimState = victim->state;
        if (victim->dirty)
            ++_evictionsDirty;
    }

    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lru = ++_lruClock;
    victim->dirty = is_write;
    victim->state = 0;
    // The fill may have displaced the memoized line; repoint the memo
    // at the freshly installed one either way.
    _memoLine = victim;
    _memoLineNo = addr >> _lineShift;
    return res;
}

SetAssocCache::Line *
SetAssocCache::chooseVictim(uint64_t set)
{
    // An invalid way always wins.
    Line *base = &_lines[set * _config.assoc];
    for (uint32_t w = 0; w < _config.assoc; ++w) {
        if (!base[w].valid)
            return &base[w];
    }
    switch (_config.replacement) {
      case ReplacementPolicy::Random: {
        // xorshift64*: deterministic per cache instance.
        _rngState ^= _rngState >> 12;
        _rngState ^= _rngState << 25;
        _rngState ^= _rngState >> 27;
        uint64_t r = _rngState * 2685821657736338717ULL;
        return &base[r % _config.assoc];
      }
      case ReplacementPolicy::Fifo:
      case ReplacementPolicy::Lru:
      default: {
        // FIFO reuses the lru stamp but never refreshes it on hits
        // (see access()); LRU is the refreshed variant.
        Line *victim = &base[0];
        for (uint32_t w = 0; w < _config.assoc; ++w) {
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        return victim;
      }
    }
}

SetAssocCache::InvalidateResult
SetAssocCache::invalidate(uint64_t addr)
{
    InvalidateResult r;
    if (Line *line = findLine(addr)) {
        r.wasPresent = true;
        r.wasDirty = line->dirty;
        r.state = line->state;
        line->valid = false;
        line->dirty = false;
        line->state = 0;
        if (line == _memoLine)
            _memoLine = nullptr;
    }
    return r;
}

void
SetAssocCache::clear()
{
    for (auto &line : _lines)
        line = Line();
    _lruClock = 0;
    _memoLine = nullptr;
}

uint64_t
SetAssocCache::residentLines() const
{
    uint64_t n = 0;
    for (const auto &line : _lines)
        n += line.valid ? 1 : 0;
    return n;
}

} // namespace storemlp
