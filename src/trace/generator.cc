/**
 * @file
 * Synthetic trace generator implementation.
 */

#include "trace/generator.hh"

#include <algorithm>
#include <cassert>

namespace storemlp
{

namespace
{
constexpr uint64_t kLineBytes = 64;
constexpr unsigned kNumRegs = 48; // architectural registers 1..47 in use
} // namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(
        const WorkloadProfile &profile, uint64_t seed, uint32_t chip_id)
    : _prof(profile), _rng(seed, 0x9e3779b97f4a7c15ULL ^ chip_id),
      _chipId(chip_id)
{
    _privStoreBase = AddressMap::kPrivateStoreBase +
        chip_id * AddressMap::kPrivateStoreStride;
    _coldLoadBase = AddressMap::kColdLoadBase +
        chip_id * AddressMap::kColdLoadStride;
    // Hot data and lock words are process-private: each chip/core id
    // gets its own copy (only the designated shared store region is
    // shared between chips).
    _hotDataBase = AddressMap::kHotDataBase +
        chip_id * uint64_t(32) * 1024 * 1024;
    _lockBase = AddressMap::kLockBase +
        chip_id * uint64_t(1) * 1024 * 1024;
    for (auto &r : _recent)
        r = 1 + static_cast<uint8_t>(_rng.below(kNumRegs - 1));

    auto th = &Pcg32::threshold;
    const WorkloadProfile &p = _prof;
    _t.instCold = th(p.instColdProb);
    _t.instBurstCont = th(p.instBurstCont);
    _t.hotCodeJump = th(p.hotCodeJumpProb);
    _t.hotL1 = th(p.hotL1Frac);
    _t.sharedLoad = th(p.sharedLoadFrac);
    _t.sharedHot = th(p.sharedHotFrac);
    _t.sharedStore = th(p.sharedStoreFrac);
    _t.storeRevisit = th(p.storeRevisitFrac);
    _t.depNear = th(p.depNearProb);
    _t.flushStore = th(p.flushStoreFrac);
    _t.flushStoreOrLoad = th(p.flushStoreFrac + p.loadFrac);
    _t.flushCold = th(p.flushColdProb);
    _t.flushPhase = th(p.flushPhaseProb);
    _t.flushCont = th(1.0 - 1.0 / std::max(1u, p.flushLenMean));
    _t.burstStore = th(p.burstStoreFrac);
    _t.burstCold = th(p.burstColdProb);
    _t.burstPhase = th(p.burstPhaseProb);
    _t.burstCont = th(1.0 - 1.0 / std::max(1u, p.burstLenMean));
    _t.lock = th(p.lockProb);
    _t.membar = th(p.membarProb);
    _t.load = th(p.loadFrac);
    _t.loadOrStore = th(p.loadFrac + p.storeFrac);
    _t.loadStoreOrBranch = th(p.loadFrac + p.storeFrac + p.branchFrac);
    double load_mean_burst = 1.0 / (1.0 - p.loadBurstCont);
    _t.loadColdStart = th(p.loadColdProb / load_mean_burst);
    _t.loadBurstCont = th(p.loadBurstCont);
    double store_mean_burst = 1.0 / (1.0 - p.storeBurstCont);
    _t.storeColdStart = th(p.storeColdProb / store_mean_burst);
    _t.storeBurstCont = th(p.storeBurstCont);
    _t.branchDep = th(p.branchDependsOnLoadProb);
    _t.branchBias = th(p.branchBias);
    _hotWindow = std::max<uint64_t>(64, p.hotCodeWindowBytes);
    _easyBranchPermille =
        static_cast<uint64_t>(p.easyBranchFrac * 1000.0);
}

Trace
SyntheticTraceGenerator::generate(uint64_t count)
{
    std::vector<TraceRecord> records;
    generateInto(records, count);
    return Trace(std::move(records));
}

void
SyntheticTraceGenerator::generateInto(std::vector<TraceRecord> &out,
                                      uint64_t count)
{
    out.reserve(out.size() + count + 64);
    uint64_t goal = out.size() + count;
    while (out.size() < goal)
        emitSlot(out);
}

uint64_t
SyntheticTraceGenerator::nextPc()
{
    if (_excursionLeft > 0) {
        --_excursionLeft;
        uint64_t pc = _excursionPc;
        _excursionPc += 4;
        return pc;
    }
    // Possibly start a cold-code excursion.
    if (!_inCs && _flushLeft == 0 && _prof.instColdProb > 0.0 &&
        _rng.chanceT(_t.instCold)) {
        uint32_t lines = _rng.geometricT(_t.instBurstCont, 4);
        // Stay within `lines` fresh cache lines of cold code.
        _excursionPc = AddressMap::kColdCodeBase + _coldPcCursor;
        _coldPcCursor += lines * kLineBytes;
        // Execute most of the excursion lines' worth of instructions.
        _excursionLeft = lines * (kLineBytes / 4) - 1;
        uint64_t pc = _excursionPc;
        _excursionPc += 4;
        return pc;
    }
    // Hot code: loop within a window; occasionally hop to another
    // window of the code footprint (function-call locality).
    if (_prof.hotCodeJumpProb > 0.0 && _rng.chanceT(_t.hotCodeJump) &&
        _prof.hotCodeBytes > _hotWindow) {
        uint64_t windows = _prof.hotCodeBytes / _hotWindow;
        _hotWindowBase = _rng.below64(windows) * _hotWindow;
        _hotPcOff = 0;
    }
    uint64_t pc = AddressMap::kHotCodeBase + _hotWindowBase + _hotPcOff;
    // _hotPcOff < _hotWindow and _hotWindow >= 64, so one subtraction
    // is the modulo.
    _hotPcOff += 4;
    if (_hotPcOff >= _hotWindow)
        _hotPcOff -= _hotWindow;
    return pc;
}

uint64_t
SyntheticTraceGenerator::hotDataAddr()
{
    // Two-tier temporal locality: most accesses hit an L1-resident
    // tier; the rest roam the full (L2-resident) hot region.
    uint64_t span = _rng.chanceT(_t.hotL1)
        ? std::min(_prof.hotL1Bytes, _prof.hotDataBytes)
        : _prof.hotDataBytes;
    uint64_t off = _rng.below64(span / 8) * 8;
    return _hotDataBase + off;
}

uint64_t
SyntheticTraceGenerator::coldLoadAddr()
{
    // Some cold loads read the shared region (consuming data other
    // chips produced); the rest stream fresh private lines
    // (guaranteed compulsory misses).
    if (_prof.sharedLoadFrac > 0.0 && _rng.chanceT(_t.sharedLoad)) {
        uint64_t region = _rng.chanceT(_t.sharedHot)
            ? std::min(_prof.sharedHotBytes,
                       _prof.sharedStoreRegionBytes)
            : _prof.sharedStoreRegionBytes;
        uint64_t off = _rng.below64(region / kLineBytes) * kLineBytes;
        return AddressMap::kSharedStoreBase + off;
    }
    uint64_t a = _coldLoadBase + _coldLoadCursor;
    _coldLoadCursor += kLineBytes;
    return a;
}

uint64_t
SyntheticTraceGenerator::coldStoreAddr(bool fresh)
{
    if (_granulesLeft == 0) {
        if (_runLinesLeft == 0) {
            // Jump to a random spot, picking the shared or the private
            // region, and start a fresh spatial run of lines.
            _storeLineShared = _rng.chanceT(_t.sharedStore);
            uint64_t region_bytes = _storeLineShared
                ? _prof.sharedStoreRegionBytes
                : _prof.storeMissRegionBytes;
            if (_storeLineShared && _rng.chanceT(_t.sharedHot)) {
                // Contended shared structures: all chips write these.
                region_bytes = std::min(region_bytes,
                                        _prof.sharedHotBytes);
            }
            uint64_t lines = region_bytes / kLineBytes;
            if (!fresh && !_storeLineShared && _runRingSize > 0 &&
                _rng.chanceT(_t.storeRevisit)) {
                // Buffer-pool reuse: rewrite a recently used area.
                _storeLineOff = _runRing[_rng.below(
                    static_cast<uint32_t>(_runRingSize))];
            } else {
                _storeLineOff = _rng.below64(lines) * kLineBytes;
            }
            if (!_storeLineShared) {
                _runRing[_runRingIdx] = _storeLineOff;
                _runRingIdx = (_runRingIdx + 1) % kRunRing;
                _runRingSize = std::min(_runRingSize + 1, kRunRing);
            }
            _runLinesLeft = std::max(1u, _prof.storeSpatialRun);
        } else {
            _storeLineOff += kLineBytes;
        }
        --_runLinesLeft;
        _granulesLeft = std::max(1u, _prof.coldStoresPerLine);
        _granuleIdx = 0;
    }
    uint64_t base = _storeLineShared
        ? AddressMap::kSharedStoreBase : _privStoreBase;
    uint64_t region_bytes = _storeLineShared
        ? _prof.sharedStoreRegionBytes : _prof.storeMissRegionBytes;
    uint64_t off = (_storeLineOff + _granuleIdx * 8) % region_bytes;
    ++_granuleIdx;
    --_granulesLeft;
    return base + off;
}

uint8_t
SyntheticTraceGenerator::freshReg()
{
    uint8_t r = 1 + static_cast<uint8_t>(_rng.below(kNumRegs - 1));
    _recent[_recentIdx % 8] = r;
    ++_recentIdx;
    return r;
}

uint8_t
SyntheticTraceGenerator::pickSrc()
{
    if (_rng.chanceT(_t.depNear))
        return _recent[_rng.below(8)];
    return 1 + static_cast<uint8_t>(_rng.below(kNumRegs - 1));
}

void
SyntheticTraceGenerator::emitSlot(std::vector<TraceRecord> &out)
{
    // Flush phases: burst buffer/log writebacks with no locks and no
    // cold loads.
    if (_flushLeft > 0) {
        --_flushLeft;
        uint32_t d = _rng.next();
        if (d < _t.flushStore) {
            emitStore(out, _rng.chanceT(_t.flushCold));
        } else if (d < _t.flushStoreOrLoad) {
            _loadBurstLeft = 0; // hot load only
            TraceRecord r;
            r.pc = nextPc();
            r.cls = InstClass::Load;
            r.addr = hotDataAddr();
            r.size = 8;
            r.src1 = pickSrc();
            r.dst = freshReg();
            _lastLoadDst = r.dst;
            out.push_back(r);
        } else {
            emitAlu(out);
        }
        return;
    }
    if (_prof.flushPhaseProb > 0.0 && _rng.chanceT(_t.flushPhase))
        _flushLeft = _rng.geometricT(_t.flushCont, 4 * _prof.flushLenMean);

    // Dense store bursts: store-dominated stretches (memset-like).
    if (_burstLeft > 0) {
        --_burstLeft;
        if (_rng.chanceT(_t.burstStore))
            emitStore(out, _rng.chanceT(_t.burstCold));
        else
            emitAlu(out);
        return;
    }
    if (_prof.burstPhaseProb > 0.0 && _rng.chanceT(_t.burstPhase))
        _burstLeft = _rng.geometricT(_t.burstCont, 4 * _prof.burstLenMean);

    // Critical sections are emitted atomically (acquire/body/release).
    if (_prof.lockProb > 0.0 && _rng.chanceT(_t.lock)) {
        emitCriticalSection(out);
        return;
    }
    if (_prof.membarProb > 0.0 && _rng.chanceT(_t.membar)) {
        emitMembar(out);
        return;
    }
    uint32_t d = _rng.next();
    if (d < _t.load) {
        emitLoad(out);
    } else if (d < _t.loadOrStore) {
        emitStore(out);
    } else if (d < _t.loadStoreOrBranch) {
        emitBranch(out);
    } else {
        emitAlu(out);
    }
}

void
SyntheticTraceGenerator::emitCriticalSection(std::vector<TraceRecord> &out)
{
    _inCs = true;
    uint64_t lock_addr = _lockBase +
        _rng.below(_prof.lockCount) * kLineBytes;

    // Lock acquire: casa (atomic load+store, serializing under TSO).
    TraceRecord acq;
    acq.pc = nextPc();
    acq.cls = InstClass::AtomicCas;
    acq.addr = lock_addr;
    acq.size = 8;
    acq.dst = freshReg();
    acq.src1 = pickSrc();
    acq.flags = kFlagLockAcquire;
    out.push_back(acq);

    // Body: loads/stores/alu, no nested locks or cold-code excursions.
    uint32_t body = 4 + _rng.below(std::max(1u, 2 * _prof.csBodyLen - 4));
    for (uint32_t i = 0; i < body; ++i) {
        uint32_t d = _rng.next();
        if (d < _t.load) {
            emitLoad(out);
        } else if (d < _t.loadOrStore) {
            emitStore(out);
        } else {
            emitAlu(out);
        }
    }

    // Lock release: plain store to the lock word.
    TraceRecord rel;
    rel.pc = nextPc();
    rel.cls = InstClass::Store;
    rel.addr = lock_addr;
    rel.size = 8;
    rel.src2 = pickSrc();
    rel.flags = kFlagLockRelease;
    out.push_back(rel);
    _inCs = false;
}

void
SyntheticTraceGenerator::emitLoad(std::vector<TraceRecord> &out)
{
    bool cold;
    if (_loadBurstLeft > 0) {
        cold = true;
        --_loadBurstLeft;
    } else {
        cold = _rng.chanceT(_t.loadColdStart);
        if (cold)
            _loadBurstLeft = _rng.geometricT(_t.loadBurstCont) - 1;
    }
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Load;
    r.addr = cold ? coldLoadAddr() : hotDataAddr();
    r.size = 8;
    r.src1 = pickSrc();
    r.dst = freshReg();
    _lastLoadDst = r.dst;
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitStore(std::vector<TraceRecord> &out,
                                   bool force_cold)
{
    bool cold;
    if (force_cold) {
        cold = true;
    } else if (_storeBurstLeft > 0) {
        cold = true;
        --_storeBurstLeft;
    } else {
        cold = _rng.chanceT(_t.storeColdStart);
        if (cold)
            _storeBurstLeft = _rng.geometricT(_t.storeBurstCont) - 1;
    }
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Store;
    r.addr = cold ? coldStoreAddr(force_cold) : hotDataAddr();
    r.size = 8;
    r.src1 = pickSrc();
    r.src2 = pickSrc();
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitBranch(std::vector<TraceRecord> &out)
{
    TraceRecord r;
    // Branches live at fixed sites (the last word of each 32-byte
    // group), as in real code: stable sites train the predictor and
    // BTB instead of scattering one-shot branch pcs everywhere.
    r.pc = (nextPc() & ~uint64_t(31)) | 28;
    r.cls = InstClass::Branch;
    if (_rng.chanceT(_t.branchDep) && _lastLoadDst)
        r.src1 = _lastLoadDst;
    else
        r.src1 = pickSrc();
    // Outcome keyed off a per-pc hash: most static branches are
    // deterministic (loop bounds, error checks); the rest are hard
    // data-dependent branches with a majority bias.
    uint64_t h = ((r.pc >> 2) * 0x9e3779b97f4a7c15ULL) >> 32;
    bool direction = (h & 1) != 0;
    bool easy = (h >> 1) % 1000 < _easyBranchPermille;
    bool taken = easy
        ? direction
        : (_rng.chanceT(_t.branchBias) ? direction : !direction);
    if (taken)
        r.flags |= kFlagTaken;
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitAlu(std::vector<TraceRecord> &out)
{
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Alu;
    r.src1 = pickSrc();
    r.src2 = pickSrc();
    r.dst = freshReg();
    out.push_back(r);
}

void
SyntheticTraceGenerator::emitMembar(std::vector<TraceRecord> &out)
{
    TraceRecord r;
    r.pc = nextPc();
    r.cls = InstClass::Membar;
    out.push_back(r);
}

LitmusProgram
litmusProgram(LitmusIdiom idiom, bool power_dialect, bool fenced)
{
    // Two independent shared locations on distinct cache lines.
    constexpr uint64_t kX = 0x1000;
    constexpr uint64_t kY = 0x2000;

    LitmusProgram p;
    TraceBuilder t0(0x10000);
    TraceBuilder t1(0x20000);
    // Ordering fences per dialect: a full fence (SPARC membar; the
    // Power full sync has the same SerializeEffect), the Power
    // store-store fence, and the Power execution fence.
    auto full = [&](TraceBuilder &t) { t.membar(); };
    auto stFence = [&](TraceBuilder &t) {
        power_dialect ? t.lwsync() : t.membar();
    };
    auto exFence = [&](TraceBuilder &t) {
        power_dialect ? t.isync() : t.membar();
    };

    switch (idiom) {
      case LitmusIdiom::StoreBuffering:
        p.name = "SB";
        t0.store(kX);
        if (fenced)
            full(t0); // only a full fence orders St -> Ld
        t0.load(kY);
        t1.store(kY);
        if (fenced)
            full(t1);
        t1.load(kX);
        p.relaxedOutcome = {0, 0}; // both loads miss the other store
        break;
      case LitmusIdiom::MessagePassing:
        p.name = "MP";
        t0.store(kX);
        if (fenced)
            stFence(t0);
        t0.store(kY);
        t1.load(kY);
        if (fenced)
            exFence(t1);
        t1.load(kX);
        p.relaxedOutcome = {1, 0}; // flag seen, data stale
        break;
      case LitmusIdiom::LoadBuffering:
        p.name = "LB";
        t0.load(kY);
        if (fenced)
            exFence(t0);
        t0.store(kX);
        t1.load(kX);
        if (fenced)
            exFence(t1);
        t1.store(kY);
        p.relaxedOutcome = {1, 1}; // both loads see the future store
        break;
    }
    p.name += power_dialect ? ".power" : ".sparc";
    if (fenced)
        p.name += "+fence";
    p.thread0 = t0.build();
    p.thread1 = t1.build();
    return p;
}

} // namespace storemlp
