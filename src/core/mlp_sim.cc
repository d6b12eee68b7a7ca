/**
 * @file
 * MLPsim epoch engine implementation. See mlp_sim.hh for the time
 * model and scout.cc for the lookahead engines.
 */

#include "core/mlp_sim.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace storemlp
{

namespace
{
constexpr size_t kInfiniteSq = 1u << 20;
} // namespace

MlpSimulator::MlpSimulator(const SimConfig &config, ChipNode &chip,
                           const LockAnalysis *locks)
    : _cfg(config), _chip(chip), _sle(locks, config.sle),
      _tm(locks, config.tm), _sb(config.storeBufferSize),
      _sq(config.infiniteStoreQueue ? kInfiniteSq : config.storeQueueSize,
          config.coalesceBytes, config.memoryModel.coalesce)
{
    if ((_cfg.sle || _cfg.tm.enabled) && !locks) {
        throw std::invalid_argument(
            "MlpSimulator: SLE/TM require a LockAnalysis of the trace");
    }
    if (_cfg.sle && _cfg.tm.enabled) {
        throw std::invalid_argument(
            "MlpSimulator: SLE and transactional memory are mutually "
            "exclusive");
    }
    for (size_t c = 0; c < static_cast<size_t>(InstClass::NumClasses);
         ++c) {
        ClassPlan &p = _plan[c];
        p.eff = _cfg.memoryModel.effectOf(static_cast<InstClass>(c));
        p.serializing = p.eff.pipelineDrain || p.eff.storeDrain;
        p.isStore = isStoreClass(static_cast<InstClass>(c));
    }
    _elisionActive = _cfg.sle || _tm.enabled();
    _rob.reset(_cfg.robSize);
}

uint64_t
MlpSimulator::lockReadLead(const SimConfig &config)
{
    // The serialize lookahead reads records _i+1 .. _i+robSize; the
    // scout reads _i .. _i+budget-1, its budget at most missLatency
    // cycles at on-chip CPI (runScout), plus one for rounding.
    uint64_t lead = config.prefetchPastSerializing ? config.robSize : 0;
    if (config.scout != ScoutMode::Off) {
        lead = std::max<uint64_t>(
            lead, static_cast<uint64_t>(config.missLatency /
                                        std::max(0.1, config.cpiOnChip)) +
                1);
    }
    return lead;
}

bool
MlpSimulator::elidedAt(uint64_t idx)
{
    if (_cfg.sle && _sle.peekElided(idx))
        return true;
    return _tm.enabled() && _tm.peekElided(idx);
}

Sle::Action
MlpSimulator::elideAction(uint64_t idx)
{
    if (_cfg.sle)
        return _sle.classify(idx);
    if (_tm.enabled()) {
        switch (_tm.classify(idx)) {
          case TransactionalMemory::Action::AcquireAsLoad:
            return Sle::Action::AcquireAsLoad;
          case TransactionalMemory::Action::Nop:
            return Sle::Action::Nop;
          default:
            break;
        }
    }
    return Sle::Action::Normal;
}

void
MlpSimulator::setPeerHook(std::function<void(uint64_t)> hook)
{
    _peerHook = std::move(hook);
    _peerActive = static_cast<bool>(_peerHook);
}

void
MlpSimulator::setEpochListener(EpochListener listener)
{
    _epochListener = std::move(listener);
}

void
MlpSimulator::peerTick()
{
    if (++_peerPending >= kPeerQuantum) {
        _peerHook(_peerPending);
        _peerPending = 0;
    }
}

bool
MlpSimulator::poisoned(uint8_t src1, uint8_t src2) const
{
    return _poison.anyPoisoned(src1, src2);
}

// ---------------------------------------------------------------------
// Epoch machinery
// ---------------------------------------------------------------------

void
MlpSimulator::onMiss(MissKind kind)
{
    if (!_gen.open) {
        _gen = Generation{};
        _gen.open = true;
        _gen.startCycle = _cycle;
        _gen.resolveCycle = _cycle + _cfg.missLatency;
    }
    switch (kind) {
      case MissKind::Load: ++_gen.loads; break;
      case MissKind::Store: ++_gen.stores; break;
      case MissKind::Inst: ++_gen.insts; break;
    }
}

void
MlpSimulator::resolveGeneration()
{
    _gen.open = false;
    _inflightLines.clear();
    _poison.clearAll();

    // Store queue: in-flight misses have arrived.
    for (auto &e : _sq.entries()) {
        if (e.classified && e.missing)
            e.missing = false;
    }

    // ROB: waiting loads complete; deferred work replays in order.
    _rob.forEach([this](RobEntry &e) {
        if (e.state == RobState::WaitMiss) {
            e.state = RobState::Done;
            if (_waitLoadCount)
                --_waitLoadCount;
        }
    });
    _rob.forEach([this](RobEntry &e) {
        if (e.state == RobState::Deferred) {
            assert(_deferredCount);
            --_deferredCount;
            executeEntry(e, true);
        }
    });

    drainPipeline();
}

void
MlpSimulator::checkQuietResolve()
{
    if (_gen.open && _cycle >= _gen.resolveCycle) {
        // The processor never stalled while these misses were in
        // flight: no epoch. Store misses were fully overlapped with
        // computation (Table 2).
        if (_collect)
            _res.overlappedStores += _gen.stores;
        resolveGeneration();
    }
}

void
MlpSimulator::terminate(TraceCursor &cur, TermCond cond)
{
    if (!_gen.open)
        return;

    if (_cfg.scout != ScoutMode::Off && scoutEligible(cond)) {
        runScout(cur);
    } else if (_cfg.prefetchPastSerializing &&
               (cond == TermCond::StoreSerialize ||
                cond == TermCond::OtherSerialize)) {
        runSerializeLookahead(cur);
    }

    if (_collect) {
        ++_res.epochs;
        ++_res.termCounts[static_cast<unsigned>(cond)];
        if (_gen.stores)
            ++_res.termCountsStoreEpochs[static_cast<unsigned>(cond)];
        uint64_t total = _gen.total();
        _res.epochMisses += total;
        _res.epochMissLoads += _gen.loads;
        _res.epochMissStores += _gen.stores;
        _res.epochMissInsts += _gen.insts;
        _res.mlpHist.sample(total);
        if (_gen.stores)
            _res.storeMlpHist.sample(_gen.stores);
        _res.storeVsOtherMlp.sample(_gen.stores, _gen.loads + _gen.insts);

        if (_epochListener) {
            EpochRecord rec;
            rec.triggerIdx = _i;
            rec.startCycle = _gen.startCycle;
            rec.resolveCycle = _gen.resolveCycle;
            rec.cause = cond;
            rec.loads = static_cast<uint32_t>(_gen.loads);
            rec.stores = static_cast<uint32_t>(_gen.stores);
            rec.insts = static_cast<uint32_t>(_gen.insts);
            rec.sbOccupancy = static_cast<uint32_t>(_sb.size());
            _epochListener(rec);
        }
    }

    _cycle = std::max(_cycle, _gen.resolveCycle);
    resolveGeneration();
}

TermCond
MlpSimulator::classifyWindowBlock() const
{
    if (!_rob.empty()) {
        const RobEntry &h = _rob.front();
        if (h.state == RobState::Done && h.isStore && _sq.full())
            return TermCond::SqWindowFull;
    }
    return TermCond::WindowFull;
}

// ---------------------------------------------------------------------
// Store commit path
// ---------------------------------------------------------------------

void
MlpSimulator::classifyEntry(SqEntry &e)
{
    e.classified = true;

    if (_cfg.perfectStores) {
        // Perform the access so cache contents stay comparable, but
        // never let the store stall anything.
        _chip.store(e.granule);
        if (_collect)
            ++_res.l2StoreAccesses;
        e.missing = false;
        return;
    }

    if (_inflightLines.count(e.line)) {
        // Backed by an outstanding prefetch/miss of this generation;
        // commits when the generation resolves. Not a new miss.
        e.missing = true;
        return;
    }

    ChipNode::StoreOutcome out = _chip.store(e.granule);
    if (_collect)
        ++_res.l2StoreAccesses;

    if (out.level != MissLevel::OffChip) {
        e.missing = false;
        return;
    }

    if (_collect)
        ++_res.missStores;

    if (out.smacHit) {
        // Ownership was retained on-chip: the store leaves the queue
        // without waiting (single-chip semantics, Section 3.3.3).
        e.missing = false;
        if (_collect) {
            ++_res.smacAcceleratedStores;
            ++_res.overlappedStores;
        }
        return;
    }

    e.missing = true;
    onMiss(MissKind::Store);
    _inflightLines.insert(e.line);
}

void
MlpSimulator::commitStores()
{
    if (_cfg.memoryModel.inOrderCommit()) {
        // PC: strictly head-first. A missing head blocks the queue.
        while (!_sq.empty()) {
            SqEntry &h = _sq.head();
            if (!h.classified)
                classifyEntry(h);
            if (h.missing) {
                if (_gen.open)
                    break; // waiting for the epoch to resolve
                h.missing = false; // resolved earlier
            }
            _sq.popHead();
        }
        return;
    }

    // WC: hits commit from any position within the oldest fence epoch;
    // the oldest entry may issue a demand miss; younger misses wait
    // for store prefetching to overlap them.
    bool progress = true;
    while (progress && !_sq.empty()) {
        progress = false;
        uint32_t fence = _sq.head().fenceSeq;
        auto &entries = _sq.entries();
        for (size_t pos = 0; pos < entries.size();) {
            SqEntry &e = entries[pos];
            if (e.fenceSeq != fence)
                break;
            if (!e.classified) {
                bool probe_hit = _chip.hierarchy().l2Probe(e.line) ||
                    _inflightLines.count(e.line);
                if (probe_hit || pos == 0)
                    classifyEntry(e);
            }
            if (e.classified && e.missing && !_gen.open)
                e.missing = false; // resolved earlier
            if (e.classified && !e.missing) {
                _sq.erase(pos);
                progress = true;
                continue; // same pos now holds the next entry
            }
            ++pos;
        }
    }
}

void
MlpSimulator::retireStoreIntoSq(RobEntry &rob_entry)
{
    assert(!_sb.empty());
    SbEntry sb = _sb.head();
    assert(sb.instIdx == rob_entry.idx);
    _sb.popHead();

    uint64_t line = sb.line;
    bool coalesced = _sq.insert(sb.addr, line, sb.instIdx, _fenceSeq,
                                sb.release);
    if (_collect) {
        ++_res.sqInserts;
        if (coalesced)
            ++_res.coalescedStores;
    }

    // Prefetch-at-retire: issue a prefetch-for-write for stores that
    // land behind the head (the head issues its own demand access) and
    // were not coalesced away (Section 3.3.2).
    if (!coalesced && !_cfg.perfectStores &&
        _cfg.storePrefetch == StorePrefetch::AtRetire && _sq.size() > 1 &&
        !_inflightLines.count(line)) {
        bool present = _chip.prefetchLine(line, true);
        if (_collect)
            ++_res.storePrefetchesIssued;
        if (!present) {
            if (_collect)
                ++_res.missStores;
            onMiss(MissKind::Store);
            _inflightLines.insert(line);
            // Mark the new entry so the head classification treats it
            // as in flight rather than re-accessing.
            _sq.entries().back().prefetched = true;
        }
    }
}

// ---------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------

void
MlpSimulator::drainPipeline()
{
    bool progress = true;
    while (progress) {
        progress = false;
        commitStores();
        while (!_rob.empty()) {
            RobEntry &e = _rob.front();
            if (e.state != RobState::Done)
                break; // retirement blocked by a miss / deferral
            if (e.isStore) {
                if (_sq.full())
                    break; // retirement stalls on a full store queue
                retireStoreIntoSq(e);
            }
            _rob.pop_front();
            progress = true;
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

void
MlpSimulator::executeEntry(RobEntry &e, bool replay)
{
    switch (e.cls) {
      case InstClass::Alu:
      case InstClass::Membar:
      case InstClass::Isync:
      case InstClass::Lwsync:
        if (poisoned(e.src1, e.src2)) {
            e.state = RobState::Deferred;
            ++_deferredCount;
            _poison.set(e.dst);
        } else {
            e.state = RobState::Done;
            _poison.clear(e.dst);
        }
        break;

      case InstClass::Branch:
        if (poisoned(e.src1, e.src2)) {
            e.state = RobState::Deferred;
            ++_deferredCount;
        } else {
            if (replay && e.mispredCounted)
                _cycle += _cfg.mispredictPenalty;
            e.state = RobState::Done;
        }
        break;

      case InstClass::Load:
      case InstClass::LoadLocked:
      case InstClass::AtomicCas: {
        if (poisoned(e.src1, 0)) {
            // Address not computable yet.
            e.state = RobState::Deferred;
            ++_deferredCount;
            _poison.set(e.dst);
            break;
        }
        ChipNode::LoadOutcome out = _chip.load(e.addr);
        uint64_t line = lineOf(e.addr);
        if (out.level == MissLevel::OffChip) {
            if (_collect)
                ++_res.missLoads;
            onMiss(MissKind::Load);
            _inflightLines.insert(line);
            e.state = RobState::WaitMiss;
            ++_waitLoadCount;
            _poison.set(e.dst);
        } else if (!_inflightLines.empty() && _inflightLines.count(line)) {
            // Hit-under-miss: the line is still in flight.
            e.state = RobState::WaitMiss;
            ++_waitLoadCount;
            _poison.set(e.dst);
        } else {
            e.state = RobState::Done;
            _poison.clear(e.dst);
        }
        // casa also carries a store half (handled via the SB entry
        // pushed at dispatch); its data is the loaded value.
        break;
      }

      case InstClass::Store:
      case InstClass::StoreCond: {
        bool addr_ready = !_poison.test(e.src1);
        bool data_ready = !_poison.test(e.src2);
        if (!addr_ready || !data_ready) {
            e.state = RobState::Deferred;
            ++_deferredCount;
        } else {
            e.state = RobState::Done;
        }
        // Track address availability in the store buffer and fire the
        // prefetch-at-execute hook as soon as the address is known.
        // Reverse scan: instIdx values are unique and the dispatch-time
        // call always matches the newest entry, making it O(1).
        auto &sb_entries = _sb.entries();
        for (auto it = sb_entries.rbegin(); it != sb_entries.rend(); ++it) {
            auto &sb = *it;
            if (sb.instIdx != e.idx)
                continue;
            if (addr_ready && !sb.addrReady) {
                sb.addrReady = true;
                if (!_cfg.perfectStores && !sb.prefetched &&
                    _cfg.storePrefetch == StorePrefetch::AtExecute &&
                    !_inflightLines.count(sb.line)) {
                    bool present = _chip.prefetchLine(sb.line, true);
                    if (_collect)
                        ++_res.storePrefetchesIssued;
                    if (!present) {
                        if (_collect)
                            ++_res.missStores;
                        onMiss(MissKind::Store);
                        _inflightLines.insert(sb.line);
                    }
                    sb.prefetched = true;
                }
            }
            break;
        }
        break;
      }

      default:
        e.state = RobState::Done;
        break;
    }
}

// ---------------------------------------------------------------------
// Serializing instructions
// ---------------------------------------------------------------------

bool
MlpSimulator::handleSerializing(TraceCursor &cur, SerializeEffect eff)
{
    auto ready = [&]() {
        if (eff.pipelineDrain && !_rob.empty())
            return false;
        if (eff.storeDrain && (!_sb.empty() || !_sq.empty()))
            return false;
        return true;
    };

    if (ready())
        return true;
    drainPipeline();
    if (ready())
        return true;

    if (_gen.open) {
        if (_collect)
            ++_res.serializeStalls;
        TermCond cond = _gen.loads > 0 ? TermCond::OtherSerialize
                                       : TermCond::StoreSerialize;
        terminate(cur, cond);
        return false; // retry this instruction
    }

    // No miss outstanding: only completed work is in the way (e.g. hit
    // stores draining). drainPipeline()+commitStores() above either
    // cleared it or classified a missing store (opening a generation);
    // in the latter case the next retry terminates. Retry either way.
    return false;
}

// ---------------------------------------------------------------------
// Dispatch / main loop
// ---------------------------------------------------------------------

void
MlpSimulator::dispatch(TraceCursor &cur, uint64_t pc, uint64_t addr,
                       InstClass cls, uint32_t meta)
{
    _cycle += _cfg.cpiOnChip;
    if (_collect) {
        ++_res.instructions;
        _res.onChipCycles += _cfg.cpiOnChip;
    }

    uint8_t dst = meta & 0xff;
    uint8_t src1 = (meta >> 8) & 0xff;
    uint8_t src2 = (meta >> 16) & 0xff;
    uint8_t flags = meta >> 24;

    if (_elisionActive) {
        Sle::Action act = elideAction(_i);
        if (_tm.enabled() && _tm.abortsAt(_i)) {
            // Aborted transaction: roll back and retry with the lock
            // held (the instruction then executes on the locked path).
            _cycle += _tm.abortPenalty();
            if (_collect)
                ++_res.tmAborts;
        }
        if (act == Sle::Action::Nop) {
            // Elided release store / acquire auxiliary / fence: retires
            // as a NOP with no memory or serialization effect.
            if (_collect && _sle.enabled())
                _res.elidedLocks = _sle.elidedAcquires();
            return;
        }
        if (act == Sle::Action::AcquireAsLoad) {
            cls = InstClass::Load; // casa/lwarx becomes a regular load
            if (_collect)
                _res.elidedLocks = _sle.elidedAcquires();
        }
    }

    if (cls == InstClass::Lwsync) {
        ++_fenceSeq;
        return;
    }

    RobEntry e;
    e.idx = _i;
    e.addr = addr;
    e.cls = cls;
    e.dst = dst;
    e.src1 = src1;
    e.src2 = src2;
    e.isStore = isStoreClass(cls);
    e.release = (flags & kFlagLockRelease) != 0;

    if (cls == InstClass::Branch) {
        if (_collect)
            ++_res.branches;
        bool correct = _bp.predictAndUpdate(pc, (flags & kFlagTaken) != 0);
        if (!correct && _collect)
            ++_res.branchMispredicts;
        if (poisoned(src1, src2)) {
            e.state = RobState::Deferred;
            ++_deferredCount;
            e.mispredCounted = !correct;
            _rob.push_back(e);
            if (!correct) {
                // Unresolvable misprediction: the window ends here.
                terminate(cur, TermCond::MispredBranch);
            }
            return;
        }
        if (!correct)
            _cycle += _cfg.mispredictPenalty;
        e.state = RobState::Done;
        // A resolved branch at the ROB head would retire immediately
        // in drainPipeline with no side effects; skip the round trip.
        if (!_rob.empty())
            _rob.push_back(e);
        return;
    }

    if (e.isStore) {
        bool addr_ready = !_poison.test(src1);
        SbEntry &sb = _sb.push(addr, lineOf(addr), _i, addr_ready,
                               e.release);
        if (addr_ready && !_cfg.perfectStores &&
            _cfg.storePrefetch == StorePrefetch::AtExecute &&
            cls != InstClass::AtomicCas &&
            !_inflightLines.count(sb.line)) {
            bool present = _chip.prefetchLine(sb.line, true);
            if (_collect)
                ++_res.storePrefetchesIssued;
            if (!present) {
                if (_collect)
                    ++_res.missStores;
                onMiss(MissKind::Store);
                _inflightLines.insert(sb.line);
            }
            sb.prefetched = true;
        }
    }

    executeEntry(e, false);
    // Same immediate-retire shortcut: a Done non-store entering an
    // empty ROB is popped by the very next drainPipeline with no
    // observable effect (commitStores is idempotent at fixpoint).
    if (e.state == RobState::Done && !e.isStore && _rob.empty())
        return;
    _rob.push_back(e);
}

bool
MlpSimulator::stepOne(TraceCursor &cur)
{
    const TraceCursor::LaneView *v = cur.view(_i);
    if (!v)
        return false; // end of stream

    if (_gen.open)
        checkQuietResolve();

    // Linear lane reads: pc/addr/cls/meta for this record. Copied to
    // locals up front — terminate() may run the scout, which slides
    // the cursor's lane window forward.
    uint64_t off = _i - v->first;
    uint64_t pc = v->pc[off];
    uint64_t addr = v->addr[off];
    uint32_t meta = v->meta[off];
    InstClass cls = static_cast<InstClass>(v->cls[off]);
    const ClassPlan &plan = _plan[v->cls[off]];

    // ---- fetch ----
    if (!_skipFetch) {
        MissLevel lvl = _chip.instFetch(pc);
        if (lvl == MissLevel::OffChip) {
            if (_collect)
                ++_res.missInsts;
            onMiss(MissKind::Inst);
            _inflightLines.insert(lineOf(pc));
            _skipFetch = true; // resume here after the stall
            terminate(cur, TermCond::InstructionMiss);
            return true;
        }
    }

    // ---- quiet-machine fast path ----
    // With no generation open, an empty ROB/SQ (which implies an empty
    // SB and zero deferred/waiting counts) and no poison, an Alu,
    // Branch, or hitting Load reduces to: pay the on-chip CPI, touch
    // the predictor/cache, retire immediately. The general path below
    // provably does nothing else in this state — the window cannot be
    // blocked, the entry would retire from an empty ROB on the spot,
    // and the tail drain is skipped — so the shortcut is bit-identical
    // while skipping entry construction and executeEntry. That holds
    // under SLE/TM too: lock roles land only on atomics, stores and
    // fences, so elision leaves these three classes alone.
    if (!_gen.open && _rob.empty() && _sq.empty() && _poison.empty() &&
        (cls == InstClass::Alu || cls == InstClass::Branch ||
         cls == InstClass::Load)) {
        _cycle += _cfg.cpiOnChip;
        if (_collect) {
            ++_res.instructions;
            _res.onChipCycles += _cfg.cpiOnChip;
        }
        if (cls == InstClass::Branch) {
            if (_collect)
                ++_res.branches;
            bool correct =
                _bp.predictAndUpdate(pc, (meta >> 24) & kFlagTaken);
            if (!correct) {
                if (_collect)
                    ++_res.branchMispredicts;
                _cycle += _cfg.mispredictPenalty;
            }
        } else if (cls == InstClass::Load) {
            ChipNode::LoadOutcome out = _chip.load(addr);
            if (out.level == MissLevel::OffChip) {
                // Miss: same effects as executeEntry's load-miss arm,
                // and the entry does enter the (empty) ROB.
                if (_collect)
                    ++_res.missLoads;
                onMiss(MissKind::Load);
                _inflightLines.insert(lineOf(addr));
                RobEntry e;
                e.idx = _i;
                e.addr = addr;
                e.cls = cls;
                e.dst = meta & 0xff;
                e.src1 = (meta >> 8) & 0xff;
                e.src2 = (meta >> 16) & 0xff;
                e.release = ((meta >> 24) & kFlagLockRelease) != 0;
                e.state = RobState::WaitMiss;
                ++_waitLoadCount;
                _poison.set(e.dst);
                _rob.push_back(e);
            }
        }
        ++_i;
        _skipFetch = false;
        notePeerProgress();
        return true;
    }

    // ---- serializing instructions: pre-execution barrier ----
    // SLE removes the serializing semantics of elided lock sequences.
    if (plan.serializing && !elidedAt(_i)) {
        if (!handleSerializing(cur, plan.eff))
            return true; // retry after the stall / drain progress
    }

    // ---- dispatch resource checks ----
    // Elided stores never enter the store buffer.
    bool needs_sb = plan.isStore && !(_elisionActive && elidedAt(_i));
    auto window_blocked = [&] {
        return _rob.size() >= _cfg.robSize ||
            _deferredCount >= _cfg.issueWindowSize ||
            _waitLoadCount >= _cfg.loadBufferSize;
    };
    if (window_blocked() || (needs_sb && _sb.full())) {
        drainPipeline();
        if (window_blocked()) {
            if (!_gen.open) {
                throw std::logic_error(
                    "MlpSimulator: window blocked without an open "
                    "generation");
            }
            terminate(cur, classifyWindowBlock());
            return true;
        }
        if (needs_sb && _sb.full()) {
            if (!_gen.open) {
                throw std::logic_error(
                    "MlpSimulator: store buffer blocked without an "
                    "open generation");
            }
            terminate(cur, _sq.full() ? TermCond::SqStoreBufferFull
                                      : TermCond::StoreBufferFull);
            return true;
        }
    }

    // ---- dispatch ----
    dispatch(cur, pc, addr, cls, meta);
    ++_i;
    _skipFetch = false;
    notePeerProgress();
    // drainPipeline is a provable no-op unless the ROB head is
    // retirable or the store-queue head can commit; skip it then. (An
    // empty ROB implies an empty store buffer: every SB entry is owned
    // by a ROB store.) Under WC, commitStores can classify mid-queue
    // entries via L2 probes, so run it whenever the queue is nonempty.
    bool rob_can = !_rob.empty() &&
        _rob.front().state == RobState::Done &&
        (!_rob.front().isStore || !_sq.full());
    bool sq_can = false;
    if (!_sq.empty()) {
        if (_cfg.memoryModel.inOrderCommit()) {
            const SqEntry &h = _sq.head();
            sq_can = !(h.classified && h.missing && _gen.open);
        } else {
            sq_can = true;
        }
    }
    if (rob_can || sq_can)
        drainPipeline();
    return true;
}

void
MlpSimulator::process(TraceCursor &cur, uint64_t begin, uint64_t end,
                      bool collect)
{
    // Measurement boundary: resolve any warmup-era generation so its
    // misses are not attributed to a measured epoch. The flag flips
    // first so misses triggered by the flush's own pipeline drain are
    // counted as measured work (their epochs will be).
    bool was_collect = _collect;
    _collect = collect;
    if (collect && !was_collect && _gen.open)
        resolveGeneration();
    _i = begin;

    // Bookkeeping — chunk release and the forward-progress guard —
    // runs at batch boundaries instead of every step. The batch is
    // bounded in *iterations*, not dispatched instructions, because
    // stall paths legitimately retry the same index; and since `_i`
    // and `_cycle` are both monotone, equal snapshots across a whole
    // batch prove the batch made no progress at all, so the
    // no-forward-progress diagnostic keeps its ~100k-iteration fuse.
    constexpr uint64_t kBookkeepQuantum = 1024;
    uint64_t stuck = 0;
    uint64_t last_i = ~0ULL;
    double last_cycle = -1.0;

    while (_i < end) {
        bool eos = false;
        for (uint64_t n = 0; n < kBookkeepQuantum && _i < end; ++n) {
            if (!stepOne(cur)) {
                eos = true;
                break;
            }
        }
        // Chunks wholly behind the dispatch point are never read
        // again (lookahead only runs forward): release them.
        cur.trim(_i);
        if (eos)
            break;
        if (_i == last_i && _cycle == last_cycle) {
            stuck += kBookkeepQuantum;
            if (stuck > 100000) {
                throw std::logic_error(
                    "MlpSimulator: no forward progress at index " +
                    std::to_string(_i));
            }
        } else {
            stuck = 0;
            last_i = _i;
            last_cycle = _cycle;
        }
    }
}

SimResult
MlpSimulator::run(TraceSource &src, uint64_t warmup_insts)
{
    TraceCursor cur(src);
    uint64_t start = 0;
    if (warmup_insts) {
        process(cur, 0, warmup_insts, false);
        start = _i; // == min(warmup, stream length)
    }
    process(cur, start, ~uint64_t{0}, true);
    return takeResult();
}

SimResult
MlpSimulator::takeResult()
{
    // A generation still in flight at the end of the trace never
    // stalled the processor: treat it as quietly resolved.
    if (_gen.open) {
        if (_collect)
            _res.overlappedStores += _gen.stores;
        resolveGeneration();
    }
    return _res;
}

} // namespace storemlp
