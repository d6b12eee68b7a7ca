/**
 * @file
 * MLPsim: the epoch MLP model simulator (paper Section 4.1). Reads an
 * instruction trace and a microarchitecture configuration, partitions
 * execution into epochs by tracking register/memory dependences and
 * the window-termination conditions of Section 3, and reports MLP and
 * epoch statistics.
 *
 * Time model: on-chip execution advances an abstract cycle clock by
 * CPIon-chip per instruction; an off-chip miss opens a *provisional*
 * epoch ("generation") that resolves `missLatency` cycles after its
 * first miss issued. If a window-termination condition fires first,
 * the epoch is counted (the processor stalled); if the clock reaches
 * the resolve point quietly, the epoch is discarded and its store
 * misses are recorded as fully overlapped with computation (Table 2).
 */

#ifndef STOREMLP_CORE_MLP_SIM_HH
#define STOREMLP_CORE_MLP_SIM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/line_set.hh"

#include "coherence/chip.hh"
#include "consistency/sle.hh"
#include "consistency/transactional.hh"
#include "core/sim_config.hh"
#include "core/sim_result.hh"
#include "trace/lock_detector.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/regdep.hh"
#include "uarch/store_buffer.hh"
#include "uarch/store_queue.hh"

namespace storemlp
{

/**
 * The epoch-model simulator for one core. Owns pipeline bookkeeping;
 * borrows the chip-level memory system.
 */
/** One counted epoch, as reported to the epoch listener. */
struct EpochRecord
{
    uint64_t triggerIdx = 0;   ///< trace index where the stall hit
    double startCycle = 0.0;   ///< cycle at which the generation opened
    double resolveCycle = 0.0; ///< cycle at which its misses resolved
    TermCond cause = TermCond::None;
    uint32_t loads = 0;
    uint32_t stores = 0;
    uint32_t insts = 0;
    /** Store-buffer entries held when the epoch terminated. */
    uint32_t sbOccupancy = 0;
};

class MlpSimulator
{
  public:
    /**
     * @param config microarchitecture + optimization configuration
     * @param chip   coherent memory system of this core's chip
     * @param locks  lock analysis of the trace (required for SLE)
     */
    MlpSimulator(const SimConfig &config, ChipNode &chip,
                 const LockAnalysis *locks = nullptr);

    /**
     * Process records [begin, end) of the stream behind `cur`. May be
     * called repeatedly (e.g. an uncollected warmup pass followed by a
     * measured pass); pipeline and cache state persist across calls.
     * Stops early at end-of-stream, so `end` may be ~0 for "the rest".
     * @param collect record statistics into the result
     */
    void process(TraceCursor &cur, uint64_t begin, uint64_t end,
                 bool collect);

    /** Convenience: warmup then measure the rest of the stream. */
    SimResult run(TraceSource &src, uint64_t warmup_insts = 0);

    /**
     * Next trace index the simulator will dispatch: where the last
     * process() call stopped (its `end`, or the stream end).
     */
    uint64_t position() const { return _i; }

    /** Drain in-flight state and return accumulated statistics. */
    SimResult takeResult();

    /**
     * Hook invoked approximately every `peerQuantum` instructions with
     * the instruction delta, used to step peer-chip traffic agents in
     * lockstep with this core.
     */
    void setPeerHook(std::function<void(uint64_t)> hook);

    /**
     * Observer invoked for every *counted* epoch (after any scout
     * lookahead, before resolution) — a per-epoch event stream for
     * debugging and timeline visualization. Quietly-overlapped
     * generations are not reported.
     */
    using EpochListener = std::function<void(const EpochRecord &)>;
    void setEpochListener(EpochListener listener);

    const SimConfig &config() const { return _cfg; }

    /**
     * How far past the record it dispatches the simulator may read
     * the lock analysis: records before `end` read roles below
     * end + lockReadLead(config), so a growing analysis must cover
     * that far (LockFeedSource::coveredStop). `config` is the
     * simulator's own, with the profile's cpiOnChip.
     */
    static uint64_t lockReadLead(const SimConfig &config);

  private:
    // ---- pipeline bookkeeping ----
    /** Execution state of a ROB entry. */
    enum class RobState : uint8_t
    {
        Done,     ///< executed; eligible for in-order retirement
        WaitMiss, ///< load waiting on an off-chip miss
        Deferred, ///< sources poisoned; executes at epoch end
    };

    struct RobEntry
    {
        uint64_t idx = 0;      ///< trace index
        uint64_t addr = 0;     ///< effective address (memory ops)
        InstClass cls = InstClass::Alu;
        RobState state = RobState::Done;
        uint8_t dst = 0;
        uint8_t src1 = 0;
        uint8_t src2 = 0;
        bool isStore = false;  ///< owns a store buffer entry
        bool release = false;
        bool mispredCounted = false;
    };

    /**
     * Fixed-capacity ring buffer for the ROB. Dispatch never pushes
     * past robSize (the window check fires first), so capacity is
     * known up front; versus std::deque this keeps the whole window
     * in one contiguous allocation and makes push/pop/front a couple
     * of masked index operations.
     */
    class RobRing
    {
      public:
        /** Size for `capacity` entries (rounded up to a power of 2). */
        void
        reset(uint32_t capacity)
        {
            uint32_t cap = 1;
            while (cap < capacity + 1)
                cap <<= 1;
            _buf.resize(cap);
            _mask = cap - 1;
            _head = _tail = 0;
        }
        bool empty() const { return _head == _tail; }
        uint32_t size() const { return _tail - _head; }
        RobEntry &front() { return _buf[_head & _mask]; }
        const RobEntry &front() const { return _buf[_head & _mask]; }
        void push_back(const RobEntry &e) { _buf[_tail++ & _mask] = e; }
        void pop_front() { ++_head; }
        /** Visit entries oldest-first; `fn` may mutate them. */
        template <typename Fn>
        void
        forEach(Fn &&fn)
        {
            for (uint32_t i = _head; i != _tail; ++i)
                fn(_buf[i & _mask]);
        }

      private:
        std::vector<RobEntry> _buf;
        uint32_t _mask = 0;
        uint32_t _head = 0; ///< free-running; wrap via _mask
        uint32_t _tail = 0;
    };

    /** Provisional epoch in flight. */
    struct Generation
    {
        bool open = false;
        double startCycle = 0.0;
        double resolveCycle = 0.0;
        uint64_t loads = 0;
        uint64_t stores = 0;
        uint64_t insts = 0;
        uint64_t total() const { return loads + stores + insts; }
    };

    /**
     * Per-InstClass dispatch plan, precomputed from the config in the
     * constructor so the hot loop reads one table entry instead of
     * re-deriving serialization/store behavior per record.
     */
    struct ClassPlan
    {
        SerializeEffect eff;
        bool serializing = false; ///< eff.pipelineDrain || storeDrain
        bool isStore = false;
    };

    // ---- main loop steps ----
    /** One fetch/dispatch step; false once _i is past the stream. */
    bool stepOne(TraceCursor &cur);
    /** Execute (or defer) the record at _rob entry e; replay-safe. */
    void executeEntry(RobEntry &e, bool replay);
    /** Dispatch one record, handed in as lane values (see stepOne). */
    void dispatch(TraceCursor &cur, uint64_t pc, uint64_t addr,
                  InstClass cls, uint32_t meta);
    bool handleSerializing(TraceCursor &cur, SerializeEffect eff);

    // ---- retirement / commit ----
    void drainPipeline();
    void commitStores();
    /** Classify an SQ entry via the memory system; issue its miss. */
    void classifyEntry(SqEntry &e);
    void retireStoreIntoSq(RobEntry &rob_entry);

    // ---- epoch machinery ----
    void onMiss(MissKind kind);
    void terminate(TraceCursor &cur, TermCond cond);
    void resolveGeneration();
    void checkQuietResolve();
    /** Blocked-dispatch termination cause classification. */
    TermCond classifyWindowBlock() const;

    // ---- lookahead engines (scout.cc) ----
    /** Hardware Scout: run ahead during the stall, prefetching. */
    void runScout(TraceCursor &cur);
    /** Prefetch past a serializing instruction (ROB-bounded). */
    void runSerializeLookahead(TraceCursor &cur);
    /** Shared lookahead core. */
    void lookahead(TraceCursor &cur, uint64_t start, uint64_t budget,
                   bool prefetch_stores, bool train_predictor);
    bool scoutEligible(TermCond cond) const;

    // ---- helpers ----
    /** Combined SLE / transactional-memory elision at a trace index. */
    bool elidedAt(uint64_t idx);
    /** Combined elision action (TM actions map onto SLE's). */
    Sle::Action elideAction(uint64_t idx);
    bool poisoned(uint8_t src1, uint8_t src2) const;
    /**
     * Branch-free in the common single-core case: a dead bool test
     * when no peer hook is installed. peerTick keeps the exact
     * kPeerQuantum cadence dual-core determinism depends on.
     */
    void notePeerProgress()
    {
        if (_peerActive)
            peerTick();
    }
    void peerTick();
    uint64_t lineOf(uint64_t addr) const { return _chip.hierarchy().lineAddr(addr); }

    SimConfig _cfg;
    ChipNode &_chip;
    Sle _sle;
    TransactionalMemory _tm;
    ClassPlan _plan[static_cast<size_t>(InstClass::NumClasses)];
    bool _elisionActive = false; ///< SLE or TM installed

    // pipeline state
    RobRing _rob;
    StoreBuffer _sb;
    StoreQueue _sq;
    BranchPredictor _bp;
    RegPoison _poison;
    uint32_t _deferredCount = 0; ///< issue-window occupancy
    uint32_t _waitLoadCount = 0; ///< load-buffer occupancy
    uint32_t _fenceSeq = 0;      ///< lwsync fence epoch

    // epoch state
    Generation _gen;
    LineSet _inflightLines;

    // loop state
    uint64_t _i = 0;
    bool _skipFetch = false;
    double _cycle = 0.0;
    bool _collect = false;
    SimResult _res;

    // observers
    EpochListener _epochListener;

    // peer stepping
    std::function<void(uint64_t)> _peerHook;
    bool _peerActive = false; ///< _peerHook is installed
    uint64_t _peerPending = 0;
    static constexpr uint64_t kPeerQuantum = 64;

    // forward progress guard
    uint64_t _lastProgressIdx = ~0ULL;
    uint32_t _stallRetries = 0;
};

} // namespace storemlp

#endif // STOREMLP_CORE_MLP_SIM_HH
