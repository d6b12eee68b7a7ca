/**
 * @file
 * Trace container and builder.
 */

#ifndef STOREMLP_TRACE_TRACE_HH
#define STOREMLP_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/inst.hh"

namespace storemlp
{

/**
 * Structure-of-arrays mirror of a record sequence: one contiguous
 * lane per field the simulation hot loop reads. `meta` packs the
 * register/flag bytes as dst | src1<<8 | src2<<16 | flags<<24.
 */
struct TraceLanes
{
    std::vector<uint64_t> pc;
    std::vector<uint64_t> addr;
    std::vector<uint8_t> cls;
    std::vector<uint32_t> meta;
};

/** Derive the SoA lanes of `n` records starting at `data`. */
void deriveLanes(const TraceRecord *data, uint64_t n, TraceLanes &out);

/**
 * A dynamic instruction trace plus summary statistics. Traces are
 * immutable once built; the simulator only reads them.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::vector<TraceRecord> records)
        : _records(std::move(records))
    {
    }

    const std::vector<TraceRecord> &records() const { return _records; }
    size_t size() const { return _records.size(); }
    bool empty() const { return _records.empty(); }
    const TraceRecord &operator[](size_t i) const { return _records[i]; }

    /** Summary counts used by Table 1 style reporting and tests. */
    struct Mix
    {
        uint64_t total = 0;
        uint64_t loads = 0;
        uint64_t stores = 0;
        uint64_t branches = 0;
        uint64_t atomics = 0;
        uint64_t barriers = 0;

        /** Tally `n` more records (a chunk of a streamed trace). */
        void add(const TraceRecord *data, uint64_t n);
    };
    Mix mix() const;

  private:
    std::vector<TraceRecord> _records;
};

/**
 * Fluent builder for hand-written test traces (used heavily by the
 * paper-example unit tests). Registers default to 0 (= none) and pcs
 * auto-increment by 4 unless overridden.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(uint64_t start_pc = 0x1000) : _pc(start_pc) {}

    TraceBuilder &alu(uint8_t dst = 0, uint8_t src1 = 0, uint8_t src2 = 0);
    TraceBuilder &load(uint64_t addr, uint8_t dst = 0, uint8_t base = 0);
    TraceBuilder &store(uint64_t addr, uint8_t data_src = 0,
                        uint8_t base = 0);
    TraceBuilder &branch(bool taken, uint8_t src = 0);
    TraceBuilder &casa(uint64_t addr, uint8_t dst = 0);
    TraceBuilder &membar();
    TraceBuilder &loadLocked(uint64_t addr, uint8_t dst = 0);
    TraceBuilder &storeCond(uint64_t addr, uint8_t src = 0);
    TraceBuilder &isync();
    TraceBuilder &lwsync();

    /** Mark flags on the most recently appended record. */
    TraceBuilder &withFlags(uint8_t flags);
    /** Override the pc of the most recently appended record. */
    TraceBuilder &atPc(uint64_t pc);
    /** Override the access size of the most recent record. */
    TraceBuilder &withSize(uint8_t size);

    Trace build() { return Trace(std::move(_records)); }
    size_t size() const { return _records.size(); }

  private:
    TraceBuilder &emit(TraceRecord r);

    std::vector<TraceRecord> _records;
    uint64_t _pc;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_HH
