/**
 * @file
 * Trace container implementation.
 */

#include "trace/trace.hh"

namespace storemlp
{

void
deriveLanes(const TraceRecord *data, uint64_t n, TraceLanes &out)
{
    out.pc.resize(n);
    out.addr.resize(n);
    out.cls.resize(n);
    out.meta.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
        const TraceRecord &r = data[i];
        out.pc[i] = r.pc;
        out.addr[i] = r.addr;
        out.cls[i] = static_cast<uint8_t>(r.cls);
        out.meta[i] = static_cast<uint32_t>(r.dst) |
            (static_cast<uint32_t>(r.src1) << 8) |
            (static_cast<uint32_t>(r.src2) << 16) |
            (static_cast<uint32_t>(r.flags) << 24);
    }
}

const char *
instClassName(InstClass c)
{
    switch (c) {
      case InstClass::Alu: return "alu";
      case InstClass::Load: return "load";
      case InstClass::Store: return "store";
      case InstClass::Branch: return "branch";
      case InstClass::AtomicCas: return "casa";
      case InstClass::Membar: return "membar";
      case InstClass::LoadLocked: return "lwarx";
      case InstClass::StoreCond: return "stwcx";
      case InstClass::Isync: return "isync";
      case InstClass::Lwsync: return "lwsync";
      default: return "?";
    }
}

void
Trace::Mix::add(const TraceRecord *data, uint64_t n)
{
    total += n;
    for (const TraceRecord *r = data; r != data + n; ++r) {
        if (r->cls == InstClass::AtomicCas ||
            r->cls == InstClass::StoreCond ||
            r->cls == InstClass::LoadLocked) {
            ++atomics;
        }
        if (isLoadClass(r->cls))
            ++loads;
        if (isStoreClass(r->cls))
            ++stores;
        if (r->cls == InstClass::Branch)
            ++branches;
        if (isBarrierClass(r->cls))
            ++barriers;
    }
}

Trace::Mix
Trace::mix() const
{
    Mix m;
    m.add(_records.data(), _records.size());
    return m;
}

TraceBuilder &
TraceBuilder::emit(TraceRecord r)
{
    r.pc = _pc;
    _pc += 4;
    _records.push_back(r);
    return *this;
}

TraceBuilder &
TraceBuilder::alu(uint8_t dst, uint8_t src1, uint8_t src2)
{
    TraceRecord r;
    r.cls = InstClass::Alu;
    r.dst = dst;
    r.src1 = src1;
    r.src2 = src2;
    return emit(r);
}

TraceBuilder &
TraceBuilder::load(uint64_t addr, uint8_t dst, uint8_t base)
{
    TraceRecord r;
    r.cls = InstClass::Load;
    r.addr = addr;
    r.size = 8;
    r.dst = dst;
    r.src1 = base;
    return emit(r);
}

TraceBuilder &
TraceBuilder::store(uint64_t addr, uint8_t data_src, uint8_t base)
{
    TraceRecord r;
    r.cls = InstClass::Store;
    r.addr = addr;
    r.size = 8;
    r.src1 = base;
    r.src2 = data_src;
    return emit(r);
}

TraceBuilder &
TraceBuilder::branch(bool taken, uint8_t src)
{
    TraceRecord r;
    r.cls = InstClass::Branch;
    r.src1 = src;
    if (taken)
        r.flags |= kFlagTaken;
    return emit(r);
}

TraceBuilder &
TraceBuilder::casa(uint64_t addr, uint8_t dst)
{
    TraceRecord r;
    r.cls = InstClass::AtomicCas;
    r.addr = addr;
    r.size = 8;
    r.dst = dst;
    return emit(r);
}

TraceBuilder &
TraceBuilder::membar()
{
    TraceRecord r;
    r.cls = InstClass::Membar;
    return emit(r);
}

TraceBuilder &
TraceBuilder::loadLocked(uint64_t addr, uint8_t dst)
{
    TraceRecord r;
    r.cls = InstClass::LoadLocked;
    r.addr = addr;
    r.size = 8;
    r.dst = dst;
    return emit(r);
}

TraceBuilder &
TraceBuilder::storeCond(uint64_t addr, uint8_t src)
{
    TraceRecord r;
    r.cls = InstClass::StoreCond;
    r.addr = addr;
    r.size = 8;
    r.src2 = src;
    return emit(r);
}

TraceBuilder &
TraceBuilder::isync()
{
    TraceRecord r;
    r.cls = InstClass::Isync;
    return emit(r);
}

TraceBuilder &
TraceBuilder::lwsync()
{
    TraceRecord r;
    r.cls = InstClass::Lwsync;
    return emit(r);
}

TraceBuilder &
TraceBuilder::withFlags(uint8_t flags)
{
    _records.back().flags |= flags;
    return *this;
}

TraceBuilder &
TraceBuilder::atPc(uint64_t pc)
{
    _records.back().pc = pc;
    _pc = pc + 4;
    return *this;
}

TraceBuilder &
TraceBuilder::withSize(uint8_t size)
{
    _records.back().size = size;
    return *this;
}

} // namespace storemlp
