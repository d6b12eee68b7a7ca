/**
 * @file
 * v4 chunk codec implementation. Encoding is stream-split within a
 * chunk (control bytes, pc-delta varints, address-XOR varints, packed
 * register blocks, flag bytes, aux escapes live in separate sections)
 * so the decoder can validate and decode each section wide instead of
 * interleaving per-record byte parsing; see docs/TRACE_FORMAT.md for
 * the byte-level layout and Lemire & Boytsov, "Decoding billions of
 * integers per second through vectorization", for the technique.
 */

#include "trace/trace_codec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "trace/trace_format.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace storemlp::trace_codec
{

namespace
{

using namespace trace_format;

/** Bit i set iff InstClass(i) is a memory class (isMemClass). */
constexpr uint16_t kMemClassMask =
    (1u << static_cast<unsigned>(InstClass::Load)) |
    (1u << static_cast<unsigned>(InstClass::Store)) |
    (1u << static_cast<unsigned>(InstClass::AtomicCas)) |
    (1u << static_cast<unsigned>(InstClass::LoadLocked)) |
    (1u << static_cast<unsigned>(InstClass::StoreCond));

inline bool
memClassBits(uint8_t cls_bits)
{
    return (kMemClassMask >> cls_bits) & 1;
}

[[noreturn]] void
fail(const std::string &msg)
{
    throw TraceFormatError(msg);
}

// ---- control-byte scan ------------------------------------------------

struct CtrlCounts
{
    uint64_t nonseq = 0; ///< records carrying a pc-delta varint
    uint64_t mem = 0;    ///< records carrying an address varint
    uint64_t regs = 0;   ///< records carrying a register block
    uint64_t flags = 0;  ///< records carrying a flags byte
};

[[noreturn]] void
failCtrl(uint8_t c)
{
    if (c & kCtrlReserved)
        fail("reserved control bit set");
    fail("invalid instruction class");
}

inline void
scanCtrlByte(uint8_t c, CtrlCounts &counts)
{
    uint8_t cls_bits = c & 0x0f;
    if ((c & kCtrlReserved) ||
        cls_bits >= static_cast<uint8_t>(InstClass::NumClasses))
        failCtrl(c);
    counts.nonseq += !(c & kCtrlSeqPc);
    counts.mem += memClassBits(cls_bits);
    counts.regs += (c >> 5) & 1;
    counts.flags += (c >> 6) & 1;
}

/**
 * Validate all `n` control bytes (reserved bit clear, class in range)
 * and tally the section populations, wide where the ISA allows:
 * 32 bytes per step under AVX2, 16 under SSE2, 8 via SWAR elsewhere.
 */
CtrlCounts
scanCtrl(const uint8_t *c, uint64_t n)
{
    CtrlCounts counts;
    uint64_t i = 0;

#if defined(__AVX2__)
    const __m256i lo_mask = _mm256_set1_epi8(0x0f);
    const __m256i nine = _mm256_set1_epi8(9);
    for (; i + 32 <= n; i += 32) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c + i));
        __m256i lo = _mm256_and_si256(x, lo_mask);
        if (_mm256_movemask_epi8(x) ||
            _mm256_movemask_epi8(_mm256_cmpgt_epi8(lo, nine))) {
            // Locate the bad byte for the precise diagnostic.
            for (uint64_t k = 0; k < 32; ++k)
                scanCtrlByte(c[i + k], counts);
        }
        // movemask reads bit 7 of every byte; shifting left within
        // 16-bit lanes moves each byte's bit 4/5/6 into its bit 7
        // (low-byte bleed lands in lane bits 8..10, never bit 15).
        uint32_t seq = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(x, 3)));
        uint32_t regs = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(x, 2)));
        uint32_t flags = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(x, 1)));
        __m256i mem = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_cmpeq_epi8(lo, _mm256_set1_epi8(1)),
                _mm256_cmpeq_epi8(lo, _mm256_set1_epi8(2))),
            _mm256_or_si256(
                _mm256_cmpeq_epi8(lo, _mm256_set1_epi8(4)),
                _mm256_or_si256(
                    _mm256_cmpeq_epi8(lo, _mm256_set1_epi8(6)),
                    _mm256_cmpeq_epi8(lo, _mm256_set1_epi8(7)))));
        counts.nonseq += 32 - std::popcount(seq);
        counts.regs += std::popcount(regs);
        counts.flags += std::popcount(flags);
        counts.mem += std::popcount(static_cast<uint32_t>(
            _mm256_movemask_epi8(mem)));
    }
#elif defined(__SSE2__)
    const __m128i lo_mask = _mm_set1_epi8(0x0f);
    const __m128i nine = _mm_set1_epi8(9);
    for (; i + 16 <= n; i += 16) {
        __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(c + i));
        __m128i lo = _mm_and_si128(x, lo_mask);
        if (_mm_movemask_epi8(x) ||
            _mm_movemask_epi8(_mm_cmpgt_epi8(lo, nine))) {
            for (uint64_t k = 0; k < 16; ++k)
                scanCtrlByte(c[i + k], counts);
        }
        uint32_t seq = static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_slli_epi16(x, 3)));
        uint32_t regs = static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_slli_epi16(x, 2)));
        uint32_t flags = static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_slli_epi16(x, 1)));
        __m128i mem = _mm_or_si128(
            _mm_or_si128(_mm_cmpeq_epi8(lo, _mm_set1_epi8(1)),
                         _mm_cmpeq_epi8(lo, _mm_set1_epi8(2))),
            _mm_or_si128(
                _mm_cmpeq_epi8(lo, _mm_set1_epi8(4)),
                _mm_or_si128(_mm_cmpeq_epi8(lo, _mm_set1_epi8(6)),
                             _mm_cmpeq_epi8(lo, _mm_set1_epi8(7)))));
        counts.nonseq += 16 - std::popcount(seq & 0xffffu);
        counts.regs += std::popcount(regs & 0xffffu);
        counts.flags += std::popcount(flags & 0xffffu);
        counts.mem += std::popcount(static_cast<uint32_t>(
                                        _mm_movemask_epi8(mem)) &
                                    0xffffu);
    }
#else
    constexpr uint64_t kHi = 0x8080808080808080ULL;
    constexpr uint64_t kLo = 0x0f0f0f0f0f0f0f0fULL;
    for (; i + 8 <= n; i += 8) {
        uint64_t v;
        std::memcpy(&v, c + i, 8);
        uint64_t lo = v & kLo;
        // A nibble >= 10 carries into bit 4 when 6 is added.
        if ((v & kHi) ||
            ((lo + 0x0606060606060606ULL) & 0x1010101010101010ULL)) {
            for (uint64_t k = 0; k < 8; ++k)
                scanCtrlByte(c[i + k], counts);
        }
        counts.nonseq +=
            8 - std::popcount(v & 0x1010101010101010ULL);
        counts.regs += std::popcount(v & 0x2020202020202020ULL);
        counts.flags += std::popcount(v & 0x4040404040404040ULL);
        for (uint64_t k = 0; k < 8; ++k)
            counts.mem += memClassBits(c[i + k] & 0x0f);
    }
#endif

    for (; i < n; ++i)
        scanCtrlByte(c[i], counts);
    return counts;
}

// ---- batch varint decode ----------------------------------------------

/** One bounds-checked LEB128 varint of at most 10 bytes. */
inline uint64_t
getVarintChecked(const uint8_t *p, uint64_t len, uint64_t &off)
{
    uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (off >= len)
            fail("truncated varint");
        uint8_t b = p[off++];
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    fail("overlong varint");
}

/**
 * Decode exactly `count` varints occupying exactly `len` bytes into
 * `out`. Wide fast path: a single load tests 8 (SWAR) or 16 (SSE2)
 * continuation bits at once, so runs of single-byte varints — the
 * common case for pc deltas and hot-region address XORs — decode
 * without per-value branching.
 */
void
decodeVarintStream(const uint8_t *p, uint64_t len, uint64_t count,
                   uint64_t *out, const char *what)
{
    uint64_t off = 0;
    uint64_t i = 0;
    while (i < count) {
#if defined(__SSE2__)
        if (off + 16 <= len) {
            __m128i x = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + off));
            uint32_t cont =
                static_cast<uint32_t>(_mm_movemask_epi8(x)) & 0xffffu;
            uint64_t singles =
                cont ? std::countr_zero(cont) : uint64_t{16};
            if (singles > count - i)
                singles = count - i;
            for (uint64_t k = 0; k < singles; ++k)
                out[i + k] = p[off + k];
            i += singles;
            off += singles;
            if (singles)
                continue;
        }
#else
        if (off + 8 <= len && i + 8 <= count) {
            uint64_t v;
            std::memcpy(&v, p + off, 8);
            if (!(v & 0x8080808080808080ULL)) {
                for (uint64_t k = 0; k < 8; ++k)
                    out[i + k] = p[off + k];
                i += 8;
                off += 8;
                continue;
            }
        }
#endif
        out[i++] = getVarintChecked(p, len, off);
    }
    if (off != len)
        fail(std::string(what) + " stream length mismatch (" +
             std::to_string(len - off) + " trailing bytes)");
}

// ---- register block packing -------------------------------------------

inline uint8_t
sizeCodeFor(uint8_t size)
{
    if (size == 0)
        return 0;
    if ((size & (size - 1)) == 0) {
        // Power of two: 1 << (code - 1), codes 1..8.
        return static_cast<uint8_t>(std::countr_zero(size) + 1);
    }
    return kSizeCodeEscape;
}

inline void
unpackRegs(const uint8_t *b, TraceRecord &r, const uint8_t *aux,
           uint64_t aux_len, uint64_t &aux_off)
{
    if (b[2] & 0xc0)
        fail("reserved register-block bits set");
    r.dst = b[0] & 0x3f;
    r.src1 = b[1] & 0x3f;
    r.src2 = b[2] & 0x3f;
    uint8_t code = static_cast<uint8_t>((b[0] >> 6) | ((b[1] >> 6) << 2));
    if (code == 0) {
        r.size = 0;
    } else if (code <= 8) {
        r.size = static_cast<uint8_t>(1u << (code - 1));
    } else if (code == kSizeCodeEscape) {
        if (aux_off >= aux_len)
            fail("truncated aux stream");
        r.size = aux[aux_off++];
    } else {
        fail("reserved size code " + std::to_string(code));
    }
}

} // namespace

// ---- index entries ----------------------------------------------------

V4IndexEntry
readV4IndexEntry(const uint8_t *p)
{
    V4IndexEntry e;
    e.records = getU64(p);
    e.byteOff = getU64(p + 8);
    e.byteLen = getU64(p + 16);
    e.seeds.pc = getU64(p + 24);
    e.seeds.addr = getU64(p + 32);
    return e;
}

void
writeV4IndexEntry(uint8_t *p, const V4IndexEntry &e)
{
    putU64(p, e.records);
    putU64(p + 8, e.byteOff);
    putU64(p + 16, e.byteLen);
    putU64(p + 24, e.seeds.pc);
    putU64(p + 32, e.seeds.addr);
}

V4IndexValidator::V4IndexValidator(uint64_t count, uint64_t chunk_insts,
                                   uint64_t chunk_count)
    : _count(count), _chunkInsts(chunk_insts), _chunkCount(chunk_count)
{
    if (count == 0) {
        if (chunk_count != 0)
            fail("v4 chunk count " + std::to_string(chunk_count) +
                 " for an empty trace");
        return;
    }
    if (chunk_insts == 0)
        fail("v4 chunk size is zero");
    if (chunk_insts > kMaxChunkInstsV4)
        fail("v4 chunk size " + std::to_string(chunk_insts) +
             " exceeds limit " + std::to_string(kMaxChunkInstsV4));
    uint64_t expected = (count + chunk_insts - 1) / chunk_insts;
    if (chunk_count != expected)
        fail("v4 chunk count " + std::to_string(chunk_count) +
             " does not match " + std::to_string(count) +
             " records in chunks of " + std::to_string(chunk_insts));
}

void
V4IndexValidator::feed(const V4IndexEntry &e, uint64_t idx)
{
    uint64_t expected_records = idx + 1 == _chunkCount
        ? _count - idx * _chunkInsts
        : _chunkInsts;
    if (e.records != expected_records)
        fail("v4 chunk " + std::to_string(idx) + " record count " +
             std::to_string(e.records) + " (expected " +
             std::to_string(expected_records) + ")");
    if (e.byteOff != _nextOff)
        fail("v4 chunk " + std::to_string(idx) + " offset " +
             std::to_string(e.byteOff) + " is not contiguous (expected " +
             std::to_string(_nextOff) + ")");
    uint64_t min_len = kChunkHeaderBytesV4 + e.records;
    uint64_t max_len =
        kChunkHeaderBytesV4 + e.records * kMaxRecordBytesV4;
    if (e.byteLen < min_len || e.byteLen > max_len)
        fail("v4 chunk " + std::to_string(idx) + " byte length " +
             std::to_string(e.byteLen) + " outside plausible range [" +
             std::to_string(min_len) + ", " + std::to_string(max_len) +
             "]");
    _nextOff += e.byteLen;
    ++_fed;
}

void
V4IndexValidator::finish(uint64_t body_bytes) const
{
    if (_fed != _chunkCount)
        fail("v4 chunk index truncated (" + std::to_string(_fed) +
             " of " + std::to_string(_chunkCount) + " entries)");
    if (_nextOff != body_bytes)
        fail("v4 chunk index does not match stream size (chunks claim " +
             std::to_string(_nextOff) + " of " +
             std::to_string(body_bytes) + " body bytes)");
}

// ---- encode -----------------------------------------------------------

uint64_t
encodeV4Chunk(std::vector<uint8_t> &out, const TraceRecord *records,
              uint64_t n, CodecSeeds &seeds)
{
    size_t base = out.size();
    // Grow geometrically: callers append many chunks to one vector,
    // and an exact reserve per chunk would copy the whole body each
    // time.
    size_t want = base + kChunkHeaderBytesV4 + 6 * n;
    if (out.capacity() < want)
        out.reserve(std::max(want, 2 * out.capacity()));
    out.resize(base + kChunkHeaderBytesV4);

    std::vector<uint8_t> pcs, addrs, regs, flags, aux;
    pcs.reserve(n / 4);
    addrs.reserve(n);
    regs.reserve(3 * n);

    uint64_t prev_pc = seeds.pc;
    uint64_t prev_addr = seeds.addr;
    for (uint64_t i = 0; i < n; ++i) {
        const TraceRecord &r = records[i];
        bool seq = r.pc == prev_pc + 4;
        bool has_regs = r.dst || r.src1 || r.src2 || r.size;
        uint8_t ctrl = static_cast<uint8_t>(r.cls);
        if (seq) {
            ctrl |= kCtrlSeqPc;
        } else {
            appendVarint(pcs, zigzag(static_cast<int64_t>(r.pc) -
                                     static_cast<int64_t>(prev_pc)));
        }
        prev_pc = r.pc;

        if (isMemClass(r.cls)) {
            appendVarint(addrs, r.addr ^ prev_addr);
            prev_addr = r.addr;
        }
        if (has_regs) {
            ctrl |= kCtrlRegs;
            if ((r.dst | r.src1 | r.src2) & ~0x3f)
                fail("register id out of range for v4 encoding "
                     "(ids must be < 64)");
            uint8_t code = sizeCodeFor(r.size);
            if (code == kSizeCodeEscape)
                aux.push_back(r.size);
            regs.push_back(
                static_cast<uint8_t>(r.dst | ((code & 3) << 6)));
            regs.push_back(static_cast<uint8_t>(
                r.src1 | (((code >> 2) & 3) << 6)));
            regs.push_back(r.src2);
        }
        if (r.flags) {
            ctrl |= kCtrlFlags;
            flags.push_back(r.flags);
        }
        out.push_back(ctrl);
    }

    for (const std::vector<uint8_t> *sec :
         {&pcs, &addrs, &regs, &flags, &aux}) {
        if (sec->size() > UINT32_MAX)
            fail("v4 chunk section exceeds 4 GiB; use a smaller "
                 "chunk size");
        out.insert(out.end(), sec->begin(), sec->end());
    }
    putU32(out.data() + base, static_cast<uint32_t>(pcs.size()));
    putU32(out.data() + base + 4, static_cast<uint32_t>(addrs.size()));
    putU32(out.data() + base + 8, static_cast<uint32_t>(regs.size()));
    putU32(out.data() + base + 12,
           static_cast<uint32_t>(flags.size()));
    putU32(out.data() + base + 16, static_cast<uint32_t>(aux.size()));

    seeds.pc = prev_pc;
    seeds.addr = prev_addr;
    return out.size() - base;
}

// ---- decode -----------------------------------------------------------

std::vector<TraceRecord>
decodeV4Chunk(const uint8_t *p, uint64_t len, uint64_t n,
              const CodecSeeds &seeds)
{
    if (len < kChunkHeaderBytesV4 + n)
        fail("truncated v4 chunk");
    uint64_t pc_len = getU32(p);
    uint64_t addr_len = getU32(p + 4);
    uint64_t regs_len = getU32(p + 8);
    uint64_t flags_len = getU32(p + 12);
    uint64_t aux_len = getU32(p + 16);
    if (kChunkHeaderBytesV4 + n + pc_len + addr_len + regs_len +
            flags_len + aux_len !=
        len)
        fail("v4 chunk section lengths do not match chunk size");

    const uint8_t *ctrl = p + kChunkHeaderBytesV4;
    const uint8_t *pc_sec = ctrl + n;
    const uint8_t *addr_sec = pc_sec + pc_len;
    const uint8_t *regs_sec = addr_sec + addr_len;
    const uint8_t *flags_sec = regs_sec + regs_len;
    const uint8_t *aux_sec = flags_sec + flags_len;

    CtrlCounts counts = scanCtrl(ctrl, n);
    if (regs_len != 3 * counts.regs)
        fail("v4 register stream length mismatch (" +
             std::to_string(regs_len) + " bytes for " +
             std::to_string(counts.regs) + " blocks)");
    if (flags_len != counts.flags)
        fail("v4 flags stream length mismatch (" +
             std::to_string(flags_len) + " bytes for " +
             std::to_string(counts.flags) + " records)");

    std::vector<uint64_t> deltas(counts.nonseq);
    decodeVarintStream(pc_sec, pc_len, counts.nonseq, deltas.data(),
                       "v4 pc");
    std::vector<uint64_t> xors(counts.mem);
    decodeVarintStream(addr_sec, addr_len, counts.mem, xors.data(),
                       "v4 address");

    std::vector<TraceRecord> recs(n);
    uint64_t prev_pc = seeds.pc;
    uint64_t prev_addr = seeds.addr;
    uint64_t di = 0;
    uint64_t ai = 0;
    uint64_t aux_off = 0;
    const uint8_t *rp = regs_sec;
    const uint8_t *fp = flags_sec;

    uint64_t i = 0;
    while (i < n) {
        uint8_t c = ctrl[i];
        // Wide fill: 8 identical sequential-pc control bytes decode
        // as one fixed-shape block (the common case — hot loops emit
        // long runs of one instruction pattern).
        if ((c & kCtrlSeqPc) && i + 8 <= n) {
            uint64_t v;
            std::memcpy(&v, ctrl + i, 8);
            if (v == 0x0101010101010101ULL * c) {
                InstClass cls = static_cast<InstClass>(c & 0x0f);
                bool is_mem = memClassBits(c & 0x0f);
                bool has_regs = c & kCtrlRegs;
                bool has_flags = c & kCtrlFlags;
                for (uint64_t k = 0; k < 8; ++k) {
                    TraceRecord &r = recs[i + k];
                    r.cls = cls;
                    prev_pc += 4;
                    r.pc = prev_pc;
                    if (is_mem) {
                        prev_addr ^= xors[ai++];
                        r.addr = prev_addr;
                    }
                    if (has_regs) {
                        unpackRegs(rp, r, aux_sec, aux_len, aux_off);
                        rp += 3;
                    }
                    if (has_flags)
                        r.flags = *fp++;
                }
                i += 8;
                continue;
            }
        }

        TraceRecord &r = recs[i];
        r.cls = static_cast<InstClass>(c & 0x0f);
        if (c & kCtrlSeqPc) {
            prev_pc += 4;
        } else {
            prev_pc = static_cast<uint64_t>(
                static_cast<int64_t>(prev_pc) +
                unzigzag(deltas[di++]));
        }
        r.pc = prev_pc;
        if (memClassBits(c & 0x0f)) {
            prev_addr ^= xors[ai++];
            r.addr = prev_addr;
        }
        if (c & kCtrlRegs) {
            unpackRegs(rp, r, aux_sec, aux_len, aux_off);
            rp += 3;
        }
        if (c & kCtrlFlags)
            r.flags = *fp++;
        ++i;
    }

    if (aux_off != aux_len)
        fail("v4 aux stream length mismatch (" +
             std::to_string(aux_len - aux_off) + " trailing bytes)");
    return recs;
}

} // namespace storemlp::trace_codec
