/**
 * @file
 * On-disk trace format internals shared by the trace writer
 * (trace_io.cc), the trace reader (trace_file_source.cc) and the v4
 * chunk codec (trace_codec.cc).
 *
 * The normative wire-format specification — byte layouts, encodings,
 * and corruption-rejection rules — lives in docs/TRACE_FORMAT.md.
 * One container is read and written, v4 ("SMLPTRC4"): a metadata
 * envelope — body-format byte 3, u32 fingerprint length + fingerprint
 * string (the provenance of the trace bytes: profile/seed/length/
 * rewrite), u64 count — then chunk geometry (u64 chunk size, u64
 * chunk count), a chunk index table (per-chunk record count, byte
 * offset/length, pc/address seeds), and independently decodable
 * compressed chunks: zigzag-varint pc deltas, XOR-varint addresses,
 * packed 3-byte register blocks. The index gives random access and
 * parallel decode.
 *
 * The retired v1 ("SMLPTRC1"), v2 ("SMLPTRC2") and v3 ("SMLPTRC3")
 * magics are kept only so such files are rejected by name.
 */

#ifndef STOREMLP_TRACE_TRACE_FORMAT_HH
#define STOREMLP_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <vector>

namespace storemlp::trace_format
{

inline constexpr char kMagicV4[8] = {'S', 'M', 'L', 'P', 'T', 'R', 'C',
                                     '4'};
/** Retired containers, recognized only to reject them by name. */
inline constexpr char kMagicV1[8] = {'S', 'M', 'L', 'P', 'T', 'R', 'C',
                                     '1'};
inline constexpr char kMagicV2[8] = {'S', 'M', 'L', 'P', 'T', 'R', 'C',
                                     '2'};
inline constexpr char kMagicV3[8] = {'S', 'M', 'L', 'P', 'T', 'R', 'C',
                                     '3'};
inline constexpr uint64_t kMagicBytes = 8;
/** Fingerprint strings longer than this are rejected as corrupt. */
inline constexpr uint64_t kMaxMetaBytes = 4096;

/** The only body-format byte a v4 envelope may carry. */
inline constexpr uint8_t kBodyChunked = 3; ///< chunk-indexed

// v4 control byte layout: bits 0-3 class, bit 4 pc==prev+4, bit 5
// register/size block present, bit 6 flags byte present, bit 7
// reserved (must be zero).
inline constexpr uint8_t kCtrlSeqPc = 1 << 4;
inline constexpr uint8_t kCtrlRegs = 1 << 5;
inline constexpr uint8_t kCtrlFlags = 1 << 6;
inline constexpr uint8_t kCtrlReserved = 1 << 7;

// ---- v4 container geometry ----
/** Chunk index entry: records, byteOff, byteLen, pcSeed, addrSeed. */
inline constexpr uint64_t kIndexEntryBytesV4 = 40;
/** Per-chunk section header: pc/addr/regs/flags/aux u32 lengths. */
inline constexpr uint64_t kChunkHeaderBytesV4 = 20;
/**
 * Worst-case encoded bytes per record inside a v4 chunk: control
 * byte + 10-byte pc varint + 10-byte address varint + 3-byte register
 * block + flags byte + aux size byte. Index entries whose byteLen
 * exceeds kChunkHeaderBytesV4 + records * this are rejected as
 * corrupt before any allocation.
 */
inline constexpr uint64_t kMaxRecordBytesV4 = 26;
/**
 * Largest chunk size a v4 file may declare. Caps the worst-case
 * decoded-chunk footprint and keeps every per-chunk section length
 * within its u32 field (2^26 records * kMaxRecordBytesV4 < 2^32).
 */
inline constexpr uint64_t kMaxChunkInstsV4 = uint64_t{1} << 26;

/**
 * v4 packed register block size codes (4 bits, split across the top
 * bits of the block's first two bytes): 0 encodes size 0, codes 1..8
 * encode 1 << (code-1), code 15 defers to a raw size byte in the aux
 * stream. Codes 9..14 are reserved and rejected.
 */
inline constexpr uint8_t kSizeCodeEscape = 15;

inline void
putU64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

inline void
putU32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

/** Append `v` as a LEB128 varint (7 bits per byte, low first). */
inline void
appendVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

inline uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

} // namespace storemlp::trace_format

#endif // STOREMLP_TRACE_TRACE_FORMAT_HH
