/**
 * @file
 * v4 chunk codec: encode/decode one independently decodable
 * compressed chunk of TraceRecords, and validate a v4 chunk index.
 * Shared by the trace writer (trace_io.cc) and the trace reader
 * (trace_file_source.cc); the wire layout is specified in
 * docs/TRACE_FORMAT.md.
 *
 * The decoder is a wide, chunk-at-a-time path: the control bytes are
 * validated 16 at a time (SSE2, or SWAR on a u64 elsewhere; AVX2
 * widens to 32 when the build enables it), the pc-delta and
 * address-XOR varint streams are batch-decoded with a one-load
 * fast path for runs of single-byte varints, and runs of identical
 * control bytes fill records eight at a time. Decoding one chunk
 * never touches bytes outside [chunk, chunk + byteLen).
 */

#ifndef STOREMLP_TRACE_TRACE_CODEC_HH
#define STOREMLP_TRACE_TRACE_CODEC_HH

#include <cstdint>
#include <vector>

#include "trace/inst.hh"
#include "trace/trace_io.hh"

namespace storemlp::trace_codec
{

/**
 * Decode state carried across chunk boundaries. The encoder threads
 * one CodecSeeds through consecutive chunks; the per-chunk values are
 * recorded in the chunk index so any chunk decodes independently.
 * Chunk 0 starts from {0, 0}.
 */
struct CodecSeeds
{
    uint64_t pc = 0;   ///< pc of the record preceding the chunk
    uint64_t addr = 0; ///< address of the preceding memory record
};

/** One parsed v4 chunk index entry (kIndexEntryBytesV4 bytes). */
struct V4IndexEntry
{
    uint64_t records = 0;
    uint64_t byteOff = 0; ///< relative to the start of the body
    uint64_t byteLen = 0;
    CodecSeeds seeds;
};

V4IndexEntry readV4IndexEntry(const uint8_t *p);
void writeV4IndexEntry(uint8_t *p, const V4IndexEntry &e);

/**
 * Incremental validator for an untrusted v4 chunk index. Feed entries
 * in order; every structural rule (per-chunk record counts derived
 * from the envelope's count/chunkInsts, contiguous byte offsets,
 * byteLen bounds) throws TraceFormatError on violation *before* any
 * chunk memory is allocated. `finish` checks that the chunks cover
 * the body exactly.
 */
class V4IndexValidator
{
  public:
    /** Throws TraceFormatError on impossible geometry. */
    V4IndexValidator(uint64_t count, uint64_t chunk_insts,
                     uint64_t chunk_count);

    /** Validate entry `idx` (0-based, in order). */
    void feed(const V4IndexEntry &e, uint64_t idx);

    /** All entries fed; `body_bytes` = bytes after the index. */
    void finish(uint64_t body_bytes) const;

  private:
    uint64_t _count;
    uint64_t _chunkInsts;
    uint64_t _chunkCount;
    uint64_t _nextOff = 0; ///< expected byteOff of the next entry
    uint64_t _fed = 0;
};

/**
 * Append one encoded chunk for records[0..n) to `out` and return its
 * encoded byte length. `seeds` carries the cross-chunk decode state:
 * it holds the entering values on call (what the chunk's index entry
 * records) and the exiting values on return.
 */
uint64_t encodeV4Chunk(std::vector<uint8_t> &out,
                       const TraceRecord *records, uint64_t n,
                       CodecSeeds &seeds);

/**
 * Decode one chunk of exactly `n` records from the `len` bytes at
 * `p`, seeded with the chunk's index entry state. Throws
 * TraceFormatError on any malformed byte (reserved control bit,
 * out-of-range class, section-length mismatch, truncated or overlong
 * varint, trailing bytes). Never reads outside [p, p + len).
 */
std::vector<TraceRecord> decodeV4Chunk(const uint8_t *p, uint64_t len,
                                       uint64_t n,
                                       const CodecSeeds &seeds);

} // namespace storemlp::trace_codec

#endif // STOREMLP_TRACE_TRACE_CODEC_HH
