/**
 * @file
 * The one reader of on-disk traces: an mmap-backed TraceSource that
 * decodes fixed-size chunks on demand, so a multi-gigabyte trace runs
 * with O(chunk) resident decoded records. Reads the one container, v4
 * (chunk-indexed compressed; see docs/TRACE_FORMAT.md), and rejects
 * the retired v1/v2/v3 ones by name. probeTraceFile and readTraceFile
 * are thin fronts over it.
 *
 * A v4 body carries its own chunk index (byte extents plus decode
 * seeds, validated in full before the first fetch), so every chunk is
 * random access from the start and decodes through the wide path in
 * trace_codec.cc; the source adopts the file's chunk geometry. Each
 * fetch also advises
 * the kernel to drop the pages behind the current chunk from this
 * process (they remain in the page cache, so a backward fetch only
 * minor-faults them back), so resident memory is O(chunk) even when
 * the mapped file is many gigabytes. Reading ahead is
 * ReadAheadSource's job: a run decodes the next chunk on a helper
 * thread, which faults its pages in.
 */

#ifndef STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
#define STOREMLP_TRACE_TRACE_FILE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

/** Header-level description of an on-disk trace (no record decode). */
struct TraceFileInfo
{
    uint32_t version = 0;    ///< container: 4
    uint32_t bodyFormat = 0; ///< 3, chunked
    uint64_t records = 0;
    uint64_t fileBytes = 0;
    uint64_t chunks = 0;     ///< chunk count from the index
    uint64_t chunkInsts = 0; ///< records per chunk
    std::string fingerprint; ///< provenance; may be empty
};

class StreamingFileSource : public TraceSource
{
  public:
    /**
     * Map `path` and parse its header (O(header + index) work).
     * Throws TraceFormatError on a path that is not a regular file (a
     * pipe, a device), a bad or retired magic, an impossible record
     * count, or a corrupt chunk index. `chunk_insts` only sizes the
     * chunks of an empty file: chunking is non-semantic, so the
     * source serves the file's own chunk geometry (see chunkInsts()).
     */
    explicit StreamingFileSource(const std::string &path,
                                 uint64_t chunk_insts = kDefaultChunkInsts);
    ~StreamingFileSource() override;

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _info.records;
    }
    std::string fingerprint() const override { return _fingerprint; }

    uint32_t bodyFormat() const { return _info.bodyFormat; }
    /** The header as parsed and validated by the constructor. */
    const TraceFileInfo &info() const { return _info; }

  private:
    /** Parse and validate the mapped header and chunk index. */
    void parseHeader();
    /** Unmap and close the file. */
    void release();
    /** Decode v4 chunk `chunk_idx` via its (validated) index entry. */
    std::vector<TraceRecord> decodeV4ChunkAt(uint64_t chunk_idx) const;
    /** First mapped byte of `chunk_idx`, if it exists. */
    std::optional<uint64_t> chunkByteBegin(uint64_t chunk_idx) const;
    /** Drop mapped pages strictly before `chunk_idx`'s first byte. */
    void releaseBehind(uint64_t chunk_idx) const;

    std::string _path;
    const uint8_t *_data = nullptr; ///< whole-file mapping (or buffer)
    bool _mapped = false;           ///< true: munmap; false: _fallback
    std::vector<uint8_t> _fallback; ///< used when mmap is unavailable
    int _fd = -1;

    TraceFileInfo _info;
    uint64_t _bodyOff = 0; ///< offset of the first chunk byte
    std::string _fingerprint; ///< the header's, or one naming the file

    // The chunk index lives in the mapping at _indexOff and is fully
    // validated by the constructor; entries are re-read from the
    // mapped bytes on demand, so the index costs no heap at all.
    uint64_t _indexOff = 0;
    mutable uint64_t _dropUpTo = 0; ///< bytes already MADV_DONTNEEDed
};

/**
 * Read a trace file's header: the StreamingFileSource constructor's
 * O(header + index) parse and validation, no record decode. Throws
 * TraceFormatError on malformed headers.
 */
TraceFileInfo probeTraceFile(const std::string &path);

/** Decode a whole trace file into memory. */
Trace readTraceFile(const std::string &path);

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
