/**
 * @file
 * Streaming reader for on-disk traces: an mmap-backed TraceSource that
 * decodes fixed-size chunks on demand, so a multi-gigabyte trace runs
 * with O(chunk) resident decoded records. Reads both containers (v1
 * fixed, v4 chunk-indexed compressed; see docs/TRACE_FORMAT.md) and
 * rejects the retired v2/v3 ones by name.
 *
 * v1 bodies are random access (fixed record width). v4 bodies carry
 * their own chunk index (byte extents plus decode seeds, validated in
 * full before the first fetch), so every chunk is random access from
 * the start and decodes through the wide path in trace_codec.cc; the
 * source adopts the file's chunk geometry. Each fetch also advises
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

#include "trace/trace_source.hh"

namespace storemlp
{

class StreamingFileSource : public TraceSource
{
  public:
    /**
     * Map `path` and parse its header (O(header + index) work).
     * Throws TraceFormatError on a bad or retired magic, an
     * impossible record count, or a corrupt v4 chunk index, with the
     * same diagnostics as the whole-trace reader. For v4 files `chunk_insts` is
     * ignored: chunking is non-semantic, so the source serves the
     * file's own chunk geometry (see chunkInsts()).
     */
    explicit StreamingFileSource(const std::string &path,
                                 uint64_t chunk_insts = kDefaultChunkInsts);
    ~StreamingFileSource() override;

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _count;
    }
    std::string fingerprint() const override { return _fingerprint; }

    uint32_t bodyFormat() const { return _bodyFormat; }

  private:
    std::vector<TraceRecord> decodeV1(uint64_t first, uint64_t n) const;
    /** Decode v4 chunk `chunk_idx` via its (validated) index entry. */
    std::vector<TraceRecord> decodeV4ChunkAt(uint64_t chunk_idx) const;
    /** First mapped byte of `chunk_idx`, if it exists. */
    std::optional<uint64_t> chunkByteBegin(uint64_t chunk_idx) const;
    /** Drop mapped pages strictly before `chunk_idx`'s first byte. */
    void releaseBehind(uint64_t chunk_idx) const;

    std::string _path;
    const uint8_t *_data = nullptr; ///< whole-file mapping (or buffer)
    uint64_t _fileBytes = 0;
    bool _mapped = false;           ///< true: munmap; false: _fallback
    std::vector<uint8_t> _fallback; ///< used when mmap is unavailable
    int _fd = -1;

    uint32_t _bodyFormat = 1;
    uint64_t _bodyOff = 0; ///< offset of the first record byte
    uint64_t _count = 0;
    std::string _fingerprint;

    // v4 only: the chunk index lives in the mapping at _indexOff and
    // is fully validated by the constructor; entries are re-read from
    // the mapped bytes on demand, so the index costs no heap at all.
    uint64_t _indexOff = 0;
    uint64_t _chunkCount = 0;
    mutable uint64_t _dropUpTo = 0; ///< bytes already MADV_DONTNEEDed
};

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_FILE_SOURCE_HH
