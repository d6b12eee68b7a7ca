/**
 * @file
 * Binary trace serialization. Two on-disk containers (bare fixed-width
 * v1 and the enveloped, chunk-indexed compressed v4; specified in
 * docs/TRACE_FORMAT.md) with magic/version headers so generated traces
 * can be cached between runs and shared across tools. Files in the
 * retired v2/v3 containers are rejected with a TraceFormatError that
 * says to regenerate them.
 */

#ifndef STOREMLP_TRACE_TRACE_IO_HH
#define STOREMLP_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hh"
#include "util/error.hh"

namespace storemlp
{

/** Thrown on malformed trace files. */
class TraceFormatError : public SimError
{
  public:
    explicit TraceFormatError(const std::string &what) : SimError(what)
    {
    }
};

/** On-disk container (and record body) a TraceFileWriter emits. */
enum class TraceContainer
{
    V1, ///< bare fixed-width records
    V4, ///< enveloped, chunk-indexed compressed body
};

/**
 * Streaming writer for both containers: records arrive in appends of
 * any size and the file appears atomically. The output goes to
 * `<path>.tmp.<pid>` and is renamed over `path` by commit(); a writer
 * destroyed before commit() removes its temporaries and leaves `path`
 * as it was. An existing non-regular `path` (/dev/null, a device) is
 * written in place instead. Resident memory is O(chunk): v1 patches
 * the 8-byte record count in place at commit; v4 keeps only the
 * 40-byte index entries, spills encoded chunks to a sibling body
 * temp, and assembles header + index + body at commit. Throws
 * TraceFormatError on an unwritable path, a fingerprint over
 * trace_format::kMaxMetaBytes, a v4 chunk size outside
 * [1, trace_format::kMaxChunkInstsV4], or a failed write.
 */
class TraceFileWriter
{
  public:
    /** `fingerprint` and `chunk_insts` are ignored by bare v1. */
    TraceFileWriter(const std::string &path, TraceContainer container,
                    const std::string &fingerprint = {},
                    uint64_t chunk_insts = uint64_t{1} << 16);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Encode records[0..n); any n, including 0. */
    void append(const TraceRecord *records, uint64_t n);

    /** Finish the file and move it into place. Call at most once. */
    void commit();

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

/** Serialize a trace to a stream (fixed-width v1 format). */
void writeTrace(std::ostream &os, const Trace &trace);
/**
 * Serialize a trace to a file. Throws on I/O failure. Every
 * whole-trace `write*File` function is a TraceFileWriter over the
 * trace, so the file appears atomically.
 */
void writeTraceFile(const std::string &path, const Trace &trace);

/**
 * Serialize in the chunk-indexed compressed v4 container: a metadata
 * envelope (body format + provenance fingerprint + count) plus chunk
 * geometry, a per-chunk index (record count, byte extent, pc/address
 * seeds) and independently decodable compressed chunks of
 * `chunk_insts` records each. Tools read the count and fingerprint
 * from the header without decoding a record; see
 * docs/TRACE_FORMAT.md. Throws TraceFormatError if `chunk_insts` is 0
 * or exceeds trace_format::kMaxChunkInstsV4.
 */
void writeTraceV4(std::ostream &os, const Trace &trace,
                  const std::string &fingerprint,
                  uint64_t chunk_insts = uint64_t{1} << 16);
void writeTraceFileV4(const std::string &path, const Trace &trace,
                      const std::string &fingerprint,
                      uint64_t chunk_insts = uint64_t{1} << 16);

/**
 * Throw a TraceFormatError that says to regenerate the file if the
 * trace_format::kMagicBytes bytes at `magic` name a retired v2/v3
 * container; return otherwise. Every reader calls it first.
 */
void rejectRetiredContainer(const char *magic);

/** Deserialize a trace (auto-detects v1/v4 by magic).
 *  Throws TraceFormatError, naming a retired v2/v3 container. */
Trace readTrace(std::istream &is);
/** Deserialize a trace from a file (auto-detects format). */
Trace readTraceFile(const std::string &path);

/** Header-level description of an on-disk trace (no record decode). */
struct TraceFileInfo
{
    uint32_t version = 0;    ///< container: 1 or 4
    uint32_t bodyFormat = 0; ///< 1 fixed, 3 chunked
    uint64_t records = 0;
    uint64_t fileBytes = 0;
    uint64_t chunks = 0;     ///< v4 only: chunk count from the index
    uint64_t chunkInsts = 0; ///< v4 only: records per chunk
    std::string fingerprint; ///< provenance (v4 only; else empty)
};

/**
 * Read a trace file's header only: O(header) work regardless of trace
 * length. Validates the record count against the file size. Throws
 * TraceFormatError on malformed headers.
 */
TraceFileInfo probeTraceFile(const std::string &path);

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_IO_HH
