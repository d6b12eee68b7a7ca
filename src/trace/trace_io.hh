/**
 * @file
 * Binary trace writing. One on-disk container, the enveloped,
 * chunk-indexed compressed v4 (specified in docs/TRACE_FORMAT.md), so
 * generated traces can be cached between runs and shared across
 * tools. TraceFileWriter is the one encoder; StreamingFileSource
 * (trace_file_source.hh) is the one reader. The retired v1-v3
 * containers are no longer written or read.
 */

#ifndef STOREMLP_TRACE_TRACE_IO_HH
#define STOREMLP_TRACE_TRACE_IO_HH

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

/**
 * Streaming v4 writer: records arrive in appends of any size and the
 * file appears atomically. The output goes to
 * `<path>.tmp.<pid>` and is renamed over `path` by commit(); a writer
 * destroyed before commit() removes its temporaries and leaves `path`
 * as it was. An existing non-regular `path` (/dev/null, a device) is
 * written in place instead. Resident memory is O(chunk): the writer
 * keeps only the 40-byte index entries, spills encoded chunks to a
 * sibling body temp, and assembles header + index + body at commit.
 * Throws
 * TraceFormatError on an unwritable path, a fingerprint over
 * trace_format::kMaxMetaBytes, a chunk size outside
 * [1, trace_format::kMaxChunkInstsV4], or a failed write.
 */
class TraceFileWriter
{
  public:
    TraceFileWriter(const std::string &path,
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

/**
 * Write a whole trace in the chunk-indexed compressed v4 container: a
 * metadata envelope (body format + provenance fingerprint + count)
 * plus chunk geometry, a per-chunk index (record count, byte extent,
 * pc/address seeds) and independently decodable compressed chunks of
 * `chunk_insts` records each. Tools read the count and fingerprint
 * from the header without decoding a record; see
 * docs/TRACE_FORMAT.md. A TraceFileWriter over the trace, so the file
 * appears atomically. Throws TraceFormatError if `chunk_insts` is 0 or
 * exceeds trace_format::kMaxChunkInstsV4, or on I/O failure.
 */
void writeTraceFileV4(const std::string &path, const Trace &trace,
                      const std::string &fingerprint,
                      uint64_t chunk_insts = uint64_t{1} << 16);

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_IO_HH
