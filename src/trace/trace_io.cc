/**
 * @file
 * Binary trace writing in the one on-disk container (normative spec
 * in docs/TRACE_FORMAT.md, constants in trace_format.hh): v4
 * ("SMLPTRC4"), a metadata envelope (body format + provenance
 * fingerprint + count) plus chunk geometry, a chunk index, and
 * independently decodable compressed chunks (trace_codec.cc).
 * TraceFileWriter is the one encoder; StreamingFileSource reads it
 * back.
 */

#include "trace/trace_io.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "trace/trace_codec.hh"
#include "trace/trace_format.hh"

namespace storemlp
{

namespace
{

using namespace trace_format;

void
writeBytes(std::ostream &os, const std::vector<uint8_t> &bytes)
{
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

void
checkFingerprint(const std::string &fingerprint)
{
    if (fingerprint.size() > kMaxMetaBytes) {
        throw TraceFormatError("trace fingerprint length " +
                               std::to_string(fingerprint.size()) +
                               " exceeds limit " +
                               std::to_string(kMaxMetaBytes));
    }
}

/** v4 envelope prefix: magic, body format, fingerprint. */
void
writeEnvelopePrefix(std::ostream &os, const std::string &fingerprint)
{
    os.write(kMagicV4, kMagicBytes);
    os.put(static_cast<char>(kBodyChunked));
    uint8_t len[4];
    putU32(len, static_cast<uint32_t>(fingerprint.size()));
    os.write(reinterpret_cast<const char *>(len), sizeof(len));
    os.write(fingerprint.data(),
             static_cast<std::streamsize>(fingerprint.size()));
}

/**
 * TraceFileWriter's body encoder: cuts appended records
 * into exact `chunk_insts`-record chunks, carrying a short remainder
 * and the codec seeds across appends, and encodes each chunk into one
 * reused buffer before writing it to the body stream. Only the
 * 40-byte index entries stay resident; the index precedes the body
 * on disk, so writeHeader() comes after finish().
 */
class V4BodyWriter
{
  public:
    explicit V4BodyWriter(uint64_t chunk_insts) : _chunkInsts(chunk_insts)
    {
        if (chunk_insts == 0 || chunk_insts > kMaxChunkInstsV4) {
            throw TraceFormatError("v4 chunk size " +
                                   std::to_string(chunk_insts) +
                                   " outside [1, " +
                                   std::to_string(kMaxChunkInstsV4) +
                                   "]");
        }
    }

    void
    append(std::ostream &body, const TraceRecord *records, uint64_t n)
    {
        if (!_carry.empty()) {
            uint64_t take = std::min(n, _chunkInsts - _carry.size());
            _carry.insert(_carry.end(), records, records + take);
            records += take;
            n -= take;
            if (_carry.size() < _chunkInsts)
                return;
            encodeChunk(body, _carry.data(), _carry.size());
        }
        for (; n >= _chunkInsts; records += _chunkInsts, n -= _chunkInsts)
            encodeChunk(body, records, _chunkInsts);
        _carry.assign(records, records + n);
    }

    /** Encode the carried short chunk, if any: the stream's last. */
    void
    finish(std::ostream &body)
    {
        if (!_carry.empty())
            encodeChunk(body, _carry.data(), _carry.size());
        _carry.clear();
    }

    /** Envelope, record count, chunk geometry and index. */
    void
    writeHeader(std::ostream &os, const std::string &fingerprint) const
    {
        writeEnvelopePrefix(os, fingerprint);
        uint8_t geom[24];
        putU64(geom, _records);
        putU64(geom + 8, _chunkInsts);
        putU64(geom + 16, _index.size() / kIndexEntryBytesV4);
        os.write(reinterpret_cast<const char *>(geom), sizeof(geom));
        writeBytes(os, _index);
    }

  private:
    void
    encodeChunk(std::ostream &body, const TraceRecord *records,
                uint64_t n)
    {
        trace_codec::V4IndexEntry e;
        e.records = n;
        e.byteOff = _bodyBytes;
        e.seeds = _seeds;
        _buf.clear();
        e.byteLen = trace_codec::encodeV4Chunk(_buf, records, n, _seeds);
        writeBytes(body, _buf);
        _bodyBytes += e.byteLen;
        _records += n;
        size_t at = _index.size();
        _index.resize(at + kIndexEntryBytesV4);
        trace_codec::writeV4IndexEntry(_index.data() + at, e);
    }

    uint64_t _chunkInsts;
    uint64_t _records = 0;   ///< records in encoded chunks
    uint64_t _bodyBytes = 0; ///< bytes of encoded chunks
    trace_codec::CodecSeeds _seeds;
    std::vector<TraceRecord> _carry; ///< records of a partial chunk
    std::vector<uint8_t> _buf;       ///< one chunk's encoding
    std::vector<uint8_t> _index;     ///< serialized index entries
};

/** Copy the rest of `in` to `out` in 1 MiB blocks. */
void
copyStream(std::istream &in, std::ostream &out)
{
    std::vector<char> block(uint64_t{1} << 20);
    while (in) {
        in.read(block.data(), static_cast<std::streamsize>(block.size()));
        out.write(block.data(), in.gcount());
    }
}

} // namespace

// ---- TraceFileWriter --------------------------------------------------

struct TraceFileWriter::Impl
{
    explicit Impl(uint64_t chunk_insts) : v4(chunk_insts) {}

    std::string path;
    std::string tmp;     ///< file under construction (path if in place)
    std::string bodyTmp; ///< encoded-chunk spill
    std::string fingerprint;
    std::ofstream out;
    std::fstream body; ///< written, then read back at commit
    V4BodyWriter v4;
    bool committed = false;

    /** Runs when a constructor throws, too: no temp outlives us. */
    ~Impl()
    {
        out.close();
        body.close();
        if (!bodyTmp.empty())
            std::remove(bodyTmp.c_str());
        if (!committed && tmp != path)
            std::remove(tmp.c_str());
    }

    [[noreturn]] void
    writeFailed() const
    {
        throw TraceFormatError("write failed: " + path);
    }
};

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const std::string &fingerprint,
                                 uint64_t chunk_insts)
    : _impl(std::make_unique<Impl>(chunk_insts))
{
    Impl &w = *_impl;
    w.path = path;
    w.fingerprint = fingerprint;
    checkFingerprint(fingerprint);

    // Build beside the target and rename over it at commit; a device
    // such as /dev/null cannot be replaced, so it is written in place.
    std::string stem = path + ".tmp." + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::file_status st = std::filesystem::status(path, ec);
    bool in_place = std::filesystem::exists(st) &&
        !std::filesystem::is_regular_file(st);
    w.tmp = in_place ? path : stem;
    static std::atomic<uint64_t> serial{0};
    w.bodyTmp = in_place
        ? (std::filesystem::temp_directory_path(ec) /
           ("storemlp_trace." + std::to_string(::getpid()) + "." +
            std::to_string(serial++) + ".body"))
              .string()
        : stem + ".body";

    w.out.open(w.tmp, std::ios::binary | std::ios::trunc);
    if (!w.out)
        throw TraceFormatError("cannot open for write: " + path);
    w.body.open(w.bodyTmp, std::ios::binary | std::ios::in |
                               std::ios::out | std::ios::trunc);
    if (!w.body)
        throw TraceFormatError("cannot open for write: " + w.bodyTmp);
}

TraceFileWriter::~TraceFileWriter() = default;

void
TraceFileWriter::append(const TraceRecord *records, uint64_t n)
{
    Impl &w = *_impl;
    w.v4.append(w.body, records, n);
    if (!w.body)
        w.writeFailed();
}

void
TraceFileWriter::commit()
{
    Impl &w = *_impl;
    w.v4.finish(w.body);
    w.body.seekg(0);
    if (!w.body)
        w.writeFailed();
    w.v4.writeHeader(w.out, w.fingerprint);
    copyStream(w.body, w.out);
    if (!w.body.eof())
        w.writeFailed();
    w.out.close();
    if (!w.out)
        w.writeFailed();
    if (w.tmp != w.path &&
        std::rename(w.tmp.c_str(), w.path.c_str()) != 0) {
        throw TraceFormatError("cannot rename " + w.tmp + " to " +
                               w.path + ": " + std::strerror(errno));
    }
    w.committed = true;
}

void
writeTraceFileV4(const std::string &path, const Trace &trace,
                 const std::string &fingerprint, uint64_t chunk_insts)
{
    TraceFileWriter w(path, fingerprint, chunk_insts);
    w.append(trace.records().data(), trace.size());
    w.commit();
}

} // namespace storemlp
