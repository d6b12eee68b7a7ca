/**
 * @file
 * Streaming file source implementation.
 */

#include "trace/trace_file_source.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "trace/trace_codec.hh"
#include "trace/trace_format.hh"
#include "trace/trace_io.hh"

#if defined(__unix__) || defined(__APPLE__)
#define STOREMLP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STOREMLP_HAVE_MMAP 0
#endif

namespace storemlp
{

namespace
{

using namespace trace_format;

/**
 * Throw a TraceFormatError that says to regenerate the file if the
 * trace_format::kMagicBytes bytes at `magic` name a retired v1/v2/v3
 * container; return otherwise.
 */
void
rejectRetiredContainer(const uint8_t *magic)
{
    for (const char *retired : {kMagicV1, kMagicV2, kMagicV3}) {
        if (std::memcmp(magic, retired, kMagicBytes) == 0) {
            throw TraceFormatError(
                "retired container " + std::string(retired, kMagicBytes) +
                ": v1/v2/v3 trace containers are no longer read; "
                "regenerate with storemlp_tracegen (writes v4)");
        }
    }
}

/** v4 index entry `idx`, read straight from the mapped index bytes. */
trace_codec::V4IndexEntry
v4Entry(const uint8_t *data, uint64_t index_off, uint64_t idx)
{
    return trace_codec::readV4IndexEntry(data + index_off +
                                         idx * kIndexEntryBytesV4);
}

} // namespace

StreamingFileSource::StreamingFileSource(const std::string &path,
                                         uint64_t chunk_insts)
    : TraceSource(chunk_insts), _path(path)
{
#if STOREMLP_HAVE_MMAP
    // Non-blocking, so a FIFO without a writer is refused below
    // instead of blocking the open.
    _fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (_fd < 0)
        throw TraceFormatError("cannot open for read: " + path);
    struct stat st;
    if (::fstat(_fd, &st) != 0 || st.st_size < 0) {
        ::close(_fd);
        _fd = -1;
        throw TraceFormatError("cannot stat: " + path);
    }
    if (!S_ISREG(st.st_mode)) {
        ::close(_fd);
        _fd = -1;
        throw TraceFormatError("not a regular file (a trace is mapped "
                               "whole): " + path);
    }
    _info.fileBytes = static_cast<uint64_t>(st.st_size);
    if (_info.fileBytes > 0) {
        void *map = ::mmap(nullptr, _info.fileBytes, PROT_READ, MAP_PRIVATE,
                           _fd, 0);
        if (map == MAP_FAILED) {
            ::close(_fd);
            _fd = -1;
            throw TraceFormatError("cannot mmap: " + path);
        }
        _data = static_cast<const uint8_t *>(map);
        _mapped = true;
    }
#else
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        throw TraceFormatError("cannot open for read: " + path);
    ifs.seekg(0, std::ios::end);
    _info.fileBytes = static_cast<uint64_t>(ifs.tellg());
    ifs.seekg(0);
    _fallback.resize(_info.fileBytes);
    if (_info.fileBytes)
        ifs.read(reinterpret_cast<char *>(_fallback.data()),
                 static_cast<std::streamsize>(_info.fileBytes));
    if (!ifs)
        throw TraceFormatError("read failed: " + path);
    _data = _fallback.data();
#endif

    try {
        parseHeader();
    } catch (...) {
        release(); // the destructor does not run for a throwing ctor
        throw;
    }
}

void
StreamingFileSource::parseHeader()
{
    const uint64_t file_bytes = _info.fileBytes;
    uint64_t off = kMagicBytes;
    if (file_bytes < kMagicBytes)
        throw TraceFormatError("bad trace magic");
    rejectRetiredContainer(_data);
    if (std::memcmp(_data, kMagicV4, kMagicBytes) != 0)
        throw TraceFormatError("bad trace magic");
    _info.version = 4;
    if (off + 1 > file_bytes)
        throw TraceFormatError("truncated trace header");
    uint8_t fmt = _data[off++];
    if (fmt != kBodyChunked) {
        throw TraceFormatError("unknown v4 body format " +
                               std::to_string(fmt));
    }
    _info.bodyFormat = fmt;
    if (off + 4 > file_bytes)
        throw TraceFormatError("truncated trace header");
    uint32_t len = getU32(_data + off);
    off += 4;
    if (len > kMaxMetaBytes) {
        throw TraceFormatError(
            "trace metadata length " + std::to_string(len) +
            " exceeds limit " + std::to_string(kMaxMetaBytes));
    }
    if (off + len > file_bytes)
        throw TraceFormatError("truncated trace header");
    _info.fingerprint.assign(reinterpret_cast<const char *>(_data + off),
                             len);
    off += len;

    // Count and chunk geometry, then the whole index validated in
    // place — O(index) work, no heap: entries are re-read from the
    // mapping at fetch time.
    if (off + 24 > file_bytes)
        throw TraceFormatError("truncated trace header");
    _info.records = getU64(_data + off);
    _info.chunkInsts = getU64(_data + off + 8);
    _info.chunks = getU64(_data + off + 16);
    _indexOff = off + 24;
    trace_codec::V4IndexValidator val(_info.records, _info.chunkInsts,
                                      _info.chunks);
    if (_info.chunks > (file_bytes - _indexOff) / kIndexEntryBytesV4) {
        throw TraceFormatError(
            "v4 chunk count " + std::to_string(_info.chunks) +
            " exceeds stream capacity (" +
            std::to_string(file_bytes - _indexOff) + " bytes remain)");
    }
    for (uint64_t i = 0; i < _info.chunks; ++i)
        val.feed(v4Entry(_data, _indexOff, i), i);
    _bodyOff = _indexOff + _info.chunks * kIndexEntryBytesV4;
    val.finish(file_bytes - _bodyOff);
    // Chunking is non-semantic; serve the file's own geometry so
    // every fetch is one index lookup plus one chunk decode.
    if (_info.chunks > 0)
        _chunkInsts = _info.chunkInsts;

    uint64_t remaining = file_bytes - _bodyOff;
    if (_info.records > remaining) {
        throw TraceFormatError(
            "trace header count " + std::to_string(_info.records) +
            " exceeds stream capacity (" + std::to_string(remaining) +
            " bytes remain, >= 1 bytes per record)");
    }

    _fingerprint = _info.fingerprint.empty()
        ? "file:" + _path + "|n=" + std::to_string(_info.records)
        : _info.fingerprint;
}

StreamingFileSource::~StreamingFileSource()
{
    release();
}

void
StreamingFileSource::release()
{
#if STOREMLP_HAVE_MMAP
    if (_mapped)
        ::munmap(const_cast<uint8_t *>(_data), _info.fileBytes);
    if (_fd >= 0)
        ::close(_fd);
    _mapped = false;
    _fd = -1;
#endif
}

std::optional<uint64_t>
StreamingFileSource::chunkByteBegin(uint64_t chunk_idx) const
{
    if (chunk_idx >= _info.chunks)
        return std::nullopt;
    return _bodyOff + v4Entry(_data, _indexOff, chunk_idx).byteOff;
}

void
StreamingFileSource::releaseBehind(uint64_t chunk_idx) const
{
#if STOREMLP_HAVE_MMAP
    if (!_mapped)
        return;
    std::optional<uint64_t> begin_opt = chunkByteBegin(chunk_idx);
    if (!begin_opt)
        return;
    uint64_t begin = *begin_opt;
    long page = ::sysconf(_SC_PAGESIZE);
    uint64_t mask = page > 0 ? static_cast<uint64_t>(page) - 1 : 4095;
    // Align down so the current chunk's first page stays resident.
    uint64_t end = std::min(begin, _info.fileBytes) & ~mask;
    if (end <= _dropUpTo) {
        // Backward seek (e.g. a second sequential pass): resume the
        // drop cursor here so the new pass frees behind itself too.
        if (end < _dropUpTo)
            _dropUpTo = end;
        return;
    }
    ::madvise(const_cast<uint8_t *>(_data + _dropUpTo), end - _dropUpTo,
              MADV_DONTNEED);
    _dropUpTo = end;
#else
    (void)chunk_idx;
#endif
}

std::vector<TraceRecord>
StreamingFileSource::decodeV4ChunkAt(uint64_t chunk_idx) const
{
    trace_codec::V4IndexEntry e = v4Entry(_data, _indexOff, chunk_idx);
    // The constructor validated the whole index; re-check this entry's
    // extent against the mapping so a file mutated underneath the map
    // cannot push the decoder out of bounds.
    uint64_t body_bytes = _info.fileBytes - _bodyOff;
    if (e.records > _chunkInsts || e.byteLen > body_bytes ||
        e.byteOff > body_bytes - e.byteLen)
        throw TraceFormatError("v4 chunk index changed under the map");
    return trace_codec::decodeV4Chunk(_data + _bodyOff + e.byteOff,
                                      e.byteLen, e.records, e.seeds);
}

std::shared_ptr<const TraceChunk>
StreamingFileSource::fetch(uint64_t chunk_idx)
{
    uint64_t first = chunk_idx * _chunkInsts;
    if (first >= _info.records)
        return nullptr;
    uint64_t n = std::min<uint64_t>(_chunkInsts, _info.records - first);

    std::vector<TraceRecord> records;
    try {
        records = decodeV4ChunkAt(chunk_idx);
    } catch (const TraceFormatError &e) {
        // Same type, so the tools still exit 1, but naming the file
        // and where in it the body went bad.
        throw TraceFormatError(
            _path + ": chunk " + std::to_string(chunk_idx) + " (records " +
            std::to_string(first) + ".." + std::to_string(first + n) +
            "): " + e.what());
    }
    releaseBehind(chunk_idx);
    return std::make_shared<const TraceChunk>(first, std::move(records));
}

TraceFileInfo
probeTraceFile(const std::string &path)
{
    return StreamingFileSource(path).info();
}

Trace
readTraceFile(const std::string &path)
{
    StreamingFileSource src(path);
    return materializeSource(src);
}

} // namespace storemlp
