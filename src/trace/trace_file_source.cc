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

uint64_t
getVarintBuf(const uint8_t *base, uint64_t size, uint64_t &off)
{
    uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (off >= size)
            throw TraceFormatError("truncated varint");
        uint8_t c = base[off++];
        v |= static_cast<uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return v;
    }
    throw TraceFormatError("overlong varint");
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
    _fd = ::open(path.c_str(), O_RDONLY);
    if (_fd < 0)
        throw TraceFormatError("cannot open for read: " + path);
    struct stat st;
    if (::fstat(_fd, &st) != 0 || st.st_size < 0) {
        ::close(_fd);
        _fd = -1;
        throw TraceFormatError("cannot stat: " + path);
    }
    _fileBytes = static_cast<uint64_t>(st.st_size);
    if (_fileBytes > 0) {
        void *map = ::mmap(nullptr, _fileBytes, PROT_READ, MAP_PRIVATE,
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
    _fileBytes = static_cast<uint64_t>(ifs.tellg());
    ifs.seekg(0);
    _fallback.resize(_fileBytes);
    if (_fileBytes)
        ifs.read(reinterpret_cast<char *>(_fallback.data()),
                 static_cast<std::streamsize>(_fileBytes));
    if (!ifs)
        throw TraceFormatError("read failed: " + path);
    _data = _fallback.data();
#endif

    // ---- parse the header from the mapping ----
    uint64_t off = 0;
    if (_fileBytes < kMagicBytes)
        throw TraceFormatError("bad trace magic");
    if (std::memcmp(_data, kMagicV1, kMagicBytes) == 0) {
        _bodyFormat = 1;
        off = kMagicBytes;
    } else if (std::memcmp(_data, kMagicV2, kMagicBytes) == 0) {
        _bodyFormat = 2;
        off = kMagicBytes;
    } else if (std::memcmp(_data, kMagicV3, kMagicBytes) == 0 ||
               std::memcmp(_data, kMagicV4, kMagicBytes) == 0) {
        bool v4 = std::memcmp(_data, kMagicV4, kMagicBytes) == 0;
        off = kMagicBytes;
        if (off + 5 > _fileBytes)
            throw TraceFormatError("truncated trace header");
        uint8_t fmt = _data[off++];
        bool known = v4 ? fmt == kBodyChunked
                        : (fmt == kBodyFixed || fmt == kBodyDelta);
        if (!known) {
            throw TraceFormatError("unknown v" + std::string(v4 ? "4" : "3") +
                                   " body format " + std::to_string(fmt));
        }
        _bodyFormat = fmt;
        uint32_t len = getU32(_data + off);
        off += 4;
        if (len > kMaxMetaBytes) {
            throw TraceFormatError(
                "trace metadata length " + std::to_string(len) +
                " exceeds limit " + std::to_string(kMaxMetaBytes));
        }
        if (off + len > _fileBytes)
            throw TraceFormatError("truncated trace header");
        _fingerprint.assign(reinterpret_cast<const char *>(_data + off),
                            len);
        off += len;
    } else {
        throw TraceFormatError("bad trace magic");
    }

    if (off + 8 > _fileBytes)
        throw TraceFormatError("truncated trace header");
    _count = getU64(_data + off);
    _bodyOff = off + 8;

    if (_bodyFormat == kBodyChunked) {
        // Chunk geometry, then the whole index validated in place —
        // O(index) work, no heap: entries are re-read from the
        // mapping at fetch time.
        if (_bodyOff + 16 > _fileBytes)
            throw TraceFormatError("truncated trace header");
        uint64_t chunk_insts = getU64(_data + _bodyOff);
        _chunkCount = getU64(_data + _bodyOff + 8);
        _indexOff = _bodyOff + 16;
        trace_codec::V4IndexValidator val(_count, chunk_insts,
                                          _chunkCount);
        if (_chunkCount > (_fileBytes - _indexOff) / kIndexEntryBytesV4) {
            throw TraceFormatError(
                "v4 chunk count " + std::to_string(_chunkCount) +
                " exceeds stream capacity (" +
                std::to_string(_fileBytes - _indexOff) +
                " bytes remain)");
        }
        for (uint64_t i = 0; i < _chunkCount; ++i)
            val.feed(v4Entry(_data, _indexOff, i), i);
        _bodyOff = _indexOff + _chunkCount * kIndexEntryBytesV4;
        val.finish(_fileBytes - _bodyOff);
        // Chunking is non-semantic; serve the file's own geometry so
        // every fetch is one index lookup plus one chunk decode.
        if (_chunkCount > 0)
            _chunkInsts = chunk_insts;
    }

    uint64_t remaining = _fileBytes - _bodyOff;
    uint64_t min_bytes =
        _bodyFormat == kBodyFixed ? kRecordBytesV1 : 1;
    if (_count > remaining / min_bytes) {
        throw TraceFormatError(
            "trace header count " + std::to_string(_count) +
            " exceeds stream capacity (" + std::to_string(remaining) +
            " bytes remain, >= " + std::to_string(min_bytes) +
            " bytes per record)");
    }

    if (_fingerprint.empty()) {
        _fingerprint =
            "file:" + _path + "|n=" + std::to_string(_count);
    }
    if (_bodyFormat == 2)
        _bounds.push_back({_bodyOff, 0});
}

StreamingFileSource::~StreamingFileSource()
{
#if STOREMLP_HAVE_MMAP
    if (_mapped)
        ::munmap(const_cast<uint8_t *>(_data), _fileBytes);
    if (_fd >= 0)
        ::close(_fd);
#endif
}

std::optional<uint64_t>
StreamingFileSource::chunkByteBegin(uint64_t chunk_idx) const
{
    if (_bodyFormat == kBodyFixed)
        return _bodyOff + chunk_idx * _chunkInsts * kRecordBytesV1;
    if (_bodyFormat == kBodyChunked) {
        if (chunk_idx >= _chunkCount)
            return std::nullopt;
        return _bodyOff + v4Entry(_data, _indexOff, chunk_idx).byteOff;
    }
    if (chunk_idx >= _bounds.size())
        return std::nullopt;
    return _bounds[chunk_idx].byteOff;
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
    uint64_t end = std::min(begin, _fileBytes) & ~mask;
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
StreamingFileSource::decodeV1(uint64_t first, uint64_t n) const
{
    std::vector<TraceRecord> records;
    records.reserve(n);
    const uint8_t *p = _data + _bodyOff + first * kRecordBytesV1;
    for (uint64_t i = 0; i < n; ++i, p += kRecordBytesV1) {
        TraceRecord r;
        r.pc = getU64(p);
        r.addr = getU64(p + 8);
        if (p[16] >= static_cast<uint8_t>(InstClass::NumClasses))
            throw TraceFormatError("invalid instruction class");
        r.cls = static_cast<InstClass>(p[16]);
        r.size = p[17];
        r.dst = p[18];
        r.src1 = p[19];
        r.src2 = p[20];
        r.flags = p[21];
        records.push_back(r);
    }
    return records;
}

std::vector<TraceRecord>
StreamingFileSource::decodeV2Chunk(uint64_t chunk_idx)
{
    V2Boundary b = _bounds[chunk_idx];
    uint64_t first = chunk_idx * _chunkInsts;
    uint64_t n = std::min<uint64_t>(_chunkInsts, _count - first);

    std::vector<TraceRecord> records;
    records.reserve(n);
    uint64_t off = b.byteOff;
    uint64_t prev_pc = b.prevPc;
    for (uint64_t i = 0; i < n; ++i) {
        if (off >= _fileBytes)
            throw TraceFormatError("truncated trace body");
        uint8_t ctrl = _data[off++];
        uint8_t cls_bits = ctrl & 0x0f;
        if (cls_bits >= static_cast<uint8_t>(InstClass::NumClasses))
            throw TraceFormatError("invalid instruction class");

        TraceRecord r;
        r.cls = static_cast<InstClass>(cls_bits);
        if (ctrl & kCtrlSeqPc) {
            r.pc = prev_pc + 4;
        } else {
            int64_t delta =
                unzigzag(getVarintBuf(_data, _fileBytes, off));
            r.pc = static_cast<uint64_t>(
                static_cast<int64_t>(prev_pc) + delta);
        }
        prev_pc = r.pc;

        if (isMemClass(r.cls))
            r.addr = getVarintBuf(_data, _fileBytes, off);
        if (ctrl & kCtrlRegs) {
            if (off + 4 > _fileBytes)
                throw TraceFormatError("truncated register block");
            r.size = _data[off];
            r.dst = _data[off + 1];
            r.src1 = _data[off + 2];
            r.src2 = _data[off + 3];
            off += 4;
        }
        if (ctrl & kCtrlFlags) {
            if (off >= _fileBytes)
                throw TraceFormatError("truncated flags byte");
            r.flags = _data[off++];
        }
        records.push_back(r);
    }

    if (chunk_idx + 1 == _bounds.size() && first + n < _count)
        _bounds.push_back({off, prev_pc});
    return records;
}

std::vector<TraceRecord>
StreamingFileSource::decodeV4ChunkAt(uint64_t chunk_idx) const
{
    trace_codec::V4IndexEntry e = v4Entry(_data, _indexOff, chunk_idx);
    // The constructor validated the whole index; re-check this entry's
    // extent against the mapping so a file mutated underneath the map
    // cannot push the decoder out of bounds.
    uint64_t body_bytes = _fileBytes - _bodyOff;
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
    if (first >= _count)
        return nullptr;
    uint64_t n = std::min<uint64_t>(_chunkInsts, _count - first);

    std::vector<TraceRecord> records;
    try {
        if (_bodyFormat == kBodyFixed) {
            records = decodeV1(first, n);
        } else if (_bodyFormat == kBodyChunked) {
            records = decodeV4ChunkAt(chunk_idx);
        } else {
            // Walk forward from the last memoized boundary if this
            // chunk hasn't been reached yet; each crossing memoizes its
            // state, so the walk happens at most once per chunk.
            while (_bounds.size() <= chunk_idx)
                decodeV2Chunk(_bounds.size() - 1);
            records = decodeV2Chunk(chunk_idx);
        }
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

} // namespace storemlp
