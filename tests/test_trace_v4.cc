/**
 * @file
 * Tests for the chunk-indexed compressed v4 trace container: round
 * trips across chunk geometries, corruption rejection for every new
 * TraceFormatError branch (index and chunk level), a whole-file
 * byte-flip fuzz pass, rejection of the retired v1/v2/v3 containers by
 * every reader, streaming/random access through StreamingFileSource,
 * and bit-identical SimResults against the in-memory trace on every
 * shipped config.
 */

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/trace_codec.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_format.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << i;
        EXPECT_EQ(a[i].size, b[i].size) << i;
        EXPECT_EQ(a[i].dst, b[i].dst) << i;
        EXPECT_EQ(a[i].src1, b[i].src1) << i;
        EXPECT_EQ(a[i].src2, b[i].src2) << i;
        EXPECT_EQ(a[i].flags, b[i].flags) << i;
    }
}

Trace
makeTrace(uint64_t n, uint64_t seed = 7)
{
    SyntheticTraceGenerator gen(WorkloadProfile::database(), seed, 0);
    return gen.generate(n);
}

/** The file writeTraceFileV4 writes for `t`, as bytes. */
std::string
encodeV4(const Trace &t, uint64_t chunk_insts,
         const std::string &fp = "")
{
    test::TempTraceFile f("encode");
    writeTraceFileV4(f.path, t, fp, chunk_insts);
    return test::fileBytes(f.path);
}

Trace
decode(const std::string &bytes)
{
    return test::readTraceBytes(bytes);
}

/** Expect decode to throw a TraceFormatError mentioning `needle`. */
void
expectV4Error(const std::string &bytes, const std::string &needle)
{
    try {
        decode(bytes);
        FAIL() << "expected TraceFormatError containing '" << needle
               << "'";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

// ---- round trips ------------------------------------------------------

TEST(TraceV4, HandwrittenRoundTrip)
{
    Trace t = TraceBuilder(0x4000)
        .load(0x123456789a, 5, 6)
        .store(0xfedcba98, 7).withSize(3)   // escape size (non-pow2)
        .casa(0x42).withFlags(kFlagLockAcquire)
        .branch(true, 9)
        .membar()
        .alu(63, 63, 63).withSize(128)      // extreme ids, top size code
        .load(0x10).atPc(0x8000000000ULL)   // large pc jump
        .storeCond(0x42, 8).withSize(0)
        .build();

    for (uint64_t ci : {uint64_t{1}, uint64_t{3}, uint64_t{100}})
        expectTracesEqual(t, decode(encodeV4(t, ci)));
}

TEST(TraceV4, GeneratedTraceRoundTrip)
{
    Trace t = makeTrace(50000);
    expectTracesEqual(t, decode(encodeV4(t, 1 << 16)));
}

TEST(TraceV4, ChunkSizeOneAndNonDivisors)
{
    Trace t = makeTrace(10001, 13);
    for (uint64_t ci : {uint64_t{1}, uint64_t{3}, uint64_t{4097},
                        uint64_t{10001}, uint64_t{20000}})
        expectTracesEqual(t, decode(encodeV4(t, ci)));
}

TEST(TraceV4, EmptyTrace)
{
    test::TempTraceFile f;
    writeTraceFileV4(f.path, Trace(), "");
    EXPECT_TRUE(readTraceFile(f.path).empty());
    TraceFileInfo info = probeTraceFile(f.path);
    EXPECT_EQ(info.records, 0u);
    EXPECT_EQ(info.chunks, 0u);
}

TEST(TraceV4, SingleRecordTraceSingleRecordChunks)
{
    Trace t = TraceBuilder().load(0xdeadbeef, 1).build();
    expectTracesEqual(t, decode(encodeV4(t, 1)));
}

TEST(TraceV4, AtMostQuarterOfV1)
{
    // The retired v1 container: a 16-byte header, then 22 bytes per
    // record.
    Trace t = makeTrace(50000);
    std::string v4 = encodeV4(t, 1 << 16);
    EXPECT_LE(v4.size() * 4, t.size() * 22 + 16)
        << "v4 must be <= 0.25x of v1 on the database profile";
}

TEST(TraceV4, ZeroRegisterRecordsStayCompact)
{
    // Barrier records carry no registers and follow each other: one
    // control byte each after the first record's pc delta.
    TraceBuilder b;
    for (int i = 0; i < 1000; ++i)
        b.membar();
    std::string s = encodeV4(b.build(), 1 << 16);
    // 77-byte header + index, 20-byte section header, 1000 control
    // bytes and a few pc-delta bytes.
    EXPECT_LT(s.size(), 77u + 20u + 1000u + 8u);
}

TEST(TraceV4, FileRoundTripAutoDetected)
{
    Trace t = makeTrace(5000, 3);
    std::string path = ::testing::TempDir() + "v4_roundtrip.trc";
    writeTraceFileV4(path, t, "v4-file-fp", 509);
    expectTracesEqual(t, readTraceFile(path));
    std::remove(path.c_str());
}

TEST(TraceV4, PreservesFingerprint)
{
    Trace t = makeTrace(100);
    std::string path = ::testing::TempDir() + "v4_fp.trc";
    writeTraceFileV4(path, t, "the-fingerprint");
    EXPECT_EQ(probeTraceFile(path).fingerprint, "the-fingerprint");
    std::remove(path.c_str());
}

// ---- encode-side validation -------------------------------------------

TEST(TraceV4, RegisterIdOutOfRangeRejectedAtEncode)
{
    Trace t = TraceBuilder().alu(64, 0, 0).build();
    test::TempTraceFile f;
    EXPECT_THROW(writeTraceFileV4(f.path, t, ""), TraceFormatError);
}

TEST(TraceV4, BadChunkSizeRejectedAtEncode)
{
    Trace t = TraceBuilder().alu().build();
    test::TempTraceFile f;
    EXPECT_THROW(writeTraceFileV4(f.path, t, "", 0), TraceFormatError);
    EXPECT_THROW(
        writeTraceFileV4(f.path, t, "", trace_format::kMaxChunkInstsV4 + 1),
        TraceFormatError);
}

TEST(TraceV4, EncoderGrowsItsOutputGeometrically)
{
    // Appending many chunks to one vector must not reallocate (and
    // copy the whole body) once per chunk.
    Trace t = makeTrace(256 * 64);
    std::vector<uint8_t> out;
    trace_codec::CodecSeeds seeds;
    const uint8_t *data = out.data();
    int moves = 0;
    for (uint64_t c = 0; c < 256; ++c) {
        trace_codec::encodeV4Chunk(out, t.records().data() + c * 64, 64,
                                   seeds);
        moves += out.data() != data;
        data = out.data();
    }
    EXPECT_LE(moves, 32);
}

// ---- corruption rejection ---------------------------------------------

/**
 * Fixed two-record trace with a known v4 byte layout (empty
 * fingerprint, one chunk):
 *   envelope: magic 8, format 1, fpLen 4, count 8  -> geometry at 21
 *   geometry: chunkInsts 8, chunkCount 8           -> index at 37
 *   index:    one 40-byte entry                    -> body at 77
 *   chunk:    20-byte section header, 2 ctrl bytes (0x20 alu+regs,
 *             0x15 membar+seq), 3-byte pc varint (zigzag(0x4000) =
 *             0x8000 -> 80 80 02), 3-byte regs block (01 02 03)
 */
struct V4Layout
{
    static constexpr size_t kFormat = 8;
    static constexpr size_t kCount = 13;
    static constexpr size_t kChunkInsts = 21;
    static constexpr size_t kChunkCount = 29;
    static constexpr size_t kIndex = 37;
    static constexpr size_t kBody = kIndex + 40;
    static constexpr size_t kCtrl0 = kBody + 20;
    static constexpr size_t kPcStream = kCtrl0 + 2;
    static constexpr size_t kRegsBlock = kPcStream + 3;

    static std::string
    bytes()
    {
        Trace t = TraceBuilder(0x4000).alu(1, 2, 3).membar().build();
        std::string s = encodeV4(t, 1 << 16);
        EXPECT_EQ(s.size(), kRegsBlock + 3);
        return s;
    }
};

TEST(TraceV4Corrupt, UnknownBodyFormat)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kFormat] = 9;
    expectV4Error(s, "unknown v4 body format 9");
}

TEST(TraceV4Corrupt, RetiredContainerRejectedByName)
{
    // A v1/v2/v3 file fails in every reader with a message that says
    // to regenerate it, whatever follows the magic.
    const std::string needle = "v1/v2/v3 trace containers are no longer "
                               "read; regenerate with storemlp_tracegen";
    auto expectRetired = [&](const std::function<void()> &read) {
        try {
            read();
            FAIL() << "expected TraceFormatError";
        } catch (const TraceFormatError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    std::string path = ::testing::TempDir() + "v4_retired.trc";
    for (const char *magic : {"SMLPTRC1", "SMLPTRC2", "SMLPTRC3"}) {
        SCOPED_TRACE(magic);
        // The v4 envelope after the old magic: a retired file is never
        // misparsed as a current one.
        std::string s = V4Layout::bytes();
        s.replace(0, trace_format::kMagicBytes, magic);
        expectV4Error(s, needle);
        {
            std::ofstream os(path, std::ios::binary);
            os << s;
        }
        expectRetired([&] { probeTraceFile(path); });
        expectRetired([&] { StreamingFileSource src(path); });
    }
    std::remove(path.c_str());
}

TEST(TraceV4Corrupt, TruncatedHeaderAndIndex)
{
    std::string s = V4Layout::bytes();
    expectV4Error(s.substr(0, 20), "truncated trace header");
    // A short index is caught up front by the capacity check, before
    // any entry is read.
    expectV4Error(s.substr(0, V4Layout::kIndex + 7),
                  "exceeds stream capacity");
}

TEST(TraceV4Corrupt, TruncatedIndexOnNonSeekableStream)
{
    // The one reader maps a regular file whole, so it knows the size
    // before parsing: an index cut short by the end of the input fails
    // the capacity check before any entry is read. Input with no size
    // (a pipe) is refused outright, without waiting for a writer.
    expectV4Error(V4Layout::bytes().substr(0, V4Layout::kIndex + 7),
                  "v4 chunk count 1 exceeds stream capacity");
    test::TempTraceFile fifo("fifo");
    ASSERT_EQ(::mkfifo(fifo.path.c_str(), 0600), 0);
    try {
        StreamingFileSource src(fifo.path);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("not a regular file"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceV4Corrupt, TruncatedChunkOnNonSeekableStream)
{
    // Likewise, missing body bytes fail the index's byte total against
    // the file size before any chunk is decoded.
    std::string s = V4Layout::bytes();
    expectV4Error(s.substr(0, s.size() - 2), "does not match stream size");
}

TEST(TraceV4Corrupt, TruncatedMidChunk)
{
    std::string s = V4Layout::bytes();
    expectV4Error(s.substr(0, s.size() - 2),
                  "does not match stream size");
}

TEST(TraceV4Corrupt, WrongChunkCount)
{
    std::string s = V4Layout::bytes();
    ++s[V4Layout::kChunkCount];
    expectV4Error(s, "v4 chunk count");
}

TEST(TraceV4Corrupt, ChunkSizeZero)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kChunkInsts] = 0;
    s[V4Layout::kChunkInsts + 2] = 0; // 1<<16 -> 0
    expectV4Error(s, "v4 chunk size is zero");
}

TEST(TraceV4Corrupt, ChunkSizeAboveLimit)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kChunkInsts + 4] = 0x01; // 1<<16 -> (1<<32)+(1<<16)
    expectV4Error(s, "exceeds limit");
}

TEST(TraceV4Corrupt, HugeIndexRejectedBeforeAllocation)
{
    // Consistent-but-impossible geometry: 2^32 records in 2^16 chunks
    // of 2^16. The count must be rejected against the actual stream
    // bytes before a single index entry or record is allocated.
    std::string s = V4Layout::bytes();
    using trace_format::putU64;
    auto *p = reinterpret_cast<uint8_t *>(s.data());
    putU64(p + V4Layout::kCount, uint64_t{1} << 32);
    putU64(p + V4Layout::kChunkInsts, uint64_t{1} << 16);
    putU64(p + V4Layout::kChunkCount, uint64_t{1} << 16);
    expectV4Error(s, "exceeds stream capacity");
}

TEST(TraceV4Corrupt, IndexRecordCountMismatch)
{
    std::string s = V4Layout::bytes();
    ++s[V4Layout::kIndex]; // entry 0 records: 2 -> 3
    expectV4Error(s, "record count");
}

TEST(TraceV4Corrupt, IndexOffsetNotContiguous)
{
    std::string s = V4Layout::bytes();
    ++s[V4Layout::kIndex + 8]; // entry 0 byteOff: 0 -> 1
    expectV4Error(s, "not contiguous");
}

TEST(TraceV4Corrupt, IndexByteLenImplausible)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kIndex + 16 + 3] = 0x7f; // byteLen |= 0x7f << 24
    expectV4Error(s, "outside plausible range");
}

TEST(TraceV4Corrupt, IndexClaimsWrongBodyTotal)
{
    std::string s = V4Layout::bytes();
    --s[V4Layout::kIndex + 16]; // byteLen 28 -> 27, still plausible
    expectV4Error(s, "does not match stream size");
}

TEST(TraceV4Corrupt, ReservedControlBit)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kCtrl0] |= char(0x80);
    expectV4Error(s, "reserved control bit");
}

TEST(TraceV4Corrupt, InvalidInstructionClass)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kCtrl0 + 1] = 0x1f; // seq bit kept, class 15
    expectV4Error(s, "invalid instruction class");
}

TEST(TraceV4Corrupt, SectionLengthMismatch)
{
    std::string s = V4Layout::bytes();
    ++s[V4Layout::kBody]; // pcLen 3 -> 4
    expectV4Error(s, "section lengths do not match");
}

TEST(TraceV4Corrupt, TruncatedVarintInsideChunk)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kPcStream + 2] |= char(0x80); // never-ending varint
    expectV4Error(s, "truncated varint");
}

TEST(TraceV4Corrupt, OverlongVarint)
{
    // Re-encode the alu's 3-byte pc delta as an 11-byte varint and
    // widen every length that frames it, so only the varint is bad.
    std::string s = V4Layout::bytes();
    std::string pc(10, char(0x80));
    pc.push_back(0x02);
    s.replace(V4Layout::kPcStream, 3, pc);
    s[V4Layout::kBody] += 8;       // section pcLen 3 -> 11
    s[V4Layout::kIndex + 16] += 8; // index byteLen
    expectV4Error(s, "overlong varint");
}

TEST(TraceV4Corrupt, TrailingPcStreamBytes)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kPcStream] &= char(0x7f); // 3-byte varint -> 1-byte
    expectV4Error(s, "v4 pc stream length mismatch");
}

TEST(TraceV4Corrupt, RegisterStreamLengthMismatch)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kCtrl0 + 1] |= char(trace_format::kCtrlRegs);
    expectV4Error(s, "v4 register stream length mismatch");
}

TEST(TraceV4Corrupt, FlagsStreamLengthMismatch)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kCtrl0 + 1] |= char(trace_format::kCtrlFlags);
    expectV4Error(s, "v4 flags stream length mismatch");
}

TEST(TraceV4Corrupt, ReservedRegisterBlockBits)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kRegsBlock + 2] |= char(0xc0); // src2 byte top bits
    expectV4Error(s, "reserved register-block bits");
}

TEST(TraceV4Corrupt, ReservedSizeCode)
{
    std::string s = V4Layout::bytes();
    s[V4Layout::kRegsBlock + 1] |= char(0xc0); // code 0 -> 12
    expectV4Error(s, "reserved size code");
}

TEST(TraceV4Corrupt, TruncatedAuxStream)
{
    std::string s = V4Layout::bytes();
    // Size code 0 -> 15 (escape) with an empty aux section.
    s[V4Layout::kRegsBlock] |= char(0xc0);
    s[V4Layout::kRegsBlock + 1] |= char(0xc0);
    expectV4Error(s, "truncated aux stream");
}

TEST(TraceV4Corrupt, FlipEveryByteNeverEscapesTraceFormatError)
{
    // Fuzz pass over the whole file: any single-byte corruption must
    // either still decode (e.g. a flipped seed or address bit) or
    // throw TraceFormatError — never crash, hang, or throw anything
    // else. Runs over header, index, and body alike.
    Trace t = makeTrace(500, 99);
    std::string clean = encodeV4(t, 64);
    for (size_t pos = 0; pos < clean.size(); ++pos) {
        for (uint8_t val : {uint8_t{0x00}, uint8_t{0xff},
                            uint8_t(clean[pos] ^ 0x41)}) {
            std::string s = clean;
            s[pos] = static_cast<char>(val);
            try {
                decode(s);
            } catch (const TraceFormatError &) {
                // expected for structural corruption
            }
        }
    }
}

// ---- streaming --------------------------------------------------------

TEST(TraceV4Streaming, StreamsIdenticallyAcrossFileChunkSizes)
{
    Trace ref = makeTrace(6000, 17);
    for (uint64_t ci : {uint64_t{1}, uint64_t{7}, uint64_t{509},
                        uint64_t{4096}}) {
        std::string path = ::testing::TempDir() + "v4_stream.trc";
        writeTraceFileV4(path, ref, "v4-stream", ci);
        StreamingFileSource src(path);
        EXPECT_EQ(src.bodyFormat(), 3u);
        uint64_t i = 0;
        uint64_t visited = forEachRecord(
            src, 0, ~uint64_t{0}, [&](const TraceRecord &r) {
                ASSERT_LT(i, ref.size());
                EXPECT_EQ(r.pc, ref[i].pc) << i;
                EXPECT_EQ(r.addr, ref[i].addr) << i;
                EXPECT_EQ(r.flags, ref[i].flags) << i;
                ++i;
            });
        EXPECT_EQ(visited, ref.size()) << "chunk " << ci;
        std::remove(path.c_str());
    }
}

TEST(TraceV4Streaming, AdoptsFileChunkGeometry)
{
    Trace ref = makeTrace(10000, 5);
    std::string path = ::testing::TempDir() + "v4_geom.trc";
    writeTraceFileV4(path, ref, "v4-geom", 1024);
    StreamingFileSource src(path, 777); // requested size is ignored
    EXPECT_EQ(src.chunkInsts(), 1024u);
    EXPECT_EQ(src.knownSize(), std::optional<uint64_t>(10000));
    std::remove(path.c_str());
}

TEST(TraceV4Streaming, RandomAccessWithoutSequentialWalk)
{
    Trace ref = makeTrace(10000, 5);
    std::string path = ::testing::TempDir() + "v4_rand.trc";
    writeTraceFileV4(path, ref, "v4-rand", 1024);
    StreamingFileSource src(path);
    // Last chunk first: no prior sequential pass required.
    auto last = src.fetch(9);
    ASSERT_TRUE(last);
    EXPECT_EQ(last->firstIdx, 9u * 1024);
    EXPECT_EQ(last->count, 10000u - 9 * 1024);
    EXPECT_EQ(last->data[0].pc, ref[9 * 1024].pc);
    auto mid = src.fetch(4);
    ASSERT_TRUE(mid);
    EXPECT_EQ(mid->data[17].addr, ref[4 * 1024 + 17].addr);
    EXPECT_FALSE(src.fetch(10));
    std::remove(path.c_str());
}

// ---- simulation equivalence -------------------------------------------

TEST(TraceV4Runner, BitIdenticalToRawOnShippedConfigs)
{
    // The acceptance bar: for every shipped config, SimResult must be
    // bit-identical between the in-memory trace and v4 files at one
    // record per chunk and at 4096 — both streamed through
    // StreamingFileSource and fully materialized via readTraceFile.
    const char *files[] = {"pc1.cfg", "pc2.cfg", "pc3.cfg",
                           "wc1.cfg", "wc2.cfg", "wc3.cfg",
                           "hws2.cfg"};
    int compared = 0;
    for (const char *f : files) {
        std::string path;
        for (const std::string &prefix :
             {std::string("configs/"), std::string("../configs/"),
              std::string("../../configs/")}) {  // NOLINT
            std::ifstream probe(prefix + f);
            if (probe) {
                path = prefix + f;
                break;
            }
        }
        if (path.empty())
            continue;

        RunSpec spec;
        spec.profile = WorkloadProfile::specjbb();
        spec.config = loadSimConfigFile(path);
        spec.warmupInsts = 20000;
        spec.measureInsts = 40000;

        Trace trace = test::wholeTrace(spec);
        RunOutput mat = test::runMaterialized(spec, trace);

        std::string base = ::testing::TempDir() + "v4_equiv_";
        std::string c1_path = base + "c1.trc";
        std::string v4_path = base + "v4.trc";
        writeTraceFileV4(c1_path, trace, "equiv", 1);
        writeTraceFileV4(v4_path, trace, "equiv", 4096);

        for (const std::string &p : {c1_path, v4_path}) {
            StreamingFileSource src(p);
            RunOutput streamed = Runner::run(spec, src);
            EXPECT_EQ(streamed.sim, mat.sim) << f << " " << p;
            EXPECT_EQ(streamed.storesPer100, mat.storesPer100) << f;
            EXPECT_EQ(streamed.l2Accesses, mat.l2Accesses) << f;

            Trace loaded = readTraceFile(p);
            RunOutput materialized = test::runMaterialized(spec, loaded);
            EXPECT_EQ(materialized.sim, mat.sim) << f << " " << p;
        }
        std::remove(c1_path.c_str());
        std::remove(v4_path.c_str());
        ++compared;
    }
    if (compared == 0)
        GTEST_SKIP() << "configs/ not reachable from test cwd";
}

} // namespace
} // namespace storemlp
