/**
 * @file
 * Tests for SharingTrace: statistics and binary round-tripping, and
 * for decodeTrace(), the one v4 decoder every loader validates with.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <streambuf>
#include <utility>
#include <vector>

#include "trace/format.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using trace::CoherenceEvent;
using trace::SharingTrace;
using trace::TraceReject;

CoherenceEvent
makeEvent(NodeId pid, Pc pc, Addr block, std::uint64_t readers_raw)
{
    CoherenceEvent ev;
    ev.pid = pid;
    ev.pc = pc;
    ev.dir = pid;
    ev.block = block;
    ev.readers = SharingBitmap(readers_raw);
    return ev;
}

TEST(SharingTrace, EmptyTrace)
{
    SharingTrace tr("x", 16);
    EXPECT_EQ(tr.storeMisses(), 0u);
    EXPECT_EQ(tr.decisions(), 0u);
    EXPECT_EQ(tr.sharingEvents(), 0u);
    EXPECT_EQ(tr.prevalence(), 0.0);
}

TEST(SharingTrace, AppendReturnsSequence)
{
    SharingTrace tr("x", 16);
    EXPECT_EQ(tr.append(makeEvent(0, 0x400, 1, 0)), 0u);
    EXPECT_EQ(tr.append(makeEvent(1, 0x404, 2, 0)), 1u);
    EXPECT_EQ(tr.storeMisses(), 2u);
}

TEST(SharingTrace, DecisionsAreNodesTimesEvents)
{
    SharingTrace tr("x", 16);
    for (int i = 0; i < 5; ++i)
        tr.append(makeEvent(0, 0x400, i, 0));
    EXPECT_EQ(tr.decisions(), 80u); // Table 6: 16 x store misses
}

TEST(SharingTrace, PrevalenceMatchesTableSixArithmetic)
{
    SharingTrace tr("x", 16);
    tr.append(makeEvent(0, 0x400, 1, 0b0110)); // 2 readers
    tr.append(makeEvent(1, 0x404, 2, 0b0001)); // 1 reader
    tr.append(makeEvent(2, 0x408, 3, 0));      // none
    EXPECT_EQ(tr.sharingEvents(), 3u);
    EXPECT_DOUBLE_EQ(tr.prevalence(), 3.0 / 48.0);
}

TEST(SharingTrace, StreamRoundTrip)
{
    SharingTrace tr("bench", 16);
    tr.meta().maxStaticStoresPerNode = 12;
    tr.meta().maxPredictedStoresPerNode = 7;
    tr.meta().blocksTouched = 99;
    tr.meta().totalOps = 12345;

    CoherenceEvent ev = makeEvent(3, 0x440, 77, 0b1010);
    ev.invalidated = SharingBitmap(0b0100);
    ev.prevWriterPid = 2;
    ev.prevWriterPc = 0x43c;
    ev.hasPrevWriter = true;
    ev.prevEvent = 0;
    tr.append(makeEvent(2, 0x43c, 77, 0b0100));
    tr.append(ev);

    std::stringstream ss;
    ASSERT_TRUE(tr.save(ss));

    SharingTrace back;
    ASSERT_TRUE(back.load(ss));
    EXPECT_EQ(back.name(), "bench");
    EXPECT_EQ(back.nNodes(), 16u);
    EXPECT_EQ(back.meta().maxStaticStoresPerNode, 12u);
    EXPECT_EQ(back.meta().maxPredictedStoresPerNode, 7u);
    EXPECT_EQ(back.meta().blocksTouched, 99u);
    EXPECT_EQ(back.meta().totalOps, 12345u);
    ASSERT_EQ(back.events().size(), 2u);

    const auto &e = back.events()[1];
    EXPECT_EQ(e.pid, 3u);
    EXPECT_EQ(e.pc, 0x440u);
    EXPECT_EQ(e.block, 77u);
    EXPECT_EQ(e.readers.raw(), 0b1010u);
    EXPECT_EQ(e.invalidated.raw(), 0b0100u);
    EXPECT_TRUE(e.hasPrevWriter);
    EXPECT_EQ(e.prevWriterPid, 2u);
    EXPECT_EQ(e.prevWriterPc, 0x43cu);
    EXPECT_EQ(e.prevEvent, 0u);
}

TEST(SharingTrace, LoadRejectsGarbage)
{
    std::stringstream ss("this is not a trace file");
    SharingTrace tr;
    EXPECT_FALSE(tr.load(ss));
}

TEST(SharingTrace, LoadRejectsTruncation)
{
    SharingTrace tr("bench", 16);
    tr.append(makeEvent(0, 0x400, 1, 0));
    std::stringstream ss;
    ASSERT_TRUE(tr.save(ss));
    std::string whole = ss.str();
    std::stringstream cut(whole.substr(0, whole.size() / 2));
    SharingTrace back;
    EXPECT_FALSE(back.load(cut));
}

/** An input buffer with no seek support, like a pipe: tellg() on a
 *  stream over it fails. */
struct UnseekableBuf : std::streambuf
{
    explicit UnseekableBuf(std::string s) : bytes(std::move(s))
    {
        setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
    }
    std::string bytes;
};

TEST(SharingTrace, UnseekableStreamGrowsItsBufferAndRejectsTruncation)
{
    // 2000 records (128 KB) outgrow the first 64 KiB buffer twice.
    SharingTrace tr("pipe", 16);
    for (int i = 0; i < 2000; ++i)
        tr.append(makeEvent(i % 16, 0x400 + 4 * (i % 7), i, i * 3));
    std::stringstream ss;
    ASSERT_TRUE(tr.save(ss));
    const std::string whole = ss.str();

    UnseekableBuf buf(whole);
    std::istream is(&buf);
    ASSERT_EQ(is.tellg(), std::istream::pos_type(-1));
    is.clear();
    SharingTrace back;
    ASSERT_TRUE(back.load(is));
    EXPECT_EQ(back.name(), "pipe");
    ASSERT_EQ(back.events().size(), 2000u);
    EXPECT_EQ(back.events()[1999].block, 1999u);

    for (std::size_t cut : {std::size_t(100), whole.size() / 2,
                            whole.size() - 1}) {
        UnseekableBuf short_buf(whole.substr(0, cut));
        std::istream short_is(&short_buf);
        SharingTrace dst;
        EXPECT_FALSE(dst.load(short_is)) << "cut at " << cut;
    }
}

TEST(SharingTrace, FileRoundTrip)
{
    SharingTrace tr("filetest", 8);
    tr.append(makeEvent(1, 0x400, 5, 0b11));

    std::string path = ::testing::TempDir() + "/ccp_trace_test.bin";
    ASSERT_TRUE(tr.saveFile(path));
    SharingTrace back;
    ASSERT_TRUE(back.loadFile(path));
    EXPECT_EQ(back.name(), "filetest");
    EXPECT_EQ(back.nNodes(), 8u);
    ASSERT_EQ(back.events().size(), 1u);
    EXPECT_EQ(back.events()[0].readers.raw(), 0b11u);
    std::remove(path.c_str());
}

TEST(SharingTrace, LoadMissingFileFails)
{
    SharingTrace tr;
    EXPECT_FALSE(tr.loadFile("/nonexistent/path/trace.bin"));
}

// ---------------------------------------------------------------------
// Format v4 validation: corruption in any form is rejected without a
// crash and without touching the destination trace.

/** A small but non-trivial trace exercising every serialized field. */
SharingTrace
sampleTrace()
{
    SharingTrace tr("sample", 16);
    tr.meta().maxStaticStoresPerNode = 12;
    tr.meta().blocksTouched = 99;
    tr.meta().totalOps = 12345;
    tr.meta().invalidationsSent = 7;
    for (int i = 0; i < 3; ++i) {
        CoherenceEvent ev = makeEvent(i, 0x400 + 4 * i, 10 + i,
                                      0b1010 >> i);
        ev.invalidated = SharingBitmap(0b0100);
        ev.prevWriterPid = 2;
        ev.prevWriterPc = 0x43c;
        ev.hasPrevWriter = i > 0;
        ev.prevEvent = i > 0 ? i - 1 : trace::noEvent;
        tr.append(ev);
    }
    return tr;
}

std::string
serialized(const SharingTrace &tr)
{
    std::stringstream ss;
    EXPECT_TRUE(tr.save(ss));
    return ss.str();
}

/** A destination pre-filled with sentinel state, to detect partial
 *  writes by a failing load. */
SharingTrace
sentinelTrace()
{
    SharingTrace tr("sentinel", 8);
    tr.meta().totalOps = 777;
    tr.append(makeEvent(5, 0x999, 42, 0b1));
    return tr;
}

void
expectUnchangedSentinel(const SharingTrace &tr)
{
    EXPECT_EQ(tr.name(), "sentinel");
    EXPECT_EQ(tr.nNodes(), 8u);
    EXPECT_EQ(tr.meta().totalOps, 777u);
    ASSERT_EQ(tr.events().size(), 1u);
    EXPECT_EQ(tr.events()[0].block, 42u);
}

/** load() from raw bytes. */
bool
loadBytes(SharingTrace &tr, const std::string &bytes)
{
    std::stringstream ss(bytes);
    return tr.load(ss);
}

TEST(TraceFormatV4, HeaderGeometry)
{
    EXPECT_EQ(sizeof(trace::TraceHeader), 64u);
    EXPECT_EQ(sizeof(trace::PackedEvent), 64u);
    const std::string bytes = serialized(sampleTrace());
    EXPECT_EQ(bytes.size(), sizeof(trace::TraceHeader) +
                                trace::traceMetaBytes + 3 * 64 +
                                std::strlen("sample"));
}

TEST(TraceFormatV4, RejectsTruncationAtEveryBoundary)
{
    const std::string whole = serialized(sampleTrace());
    // Every header byte, every section boundary, every event record
    // boundary, a mid-record cut, and one-byte-short.
    std::vector<std::size_t> cuts;
    for (std::size_t i = 0; i < sizeof(trace::TraceHeader); ++i)
        cuts.push_back(i);
    const std::size_t payload = sizeof(trace::TraceHeader);
    cuts.push_back(payload);                         // before meta
    cuts.push_back(payload + trace::traceMetaBytes); // before events
    for (std::size_t e = 0; e <= 3; ++e)
        cuts.push_back(payload + trace::traceMetaBytes + e * 64);
    cuts.push_back(payload + trace::traceMetaBytes + 64 + 13);
    cuts.push_back(whole.size() - 1); // inside the name
    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, whole.size());
        SharingTrace dst = sentinelTrace();
        EXPECT_FALSE(loadBytes(dst, whole.substr(0, cut)))
            << "cut at " << cut;
        expectUnchangedSentinel(dst);
    }
}

TEST(TraceFormatV4, RejectsEverySingleFlippedByte)
{
    const std::string whole = serialized(sampleTrace());
    for (std::size_t i = 0; i < whole.size(); ++i) {
        std::string bad = whole;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        SharingTrace dst = sentinelTrace();
        EXPECT_FALSE(loadBytes(dst, bad)) << "flip at byte " << i;
        expectUnchangedSentinel(dst);
    }
}

TEST(TraceFormatV4, RejectsBadMagicAndOldVersions)
{
    const std::string whole = serialized(sampleTrace());
    {
        std::string bad = whole;
        bad[0] = 'X';
        SharingTrace dst;
        EXPECT_FALSE(loadBytes(dst, bad));
    }
    // Every other version number, notably v3, is rejected — stale
    // caches regenerate instead of misparsing.
    for (std::uint32_t v : {0u, 1u, 2u, 3u, 5u, 0xffffffffu}) {
        std::string bad = whole;
        std::memcpy(bad.data() + 4, &v, sizeof(v));
        SharingTrace dst;
        EXPECT_FALSE(loadBytes(dst, bad)) << "version " << v;
    }
}

TEST(TraceFormatV4, RejectsOversizedEventCount)
{
    const std::string whole = serialized(sampleTrace());
    // Huge count with stale payloadBytes: inconsistent header.
    {
        std::string bad = whole;
        const std::uint64_t huge = std::uint64_t(1) << 62;
        std::memcpy(bad.data() + 16, &huge, sizeof(huge));
        SharingTrace dst;
        EXPECT_FALSE(loadBytes(dst, bad));
    }
    // Consistent huge count + payloadBytes: must be bounded by the
    // actual remaining bytes before any allocation happens.
    {
        std::string bad = whole;
        const std::uint64_t count = std::uint64_t(1) << 32;
        const std::uint64_t payload =
            trace::expectedPayloadBytes(count, 6);
        ASSERT_NE(payload, 0u);
        std::memcpy(bad.data() + 16, &count, sizeof(count));
        std::memcpy(bad.data() + 24, &payload, sizeof(payload));
        SharingTrace dst;
        EXPECT_FALSE(loadBytes(dst, bad));
    }
}

TEST(TraceFormatV4, RejectsBadNodeCounts)
{
    const std::string whole = serialized(sampleTrace());
    for (std::uint32_t nodes : {0u, 65u, 1000u}) {
        std::string bad = whole;
        std::memcpy(bad.data() + 8, &nodes, sizeof(nodes));
        SharingTrace dst = sentinelTrace();
        EXPECT_FALSE(loadBytes(dst, bad)) << "nNodes " << nodes;
        expectUnchangedSentinel(dst);
    }
}

TEST(TraceFormatV4, SaveRejectsUnrepresentableNodeCounts)
{
    std::stringstream ss;
    EXPECT_FALSE(SharingTrace("x", 0).save(ss));
    EXPECT_FALSE(SharingTrace("x", 65).save(ss));
    EXPECT_TRUE(SharingTrace("x", 64).save(ss));
}

TEST(TraceFormatV4, MappedLoadMatchesStreamLoad)
{
    SharingTrace tr = sampleTrace();
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_mmap_eq.trace";
    ASSERT_TRUE(tr.saveFile(path));

    SharingTrace via_stream, via_map;
    ASSERT_TRUE(via_stream.loadFileStream(path));
    ASSERT_TRUE(via_map.loadFileMapped(path));
    std::remove(path.c_str());

    EXPECT_EQ(via_map.name(), via_stream.name());
    EXPECT_EQ(via_map.nNodes(), via_stream.nNodes());
    EXPECT_EQ(via_map.meta().totalOps, via_stream.meta().totalOps);
    EXPECT_EQ(via_map.meta().invalidationsSent,
              via_stream.meta().invalidationsSent);
    ASSERT_EQ(via_map.events().size(), via_stream.events().size());
    for (std::size_t i = 0; i < via_map.events().size(); ++i) {
        const auto &a = via_map.events()[i];
        const auto &b = via_stream.events()[i];
        EXPECT_EQ(a.pid, b.pid);
        EXPECT_EQ(a.dir, b.dir);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.block, b.block);
        EXPECT_EQ(a.invalidated.raw(), b.invalidated.raw());
        EXPECT_EQ(a.readers.raw(), b.readers.raw());
        EXPECT_EQ(a.prevWriterPc, b.prevWriterPc);
        EXPECT_EQ(a.prevWriterPid, b.prevWriterPid);
        EXPECT_EQ(a.hasPrevWriter, b.hasPrevWriter);
        EXPECT_EQ(a.prevEvent, b.prevEvent);
    }
}

TEST(TraceFormatV4, MappedLoadRejectsCorruptFiles)
{
    const std::string whole = serialized(sampleTrace());
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_mmap_bad.trace";

    auto write_file = [&](const std::string &bytes) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    };

    // Flipped byte, truncation, and trailing garbage all rejected.
    std::string flipped = whole;
    flipped[100] = static_cast<char>(flipped[100] ^ 0x01);
    for (const std::string &bytes :
         {flipped, whole.substr(0, whole.size() / 2),
          whole + "junk"}) {
        write_file(bytes);
        SharingTrace dst = sentinelTrace();
        EXPECT_FALSE(dst.loadFileMapped(path));
        expectUnchangedSentinel(dst);
    }
    write_file(whole);
    SharingTrace ok;
    EXPECT_TRUE(ok.loadFileMapped(path));
    EXPECT_EQ(ok.events().size(), 3u);
    std::remove(path.c_str());
}

TEST(TraceFormatV4, LoadFileUsesMappedPathTransparently)
{
    SharingTrace tr = sampleTrace();
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_loadfile.trace";
    ASSERT_TRUE(tr.saveFile(path));
    SharingTrace back;
    ASSERT_TRUE(back.loadFile(path));
    EXPECT_EQ(back.name(), "sample");
    EXPECT_EQ(back.events().size(), 3u);
    std::remove(path.c_str());
}

TEST(TraceFormatV4, EmptyTraceRoundTripsWithChecksum)
{
    SharingTrace tr("empty", 4);
    std::stringstream ss;
    ASSERT_TRUE(tr.save(ss));
    SharingTrace back;
    ASSERT_TRUE(back.load(ss));
    EXPECT_EQ(back.name(), "empty");
    EXPECT_EQ(back.nNodes(), 4u);
    EXPECT_TRUE(back.events().empty());
}

// ---------------------------------------------------------------------
// The per-event byte rule: a hasPrevWriter byte other than 0/1, or a
// non-zero pad byte, is rejected by both loaders even under a valid
// checksum.

/** @p bytes with its header checksum recomputed over the new bytes. */
std::string
rechecksummed(std::string bytes)
{
    trace::TraceHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    trace::Fnv1a sum = trace::checksumSeed(h);
    sum.update(bytes.data() + sizeof(h), bytes.size() - sizeof(h));
    h.checksum = sum.digest();
    std::memcpy(bytes.data(), &h, sizeof(h));
    return bytes;
}

/** @p bytes in an 8-byte-aligned buffer, as decodeTrace() requires. */
std::vector<std::uint64_t>
alignedCopy(const std::string &bytes)
{
    std::vector<std::uint64_t> words((bytes.size() + 7) / 8);
    if (!bytes.empty())
        std::memcpy(words.data(), bytes.data(), bytes.size());
    return words;
}

/** decodeTrace()'s verdict on @p bytes: the reject, or nullopt. */
std::optional<TraceReject>
rejectOf(const std::string &bytes)
{
    const std::vector<std::uint64_t> words = alignedCopy(bytes);
    return trace::decodeTrace({reinterpret_cast<const std::byte *>(
                                   words.data()),
                               bytes.size()})
        .reject;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

TEST(TraceFormatV4, BothLoadersRejectABadFlagOrPadByte)
{
    const std::string whole = serialized(sampleTrace());
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_flag_byte.trace";
    const std::size_t flag = offsetof(trace::PackedEvent, hasPrevWriter);
    for (std::size_t event = 0; event < 3; ++event) {
        for (std::size_t at = flag; at < flag + 4; ++at) {
            std::string bad = whole;
            bad[trace::traceEventOffset + 64 * event + at] =
                at == flag ? 2 : 1;
            bad = rechecksummed(bad);

            EXPECT_EQ(rejectOf(bad), TraceReject::Record)
                << "event " << event << " byte " << at;
            SharingTrace via_stream = sentinelTrace();
            EXPECT_FALSE(loadBytes(via_stream, bad))
                << "event " << event << " byte " << at;
            expectUnchangedSentinel(via_stream);

            writeFile(path, bad);
            SharingTrace via_map = sentinelTrace();
            EXPECT_FALSE(via_map.loadFileMapped(path))
                << "event " << event << " byte " << at;
            expectUnchangedSentinel(via_map);
            SharingTrace via_file = sentinelTrace();
            EXPECT_FALSE(via_file.loadFile(path));
            expectUnchangedSentinel(via_file);
        }
    }
    // The rule's own control: re-checksumming an intact file loads.
    writeFile(path, rechecksummed(whole));
    SharingTrace ok;
    EXPECT_TRUE(ok.loadFileMapped(path));
    EXPECT_TRUE(loadBytes(ok, whole));
    std::remove(path.c_str());

    // The decoder names the reject each loader refused on.
    std::string bad_magic = whole;
    bad_magic[0] = 'X';
    EXPECT_EQ(rejectOf(bad_magic), TraceReject::Header);
    EXPECT_EQ(rejectOf(whole + '\0'), TraceReject::Size);
    EXPECT_EQ(rejectOf(whole.substr(0, whole.size() - 1)),
              TraceReject::Size);
    EXPECT_EQ(rejectOf(whole.substr(0, 10)), TraceReject::Size);
    std::string flipped = whole;
    flipped[100] = static_cast<char>(flipped[100] ^ 0x01);
    EXPECT_EQ(rejectOf(flipped), TraceReject::Checksum);
    EXPECT_EQ(rejectOf(whole), std::nullopt);
}

// ---------------------------------------------------------------------
// Seeded mutation of whole images: every mutant is either a structured
// reject, or decodes to a trace whose save() is the mutant byte for
// byte (the decoder accepts only the bytes save() writes).

/** Overwrite the @p T at @p offset of @p bytes with @p value. */
template <typename T>
void
poke(std::string &bytes, std::size_t offset, T value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/** A trace of @p n events with seeded, varied field values. */
std::string
randomImage(std::size_t n, std::mt19937_64 &rng)
{
    SharingTrace tr(std::string(n % 13, 'w'), 1 + rng() % 64);
    tr.meta().totalOps = rng();
    tr.meta().interventions = rng();
    for (std::size_t i = 0; i < n; ++i) {
        CoherenceEvent ev = makeEvent(rng() % 64, rng(), rng(), rng());
        ev.dir = rng() % 64;
        ev.invalidated = SharingBitmap(rng());
        ev.prevWriterPid = rng() % 64;
        ev.prevWriterPc = rng();
        ev.hasPrevWriter = rng() % 2;
        ev.prevEvent = rng();
        tr.append(ev);
    }
    return serialized(tr);
}

/** Whether @p image decodes, after checking that an accepted image is
 *  exactly what save() writes for the decoded trace. */
bool
decodesAndRoundTrips(const std::string &image)
{
    const std::vector<std::uint64_t> words = alignedCopy(image);
    const trace::DecodedTrace d = trace::decodeTrace(
        {reinterpret_cast<const std::byte *>(words.data()), image.size()});
    if (d.reject)
        return false;
    SharingTrace tr(std::string(d.name), d.header.nNodes);
    tr.meta() = d.meta;
    for (const CoherenceEvent &ev : d.events)
        tr.append(ev);
    EXPECT_EQ(serialized(tr), image);
    return true;
}

TEST(TraceDecode, SeededMutantsRejectOrRoundTripByteForByte)
{
    std::mt19937_64 rng(0x5eed);
    std::vector<std::string> images;
    for (std::size_t n : {0, 1, 500})
        images.push_back(randomImage(n, rng));

    std::size_t decoded = 0, rejected = 0;
    const auto check = [&](const std::string &mutant) {
        decodesAndRoundTrips(mutant) ? ++decoded : ++rejected;
    };
    for (const std::string &image : images) {
        ASSERT_TRUE(decodesAndRoundTrips(image));
        const auto pick = [&](std::size_t n) { return rng() % n; };
        for (int round = 0; round < 200; ++round) {
            // 1-3 flipped bits; half the time the checksum is
            // recomputed so the header and byte rules are reached.
            std::string flipped = image;
            const int flips = 1 + pick(3);
            for (int f = 0; f < flips; ++f)
                flipped[pick(flipped.size())] ^= char(1 << pick(8));
            if (round % 2) {
                flipped = rechecksummed(flipped);
            } else if (flips == 1) {
                EXPECT_TRUE(rejectOf(flipped).has_value());
            }
            check(flipped);

            // Truncations and one-byte extensions are Size rejects.
            const std::string cut = image.substr(0, pick(image.size()));
            EXPECT_EQ(rejectOf(cut), TraceReject::Size);
            EXPECT_EQ(rejectOf(image + char(rng())), TraceReject::Size);

            // A splice: a prefix of one image, a suffix of another.
            const std::string &other = images[pick(images.size())];
            check(image.substr(0, pick(image.size())) +
                  other.substr(pick(other.size())));
        }

        // Lies in the header's count and size fields, re-checksummed
        // so that the structural checks, not the checksum, decide.
        trace::TraceHeader h;
        std::memcpy(&h, image.data(), sizeof(h));
        for (std::uint64_t lie :
             {std::uint64_t(0), std::uint64_t(1), std::uint64_t(2),
              std::uint64_t(63), std::uint64_t(64), std::uint64_t(65),
              std::uint64_t(4097), h.eventCount + 1, h.eventCount - 1,
              std::uint64_t(1) << 40, ~std::uint64_t(0), rng()}) {
            std::string bad = image;
            poke(bad, offsetof(trace::TraceHeader, eventCount), lie);
            check(rechecksummed(bad));
            // The same lie with a payloadBytes that agrees with it.
            poke(bad, offsetof(trace::TraceHeader, payloadBytes),
                 trace::expectedPayloadBytes(lie, h.nameBytes));
            check(rechecksummed(bad));

            bad = image;
            poke(bad, offsetof(trace::TraceHeader, payloadBytes), lie);
            check(rechecksummed(bad));
            poke(bad, offsetof(trace::TraceHeader, payloadBytes),
                 h.payloadBytes + lie);
            check(rechecksummed(bad));

            bad = image;
            poke(bad, offsetof(trace::TraceHeader, nameBytes),
                 static_cast<std::uint32_t>(lie));
            check(rechecksummed(bad));

            // nNodes in [1, 64] is a different, valid trace.
            bad = image;
            poke(bad, offsetof(trace::TraceHeader, nNodes),
                 static_cast<std::uint32_t>(lie));
            check(rechecksummed(bad));
        }
    }
    // Both outcomes were reached, so neither branch is vacuous.
    EXPECT_GT(decoded, 100u);
    EXPECT_GT(rejected, 1000u);
}

// ---------------------------------------------------------------------
// A mapped trace serves its events from the file mapping: it outlives
// the file's name, shares the mapping with copies, and never writes
// to it.

void
expectSameEvents(const SharingTrace &a, const SharingTrace &b)
{
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const auto pa = trace::packEvent(a.events()[i]);
        const auto pb = trace::packEvent(b.events()[i]);
        EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(pa)), 0) << "event " << i;
    }
}

TEST(MappedTrace, KeepsItsEventsWhenTheFileIsReplacedOrUnlinked)
{
    const SharingTrace original = sampleTrace();
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_mapped_replace.trace";
    ASSERT_TRUE(original.saveFile(path));
    SharingTrace live;
    ASSERT_TRUE(live.loadFileMapped(path));

    // saveFile() renames new content over the path: the live trace
    // keeps the old file's mapping.
    SharingTrace other("other", 4);
    for (int i = 0; i < 5; ++i)
        other.append(makeEvent(1, 0x800 + 4 * i, 500 + i, 0b10));
    ASSERT_TRUE(other.saveFile(path));
    EXPECT_EQ(live.name(), "sample");
    expectSameEvents(live, original);

    std::remove(path.c_str());
    expectSameEvents(live, original);
}

TEST(MappedTrace, CopiesOutliveTheOriginalAndMovesEmptyTheSource)
{
    const SharingTrace original = sampleTrace();
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_mapped_copy.trace";
    ASSERT_TRUE(original.saveFile(path));
    auto loaded = std::make_unique<SharingTrace>();
    ASSERT_TRUE(loaded->loadFileMapped(path));
    std::remove(path.c_str());

    SharingTrace copy = *loaded;
    SharingTrace assigned;
    assigned = *loaded;
    loaded.reset();
    expectSameEvents(copy, original);
    expectSameEvents(assigned, original);

    SharingTrace moved = std::move(copy);
    expectSameEvents(moved, original);
    EXPECT_TRUE(copy.events().empty());
    assigned = std::move(moved);
    expectSameEvents(assigned, original);
    EXPECT_TRUE(moved.events().empty());
}

TEST(MappedTrace, MutationCopiesOutAndLeavesTheFileByteIdentical)
{
    const SharingTrace original = sampleTrace();
    const std::string path =
        ::testing::TempDir() + "/ccp_trace_mapped_mutate.trace";
    ASSERT_TRUE(original.saveFile(path));
    const std::string before = readFile(path);

    SharingTrace edited;
    ASSERT_TRUE(edited.loadFileMapped(path));
    const SharingTrace sharer = edited;
    edited.mutableEvents()[0].readers.set(9);
    edited.append(makeEvent(4, 0x480, 8, 0b1));

    EXPECT_TRUE(edited.events()[0].readers.test(9));
    EXPECT_EQ(edited.events().size(), 4u);
    expectSameEvents(sharer, original);
    EXPECT_EQ(readFile(path), before);

    SharingTrace reloaded;
    ASSERT_TRUE(reloaded.loadFileMapped(path));
    expectSameEvents(reloaded, original);
    std::remove(path.c_str());
}

} // namespace
