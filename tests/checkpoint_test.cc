/**
 * @file
 * Tests for the sweep checkpoint container (sweep/checkpoint.hh):
 * round-tripping, key derivation, and — the heart of the file — a
 * corruption matrix proving every damaged or stale checkpoint is
 * rejected (truncation, flipped checksum word, foreign key, version
 * skew, out-of-range or unsorted entries) rather than resumed into
 * wrong results.  Also locks down the checkpoint.torn_write fault
 * point, the deterministic stand-in for a crash mid-write.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "obs/registry.hh"
#include "predict/evaluator.hh"
#include "sweep/checkpoint.hh"
#include "sweep/space.hh"
#include "trace/format.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::SchemeSpec;
using predict::UpdateMode;
using sweep::CheckpointEntry;
using sweep::CheckpointKey;
using sweep::CheckpointLoad;
using sweep::SweepKernel;

// Header byte offsets (static_asserted to 96 bytes total).
constexpr std::size_t offVersion = 4;
constexpr std::size_t offKernel = 12;
constexpr std::size_t offSchemeSetHash = 24;
constexpr std::size_t offChecksum = 64;
constexpr std::size_t headerBytes = 96;

trace::SharingTrace
tinyTrace(const char *name, unsigned salt)
{
    trace::SharingTrace tr(name, 8);
    for (unsigned i = 0; i < 40; ++i) {
        trace::CoherenceEvent ev;
        ev.pid = static_cast<NodeId>((i + salt) % 8);
        ev.pc = 0x1000 + 4 * ((i + salt) % 4);
        ev.block = i % 6;
        ev.dir = i % 8;
        ev.readers = SharingBitmap::single((i + salt + 1) % 8);
        tr.append(ev);
    }
    return tr;
}

std::vector<trace::SharingTrace>
tinySuite()
{
    std::vector<trace::SharingTrace> suite;
    suite.push_back(tinyTrace("alpha", 1));
    suite.push_back(tinyTrace("beta", 5));
    return suite;
}

std::vector<SchemeSpec>
tinySpace()
{
    sweep::SpaceSpec spec;
    spec.maxBits = std::uint64_t(1) << 10;
    spec.pcBitsGrid = {0, 2};
    spec.addrBitsGrid = {0, 2};
    spec.pasDepths = {1};
    return enumerateSchemes(spec);
}

CheckpointKey
tinyKey(const std::vector<trace::SharingTrace> &suite,
        const std::vector<SchemeSpec> &schemes)
{
    return makeCheckpointKey(suite, schemes, UpdateMode::Direct,
                             SweepKernel::Batched);
}

std::vector<CheckpointEntry>
someEntries(std::size_t n_traces)
{
    std::vector<CheckpointEntry> entries;
    // Deliberately unsorted: saveCheckpoint must canonicalize.
    for (std::uint64_t idx : {4u, 0u, 2u}) {
        CheckpointEntry e;
        e.schemeIndex = idx;
        for (std::size_t t = 0; t < n_traces; ++t) {
            Confusion c;
            c.tp = 100 * idx + t;
            c.fp = 7 + idx;
            c.tn = 1000 + t;
            c.fn = idx;
            e.perTrace.push_back(c);
        }
        entries.push_back(e);
    }
    return entries;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

std::uint64_t
getWord(const std::vector<char> &buf, std::size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, buf.data() + off, 8);
    return v;
}

void
putWord(std::vector<char> &buf, std::size_t off, std::uint64_t v)
{
    std::memcpy(buf.data() + off, &v, 8);
}

/** Recompute the whole-file checksum after a deliberate header edit,
 *  so the loader's rejection is specific to the edited field and not
 *  just a checksum side effect. */
void
resealChecksum(std::vector<char> &buf)
{
    putWord(buf, offChecksum, 0);
    trace::Fnv1a sum;
    sum.update(buf.data(), buf.size());
    putWord(buf, offChecksum, sum.digest());
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("CCP_FAULT_INJECT");
        fault::reinit();
    }

    void
    TearDown() override
    {
        ::unsetenv("CCP_FAULT_INJECT");
        fault::reinit();
    }
};

TEST_F(CheckpointTest, RoundTripsEntriesSortedByScheme)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    ASSERT_GE(schemes.size(), 5u);
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("roundtrip.ckpt");

    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    std::vector<CheckpointEntry> loaded;
    ASSERT_EQ(loadCheckpoint(path, key, loaded), CheckpointLoad::Ok);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded[0].schemeIndex, 0u);
    EXPECT_EQ(loaded[1].schemeIndex, 2u);
    EXPECT_EQ(loaded[2].schemeIndex, 4u);
    for (const auto &e : loaded) {
        ASSERT_EQ(e.perTrace.size(), suite.size());
        for (std::size_t t = 0; t < suite.size(); ++t) {
            EXPECT_EQ(e.perTrace[t].tp, 100 * e.schemeIndex + t);
            EXPECT_EQ(e.perTrace[t].fp, 7 + e.schemeIndex);
            EXPECT_EQ(e.perTrace[t].tn, 1000 + t);
            EXPECT_EQ(e.perTrace[t].fn, e.schemeIndex);
        }
    }
}

TEST_F(CheckpointTest, MissingFileIsMissingNotInvalid)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(tempPath("no-such.ckpt"),
                             tinyKey(suite, schemes), loaded),
              CheckpointLoad::Missing);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(CheckpointTest, KeyChangesWithEveryInput)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey base = tinyKey(suite, schemes);

    // Different trace contents.
    auto other_suite = tinySuite();
    other_suite[1] = tinyTrace("beta", 6);
    EXPECT_NE(makeCheckpointKey(other_suite, schemes,
                                UpdateMode::Direct,
                                SweepKernel::Batched)
                  .traceSetHash,
              base.traceSetHash);

    // Different scheme list (drop one).
    auto fewer = schemes;
    fewer.pop_back();
    EXPECT_NE(makeCheckpointKey(suite, fewer, UpdateMode::Direct,
                                SweepKernel::Batched)
                  .schemeSetHash,
              base.schemeSetHash);

    // Different update mode.
    EXPECT_NE(makeCheckpointKey(suite, schemes,
                                UpdateMode::Forwarded,
                                SweepKernel::Batched)
                  .schemeSetHash,
              base.schemeSetHash);

    // Different kernel.
    EXPECT_NE(makeCheckpointKey(suite, schemes, UpdateMode::Direct,
                                SweepKernel::Reference)
                  .kernel,
              base.kernel);
}

// ---------------------------------------------------------------------
// Corruption matrix: every damaged file must be rejected.

TEST_F(CheckpointTest, TruncatedFileIsRejected)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("trunc.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    auto bytes = readFile(path);
    ASSERT_GT(bytes.size(), headerBytes);
    std::vector<CheckpointEntry> loaded;

    // Mid-payload, mid-header, and empty truncations.
    for (std::size_t keep :
         {bytes.size() - 8, headerBytes + 3, headerBytes - 40,
          std::size_t(0)}) {
        std::vector<char> cut(bytes.begin(),
                              bytes.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        writeFile(path, cut);
        EXPECT_EQ(loadCheckpoint(path, key, loaded),
                  CheckpointLoad::Invalid)
            << "kept " << keep << " bytes";
        EXPECT_TRUE(loaded.empty());
    }
}

TEST_F(CheckpointTest, FlippedChecksumWordIsRejected)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("flip.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    auto bytes = readFile(path);
    putWord(bytes, offChecksum, getWord(bytes, offChecksum) ^ 1);
    writeFile(path, bytes);

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

TEST_F(CheckpointTest, FlippedPayloadBitIsRejected)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("flip-payload.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    auto bytes = readFile(path);
    bytes[headerBytes + 17] ^= 0x10; // a confusion count byte
    writeFile(path, bytes);

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

TEST_F(CheckpointTest, ForeignSchemeSetIsAKeyMismatch)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("foreign.ckpt");

    // An intact checkpoint written for a *different* scheme set: the
    // container validates, the identity does not — KeyMismatch, so
    // the caller rewrites instead of resuming wrong results.
    auto fewer = schemes;
    fewer.pop_back();
    ASSERT_TRUE(saveCheckpoint(path, tinyKey(suite, fewer),
                               someEntries(suite.size())));

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::KeyMismatch);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(CheckpointTest, TamperedSchemeSetHashFailsTheChecksum)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("tamper-hash.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    // Flip the stored scheme-set hash without resealing: the header
    // is covered by the checksum, so this is Invalid (corruption),
    // not a mere mismatch.
    auto bytes = readFile(path);
    putWord(bytes, offSchemeSetHash,
            getWord(bytes, offSchemeSetHash) ^ 0xdead);
    writeFile(path, bytes);
    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);

    // Reseal the checksum over the tampered hash: the container is
    // now self-consistent but belongs to another sweep — KeyMismatch.
    resealChecksum(bytes);
    writeFile(path, bytes);
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::KeyMismatch);
}

TEST_F(CheckpointTest, VersionSkewIsRejectedEvenWithAValidChecksum)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("skew.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    auto bytes = readFile(path);
    std::uint32_t v = sweep::checkpointFormatVersion + 1;
    std::memcpy(bytes.data() + offVersion, &v, 4);
    resealChecksum(bytes); // version check, not a checksum artifact
    writeFile(path, bytes);

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

TEST_F(CheckpointTest, UnknownKernelIsRejectedEvenWithAValidChecksum)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("kernel.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));
    const auto bytes = readFile(path);
    std::vector<CheckpointEntry> loaded;

    // Kernel word 1 (reference) is a valid header from another sweep.
    auto reference = bytes;
    std::uint32_t k = 1;
    std::memcpy(reference.data() + offKernel, &k, 4);
    resealChecksum(reference);
    writeFile(path, reference);
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::KeyMismatch);

    // Kernel word 2 names no kernel: structurally invalid.
    auto unknown = bytes;
    k = 2;
    std::memcpy(unknown.data() + offKernel, &k, 4);
    resealChecksum(unknown);
    writeFile(path, unknown);
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

TEST_F(CheckpointTest, OutOfRangeSchemeIndexIsRejected)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("range.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    auto bytes = readFile(path);
    putWord(bytes, headerBytes, schemes.size() + 5); // first index
    resealChecksum(bytes);
    writeFile(path, bytes);

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

TEST_F(CheckpointTest, DuplicateSchemeIndexIsRejected)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("dup.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    // Second entry gets the first entry's index: sorted-strictly-
    // increasing validation must refuse it.
    auto bytes = readFile(path);
    const std::uint64_t entry_bytes =
        sweep::checkpointEntryBytes(
            static_cast<std::uint32_t>(suite.size()));
    putWord(bytes, headerBytes + entry_bytes,
            getWord(bytes, headerBytes));
    resealChecksum(bytes);
    writeFile(path, bytes);

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

// ---------------------------------------------------------------------
// Torn writes (deterministic crash-mid-write stand-in)

TEST_F(CheckpointTest, TornWriteIsRejectedThenRegenerable)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("torn.ckpt");

    // Arm: the very next checkpoint write persists only 100 bytes.
    ::setenv("CCP_FAULT_INJECT", "checkpoint.torn_write=100", 1);
    fault::reinit();
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);

    // The fault fires once: rewriting regenerates a valid checkpoint
    // — the recovery story for a real torn write.
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));
    EXPECT_EQ(loadCheckpoint(path, key, loaded), CheckpointLoad::Ok);
    EXPECT_EQ(loaded.size(), 3u);
}

TEST_F(CheckpointTest, FailedWriteLeavesThePreviousCheckpointIntact)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path =
        tempPath("no-such-dir/atomic.ckpt"); // unwritable target

    EXPECT_FALSE(
        saveCheckpoint(path, key, someEntries(suite.size())));
}

// ---------------------------------------------------------------------
// Write durability (fsync before rename, and the fault hook that
// turns the fsyncs off to model a crash losing the page cache)

TEST_F(CheckpointTest, SaveFsyncsTheDataFileAndItsDirectory)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("durable.ckpt");

    obs::StatsRegistry reg;
    std::uint64_t fsyncs = 0;
    {
        obs::ScopedRegistry scoped(reg);
        ASSERT_TRUE(
            saveCheckpoint(path, key, someEntries(suite.size())));
        const auto *c = reg.findCounter("checkpoint.fsyncs");
        ASSERT_NE(c, nullptr)
            << "save must fsync: a rename alone only orders the "
               "name, not the bytes, and a crash can publish a "
               "checkpoint whose content never reached disk";
        fsyncs = c->value;
    }
    // One for the data file, one for the directory entry.
    EXPECT_GE(fsyncs, 2u);

    obs::StatsRegistry quiet;
    {
        obs::ScopedRegistry scoped(quiet);
        EXPECT_EQ(quiet.findCounter("checkpoint.fsyncs_skipped"),
                  nullptr);
    }
}

TEST_F(CheckpointTest, SkipFsyncFaultDropsEveryFsync)
{
    auto suite = tinySuite();
    auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("undurable.ckpt");

    // This hook is the pre-fix behaviour made reproducible: the write
    // path runs identically but no fsync reaches the kernel, which is
    // exactly the window where a power cut loses a checkpoint that
    // rename() already published.  Non-consuming, so it covers every
    // write of the run.
    ::setenv("CCP_FAULT_INJECT", "checkpoint.skip_fsync=1", 1);
    fault::reinit();

    obs::StatsRegistry reg;
    {
        obs::ScopedRegistry scoped(reg);
        ASSERT_TRUE(
            saveCheckpoint(path, key, someEntries(suite.size())));
        ASSERT_TRUE(
            saveCheckpoint(path, key, someEntries(suite.size())));
    }
    EXPECT_EQ(reg.findCounter("checkpoint.fsyncs"), nullptr);
    const auto *skipped =
        reg.findCounter("checkpoint.fsyncs_skipped");
    ASSERT_NE(skipped, nullptr);
    EXPECT_GE(skipped->value, 4u);

    // The blob path honours the same hook.
    obs::StatsRegistry blobReg;
    {
        obs::ScopedRegistry scoped(blobReg);
        ASSERT_TRUE(sweep::saveStateBlob(tempPath("undurable.ccps"), 7,
                                  {'x', 'y'}));
    }
    EXPECT_EQ(blobReg.findCounter("checkpoint.fsyncs"), nullptr);
    ASSERT_NE(blobReg.findCounter("checkpoint.fsyncs_skipped"),
              nullptr);
}

// ---------------------------------------------------------------------
// The generic CCPS state-blob container (serve snapshots ride on it)

std::vector<char>
someBlob()
{
    std::vector<char> payload;
    for (int i = 0; i < 300; ++i)
        payload.push_back(static_cast<char>(i * 7));
    return payload;
}

TEST_F(CheckpointTest, StateBlobRoundTrips)
{
    const std::string path = tempPath("blob.ccps");
    const auto payload = someBlob();
    ASSERT_TRUE(sweep::saveStateBlob(path, 0xabcd, payload));

    std::vector<char> loaded;
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Ok);
    EXPECT_EQ(loaded, payload);

    // An empty payload is legal (a server with zero sessions).
    ASSERT_TRUE(sweep::saveStateBlob(path, 0xabcd, {}));
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Ok);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(CheckpointTest, StateBlobMissingFileIsAFreshStart)
{
    std::vector<char> loaded;
    EXPECT_EQ(sweep::loadStateBlob(tempPath("absent.ccps"), 1, loaded),
              CheckpointLoad::Missing);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(CheckpointTest, StateBlobRejectsForeignKey)
{
    const std::string path = tempPath("blob-key.ccps");
    ASSERT_TRUE(sweep::saveStateBlob(path, 0xabcd, someBlob()));

    std::vector<char> loaded;
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabce, loaded),
              CheckpointLoad::KeyMismatch);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(CheckpointTest, StateBlobRejectsCorruption)
{
    const std::string path = tempPath("blob-corrupt.ccps");
    ASSERT_TRUE(sweep::saveStateBlob(path, 0xabcd, someBlob()));
    const auto pristine = readFile(path);
    ASSERT_EQ(pristine.size(),
              sizeof(sweep::StateBlobHeader) + someBlob().size());
    std::vector<char> loaded;

    // Truncated mid-payload.
    writeFile(path, std::vector<char>(pristine.begin(),
                                      pristine.end() - 10));
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Invalid);

    // Shorter than the header.
    writeFile(path, std::vector<char>(pristine.begin(),
                                      pristine.begin() + 20));
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Invalid);

    // One payload byte flipped: the whole-file checksum must notice.
    auto flipped = pristine;
    flipped[sizeof(sweep::StateBlobHeader) + 100] ^= 0x01;
    writeFile(path, flipped);
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Invalid);

    // Bad magic.
    auto bad_magic = pristine;
    bad_magic[0] ^= 0x01;
    writeFile(path, bad_magic);
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Invalid);

    EXPECT_TRUE(loaded.empty());

    // And the pristine bytes still load, so the rejections above were
    // the edits' doing.
    writeFile(path, pristine);
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Ok);
}

TEST_F(CheckpointTest, StateBlobTornWriteIsRejectedThenRegenerable)
{
    const std::string path = tempPath("blob-torn.ccps");

    ::setenv("CCP_FAULT_INJECT", "checkpoint.torn_write=30", 1);
    fault::reinit();
    ASSERT_TRUE(sweep::saveStateBlob(path, 9, someBlob()));

    std::vector<char> loaded;
    EXPECT_EQ(sweep::loadStateBlob(path, 9, loaded),
              CheckpointLoad::Invalid);

    ASSERT_TRUE(sweep::saveStateBlob(path, 9, someBlob()));
    EXPECT_EQ(sweep::loadStateBlob(path, 9, loaded), CheckpointLoad::Ok);
    EXPECT_EQ(loaded, someBlob());
}

// ---------------------------------------------------------------------
// Extension-kind gating: files carrying function kinds (or blob
// features) this binary does not implement are rejected with the
// structured UnsupportedKind status — never decoded blind, never
// silently skipped.

// Byte offsets of the extension masks (both headers static_asserted).
constexpr std::size_t offExtensionKinds = 44; // CheckpointHeader
constexpr std::size_t offBlobFeatures = 32;   // StateBlobHeader
constexpr std::size_t offBlobChecksum = 24;

void
putU32(std::vector<char> &buf, std::size_t off, std::uint32_t v)
{
    std::memcpy(buf.data() + off, &v, 4);
}

std::uint32_t
getU32(const std::vector<char> &buf, std::size_t off)
{
    std::uint32_t v;
    std::memcpy(&v, buf.data() + off, 4);
    return v;
}

/** Reseal a CCPS blob's whole-file checksum after a header edit. */
void
resealBlobChecksum(std::vector<char> &buf)
{
    putWord(buf, offBlobChecksum, 0);
    trace::Fnv1a sum;
    sum.update(buf.data(), buf.size());
    putWord(buf, offBlobChecksum, sum.digest());
}

/** A scheme space with no extension kinds in it. */
std::vector<SchemeSpec>
legacySpace()
{
    sweep::SpaceSpec spec;
    spec.maxBits = std::uint64_t(1) << 10;
    spec.pcBitsGrid = {0, 2};
    spec.addrBitsGrid = {0, 2};
    spec.pasDepths = {1};
    spec.percDepths = {};
    return enumerateSchemes(spec);
}

TEST_F(CheckpointTest, ExtensionKindsMaskTracksTheSchemeSet)
{
    const auto legacy = legacySpace();
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(sweep::extensionKindsOf(legacy), 0u);

    // tinySpace enumerates perceptrons (the default grids include
    // them), so its mask carries exactly the perceptron bit.
    const auto with_perc = tinySpace();
    bool has_perc = false;
    for (const auto &s : with_perc)
        has_perc |= s.kind == predict::FunctionKind::Perceptron;
    ASSERT_TRUE(has_perc);
    EXPECT_EQ(sweep::extensionKindsOf(with_perc),
              sweep::checkpointKindPerceptron);
}

TEST_F(CheckpointTest, LegacySchemeSetWritesAZeroExtensionMask)
{
    // Legacy-only files stay byte-compatible with pre-extension
    // binaries, which required these header bytes to be zero.
    auto suite = tinySuite();
    const auto schemes = legacySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("legacy-mask.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    EXPECT_EQ(getU32(readFile(path), offExtensionKinds), 0u);
    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded), CheckpointLoad::Ok);
}

TEST_F(CheckpointTest, PerceptronSchemeSetRoundTripsWithItsKindBit)
{
    auto suite = tinySuite();
    const auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    ASSERT_EQ(key.extensionKinds, sweep::checkpointKindPerceptron);
    const std::string path = tempPath("perc-mask.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    EXPECT_EQ(getU32(readFile(path), offExtensionKinds),
              sweep::checkpointKindPerceptron);
    std::vector<CheckpointEntry> loaded;
    ASSERT_EQ(loadCheckpoint(path, key, loaded), CheckpointLoad::Ok);
    EXPECT_EQ(loaded.size(), 3u);
}

TEST_F(CheckpointTest, UnknownExtensionKindIsRejectedWithStructure)
{
    auto suite = tinySuite();
    const auto schemes = tinySpace();
    const CheckpointKey key = tinyKey(suite, schemes);
    const std::string path = tempPath("future-kind.ckpt");
    ASSERT_TRUE(saveCheckpoint(path, key, someEntries(suite.size())));

    // A "newer binary" stamps a kind bit this one does not know.
    auto bytes = readFile(path);
    putU32(bytes, offExtensionKinds,
           getU32(bytes, offExtensionKinds) | (1u << 31));
    resealChecksum(bytes); // kind gate, not a checksum artifact
    writeFile(path, bytes);

    // UnsupportedKind, not Invalid (the container is intact) and not
    // KeyMismatch (the gate fires before any key comparison).
    std::vector<CheckpointEntry> loaded;
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::UnsupportedKind);
    EXPECT_TRUE(loaded.empty());

    // Without the reseal the checksum still rules: Invalid.
    auto torn = readFile(path);
    putU32(torn, offExtensionKinds, 1u << 30);
    writeFile(path, torn);
    EXPECT_EQ(loadCheckpoint(path, key, loaded),
              CheckpointLoad::Invalid);
}

TEST_F(CheckpointTest, StateBlobUnknownFeatureBitIsRejected)
{
    const std::string path = tempPath("blob-future.ccps");
    ASSERT_TRUE(sweep::saveStateBlob(path, 0xabcd, someBlob(),
                                     sweep::stateBlobFeaturePerceptron));

    // The supported feature set loads...
    std::vector<char> loaded;
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::Ok);
    EXPECT_EQ(loaded, someBlob());

    // ...a decoder restricted to the legacy feature set refuses it,
    // and the gate fires before the key compare (wrong key, same
    // status).
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded,
                                   /*supported_features=*/0),
              CheckpointLoad::UnsupportedKind);
    EXPECT_EQ(sweep::loadStateBlob(path, 0xffff, loaded,
                                   /*supported_features=*/0),
              CheckpointLoad::UnsupportedKind);
    EXPECT_TRUE(loaded.empty());

    // A genuinely unknown future bit is refused even by this binary.
    auto bytes = readFile(path);
    putU32(bytes, offBlobFeatures,
           getU32(bytes, offBlobFeatures) | (1u << 17));
    resealBlobChecksum(bytes);
    writeFile(path, bytes);
    EXPECT_EQ(sweep::loadStateBlob(path, 0xabcd, loaded),
              CheckpointLoad::UnsupportedKind);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(CheckpointTest, LoadStatusNamesAreStable)
{
    EXPECT_STREQ(sweep::checkpointLoadName(CheckpointLoad::Ok), "ok");
    EXPECT_STREQ(sweep::checkpointLoadName(CheckpointLoad::Missing),
                 "missing");
    EXPECT_STREQ(sweep::checkpointLoadName(CheckpointLoad::Invalid),
                 "invalid");
    EXPECT_STREQ(sweep::checkpointLoadName(CheckpointLoad::KeyMismatch),
                 "key-mismatch");
    EXPECT_STREQ(
        sweep::checkpointLoadName(CheckpointLoad::UnsupportedKind),
        "unsupported-kind");
}

} // namespace
