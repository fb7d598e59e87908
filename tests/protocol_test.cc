/**
 * @file
 * Tests for the MSI directory protocol engine: state-machine cases,
 * event emission/feedback wiring, and randomized property tests of
 * the coherence invariants.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.hh"
#include "forward/online.hh"
#include "mem/protocol.hh"
#include "obs/registry.hh"
#include "sweep/name.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using mem::CoherenceController;
using mem::MachineConfig;
using trace::SharingTrace;

/** A small 4-node machine with tiny caches for deterministic tests. */
MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.nNodes = 4;
    cfg.l1 = {512, 1};
    cfg.l2 = {4096, 2};
    cfg.torusWidth = 2;
    return cfg;
}

Addr
addrOfBlock(Addr block)
{
    return blockBase(block);
}

class ProtocolTest : public ::testing::Test
{
  protected:
    ProtocolTest() : trace("test", 4), ctl(smallConfig(), &trace) {}

    SharingTrace trace;
    CoherenceController ctl;
};

TEST_F(ProtocolTest, FirstWriteEmitsEventWithNoHistory)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ASSERT_EQ(trace.events().size(), 1u);
    const auto &ev = trace.events()[0];
    EXPECT_EQ(ev.pid, 1u);
    EXPECT_EQ(ev.pc, 0x400u);
    EXPECT_EQ(ev.block, 10u);
    EXPECT_TRUE(ev.invalidated.empty());
    EXPECT_FALSE(ev.hasPrevWriter);
    EXPECT_EQ(ev.prevEvent, trace::noEvent);
}

TEST_F(ProtocolTest, FirstTouchAssignsHome)
{
    ctl.write(2, addrOfBlock(10), 0x400);
    EXPECT_EQ(trace.events()[0].dir, 2u); // writer becomes home
}

TEST_F(ProtocolTest, SilentWriteHitsEmitNoEvents)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.write(1, addrOfBlock(10), 0x404);
    ctl.write(1, addrOfBlock(10) + 8, 0x400);
    EXPECT_EQ(trace.events().size(), 1u);
    EXPECT_EQ(ctl.stats().writes, 3u);
}

TEST_F(ProtocolTest, ReadersRecordedAsEventOutcome)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.read(2, addrOfBlock(10));
    ctl.read(3, addrOfBlock(10));
    const auto &ev = trace.events()[0];
    EXPECT_TRUE(ev.readers.test(2));
    EXPECT_TRUE(ev.readers.test(3));
    EXPECT_FALSE(ev.readers.test(1));
    EXPECT_EQ(ev.readers.popcount(), 2u);
}

TEST_F(ProtocolTest, WriterRereadOfOwnVersionIsNotAReader)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.read(2, addrOfBlock(10)); // downgrade to shared
    ctl.read(1, addrOfBlock(10)); // writer reads its own value
    EXPECT_FALSE(trace.events()[0].readers.test(1));
}

TEST_F(ProtocolTest, UpgradeCarriesInvalidatedReaders)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.read(2, addrOfBlock(10));
    ctl.read(1, addrOfBlock(10)); // 1 shares its own block again
    ctl.write(1, addrOfBlock(10), 0x404); // upgrade, invalidates 2

    ASSERT_EQ(trace.events().size(), 2u);
    const auto &ev = trace.events()[1];
    EXPECT_TRUE(ev.invalidated.test(2));
    EXPECT_EQ(ev.invalidated.popcount(), 1u);
    EXPECT_TRUE(ev.hasPrevWriter);
    EXPECT_EQ(ev.prevWriterPid, 1u);
    EXPECT_EQ(ev.prevWriterPc, 0x400u);
    EXPECT_EQ(ev.prevEvent, 0u);
    EXPECT_EQ(ctl.stats().writeFaults, 1u);
}

TEST_F(ProtocolTest, WriteMissOverModifiedTransfersOwnership)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.write(2, addrOfBlock(10), 0x500);

    ASSERT_EQ(trace.events().size(), 2u);
    const auto &ev = trace.events()[1];
    EXPECT_EQ(ev.pid, 2u);
    EXPECT_TRUE(ev.invalidated.empty()); // nobody read version 1
    EXPECT_EQ(ev.prevWriterPid, 1u);
    EXPECT_EQ(ctl.stats().writeMisses, 2u);
    // Version 1's outcome must show zero readers.
    EXPECT_TRUE(trace.events()[0].readers.empty());
}

TEST_F(ProtocolTest, UpgradingReaderIsAnOutcomeButNotFeedback)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.read(2, addrOfBlock(10));
    ctl.read(3, addrOfBlock(10));
    ctl.write(2, addrOfBlock(10), 0x500); // reader upgrades

    const auto &ev0 = trace.events()[0];
    const auto &ev1 = trace.events()[1];
    // 2 truly read version 1 (forwarding to it would have paid off),
    // so it is in the outcome bitmap; but it is not *invalidated* by
    // its own upgrade, so it is absent from the feedback — writers
    // never learn their own read-modify-write bit (which could never
    // be a correct prediction for their next version).
    EXPECT_TRUE(ev0.readers.test(2));
    EXPECT_FALSE(ev1.invalidated.test(2));
    // Node 3 was a plain reader: invalidated and fed back.
    EXPECT_TRUE(ev0.readers.test(3));
    EXPECT_TRUE(ev1.invalidated.test(3));
}

TEST_F(ProtocolTest, ColdReadersBecomeFirstWriteFeedback)
{
    ctl.read(0, addrOfBlock(10));
    ctl.read(3, addrOfBlock(10));
    ctl.write(1, addrOfBlock(10), 0x400);

    const auto &ev = trace.events()[0];
    EXPECT_FALSE(ev.hasPrevWriter);
    EXPECT_TRUE(ev.invalidated.test(0));
    EXPECT_TRUE(ev.invalidated.test(3));
}

TEST_F(ProtocolTest, ReadMissFromModifiedDowngradesOwner)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.read(2, addrOfBlock(10));
    EXPECT_EQ(ctl.stats().downgrades, 1u);
    // A second write by 1 is now an upgrade, not a miss.
    ctl.write(1, addrOfBlock(10), 0x404);
    EXPECT_EQ(ctl.stats().writeFaults, 1u);
}

TEST_F(ProtocolTest, VersionAdvancesPerExclusiveEpisode)
{
    Addr a = addrOfBlock(10);
    ctl.write(1, a, 0x400);
    EXPECT_EQ(ctl.currentVersion(a), 1u);
    ctl.write(1, a, 0x404); // silent: same episode
    EXPECT_EQ(ctl.currentVersion(a), 1u);
    ctl.read(2, a);
    ctl.write(1, a, 0x404); // upgrade: new episode
    EXPECT_EQ(ctl.currentVersion(a), 2u);
}

TEST_F(ProtocolTest, StaticAndPredictedStoreCounts)
{
    ctl.write(1, addrOfBlock(1), 0x400);
    ctl.write(1, addrOfBlock(2), 0x404);
    ctl.write(1, addrOfBlock(1), 0x404); // silent, same pc as before
    EXPECT_EQ(ctl.staticStores(1), 2u);
    EXPECT_EQ(ctl.predictedStores(1), 2u);

    ctl.read(2, addrOfBlock(1));
    ctl.write(1, addrOfBlock(1), 0x408); // upgrade with a third pc
    EXPECT_EQ(ctl.staticStores(1), 3u);
    EXPECT_EQ(ctl.predictedStores(1), 3u);
}

TEST_F(ProtocolTest, FinalizeTraceFillsMeta)
{
    ctl.write(0, addrOfBlock(1), 0x400);
    ctl.write(0, addrOfBlock(2), 0x404);
    ctl.read(1, addrOfBlock(1));
    ctl.finalizeTrace();
    EXPECT_EQ(trace.meta().blocksTouched, 2u);
    EXPECT_EQ(trace.meta().totalOps, 3u);
    EXPECT_EQ(trace.meta().maxStaticStoresPerNode, 2u);
}

TEST_F(ProtocolTest, InvariantsHoldThroughBasicSequence)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.checkInvariants();
    ctl.read(2, addrOfBlock(10));
    ctl.checkInvariants();
    ctl.write(3, addrOfBlock(10), 0x500);
    ctl.checkInvariants();
}

TEST_F(ProtocolTest, NetworkTrafficFlows)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    ctl.read(2, addrOfBlock(10));
    EXPECT_GT(ctl.torus().totalMessages(), 0u);
}

TEST_F(ProtocolTest, LatencyAccumulates)
{
    ctl.write(1, addrOfBlock(10), 0x400);
    Cycles after_miss = ctl.stats().latency;
    EXPECT_GT(after_miss, 0u);
    ctl.write(1, addrOfBlock(10), 0x400); // L1 hit: tiny latency
    EXPECT_EQ(ctl.stats().latency, after_miss + 1);
}

// ---------------------------------------------------------------------
// Eviction behaviour.

TEST(ProtocolEviction, ModifiedVictimWritesBack)
{
    MachineConfig cfg = smallConfig();
    cfg.l2 = {512, 1}; // 8 lines, direct mapped: easy conflicts
    cfg.l1 = {256, 1};
    SharingTrace tr("evict", 4);
    CoherenceController ctl(cfg, &tr);

    ctl.write(0, addrOfBlock(0), 0x400);
    ctl.write(0, addrOfBlock(8), 0x400); // evicts block 0 (writeback)
    ctl.checkInvariants();
    // After the writeback, a write by another node must see no owner.
    ctl.write(1, addrOfBlock(0), 0x500);
    ctl.checkInvariants();
    // 0's version died unread.
    EXPECT_TRUE(tr.events()[0].readers.empty());
}

TEST(ProtocolEviction, SharedVictimSendsReplacementHint)
{
    MachineConfig cfg = smallConfig();
    cfg.l2 = {512, 1};
    cfg.l1 = {256, 1};
    SharingTrace tr("evict", 4);
    CoherenceController ctl(cfg, &tr);

    ctl.write(0, addrOfBlock(0), 0x400);
    ctl.read(1, addrOfBlock(0));
    ctl.read(1, addrOfBlock(8)); // evicts 1's shared copy of block 0
    ctl.checkInvariants();
    // The replacement hint removed 1 from the sharer set, so 0's
    // upgrade invalidates nobody -- but the access-bit feedback still
    // remembers 1 as a true reader.
    ctl.write(0, addrOfBlock(0), 0x404);
    ASSERT_EQ(tr.events().size(), 2u);
    EXPECT_TRUE(tr.events()[1].invalidated.test(1));
    EXPECT_TRUE(tr.events()[0].readers.test(1));
    ctl.checkInvariants();
}

// ---------------------------------------------------------------------
// Property test: random op streams keep all invariants, and readers
// always observe the latest version.

struct PropertyCase
{
    std::uint64_t seed;
    unsigned n_nodes;
};

/** Print by value: the default byte dump includes the struct's
 *  padding bytes, which change between builds, and so would the
 *  discovered test names. */
void
PrintTo(const PropertyCase &c, std::ostream *os)
{
    *os << "seed " << c.seed << " nodes " << c.n_nodes;
}

class ProtocolPropertyTest
    : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(ProtocolPropertyTest, RandomStreamKeepsInvariants)
{
    const auto [seed, n_nodes] = GetParam();
    MachineConfig cfg;
    cfg.nNodes = n_nodes;
    cfg.l1 = {512, 1};
    cfg.l2 = {2048, 2}; // tiny: exercises evictions constantly
    cfg.torusWidth = n_nodes == 4 ? 2 : 4;
    SharingTrace tr("prop", n_nodes);
    CoherenceController ctl(cfg, &tr);
    Rng rng(seed);

    constexpr unsigned n_blocks = 96; // 3x the total cache capacity
    for (int i = 0; i < 6000; ++i) {
        NodeId node = static_cast<NodeId>(rng.below(n_nodes));
        Addr addr = blockBase(rng.below(n_blocks)) + rng.below(64);
        if (rng.chance(0.4)) {
            Pc pc = 0x400 + 4 * rng.below(16);
            ctl.write(node, addr, pc);
        } else {
            ctl.read(node, addr);
        }
        if (i % 256 == 0)
            ctl.checkInvariants();
    }
    ctl.checkInvariants();

    // Feedback chaining: every event's invalidated set equals its
    // predecessor event's final reader set minus the event's own
    // writer (which upgrades rather than being invalidated).
    for (const auto &ev : tr.events()) {
        if (ev.prevEvent == trace::noEvent)
            continue;
        const auto &prev = tr.events()[ev.prevEvent];
        EXPECT_EQ(prev.block, ev.block);
        EXPECT_EQ(prev.readers
                      .minus(SharingBitmap::single(ev.pid))
                      .raw(),
                  ev.invalidated.raw());
    }

    // Writers never appear in their own outcome bitmaps.
    for (const auto &ev : tr.events())
        EXPECT_FALSE(ev.readers.test(ev.pid));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProtocolPropertyTest,
    ::testing::Values(PropertyCase{1, 4}, PropertyCase{2, 4},
                      PropertyCase{3, 8}, PropertyCase{4, 16},
                      PropertyCase{5, 16}, PropertyCase{99, 8}));

} // namespace

namespace {

MachineConfig
mesiConfig()
{
    MachineConfig cfg = smallConfig();
    cfg.protocol = mem::ProtocolKind::MESI;
    return cfg;
}

class MesiTest : public ::testing::Test
{
  protected:
    MesiTest() : trace("mesi", 4), ctl(mesiConfig(), &trace) {}

    SharingTrace trace;
    CoherenceController ctl;
};

TEST_F(MesiTest, SoleReaderGetsExclusive)
{
    ctl.read(1, addrOfBlock(10));
    ctl.checkInvariants();
    // A write after the exclusive grant upgrades silently: no event.
    ctl.write(1, addrOfBlock(10), 0x400);
    EXPECT_EQ(trace.events().size(), 0u);
    EXPECT_EQ(ctl.stats().silentUpgrades, 1u);
    ctl.checkInvariants();
}

TEST_F(MesiTest, SecondReaderDowngradesTheExclusiveCopy)
{
    ctl.read(1, addrOfBlock(10));
    ctl.read(2, addrOfBlock(10));
    ctl.checkInvariants();
    // Both now hold Shared: a write by 1 is a write fault (an event).
    ctl.write(1, addrOfBlock(10), 0x400);
    EXPECT_EQ(trace.events().size(), 1u);
    EXPECT_EQ(ctl.stats().writeFaults, 1u);
    EXPECT_TRUE(trace.events()[0].invalidated.test(2));
    ctl.checkInvariants();
}

TEST_F(MesiTest, RemoteWriteInvalidatesSilentlyUpgradedCopy)
{
    ctl.read(1, addrOfBlock(10));
    ctl.write(1, addrOfBlock(10), 0x400); // silent E->M
    ctl.write(2, addrOfBlock(10), 0x500); // must fetch dirty data
    ASSERT_EQ(trace.events().size(), 1u);
    EXPECT_EQ(trace.events()[0].pid, 2u);
    ctl.checkInvariants();
}

TEST_F(MesiTest, RemoteWriteInvalidatesCleanExclusiveCopy)
{
    ctl.read(1, addrOfBlock(10)); // E, never written
    ctl.write(2, addrOfBlock(10), 0x500);
    ASSERT_EQ(trace.events().size(), 1u);
    // Node 1 read the initial version: it is in the feedback.
    EXPECT_TRUE(trace.events()[0].invalidated.test(1));
    ctl.checkInvariants();
}

TEST_F(MesiTest, ReadThenWritePrivateDataEmitsNoEvents)
{
    // The MESI headline: private read-then-write data is free.
    for (int i = 0; i < 50; ++i) {
        ctl.read(0, addrOfBlock(i));
        ctl.write(0, addrOfBlock(i), 0x400);
    }
    EXPECT_EQ(trace.events().size(), 0u);
    EXPECT_EQ(ctl.stats().silentUpgrades, 50u);
    // The same sequence under MSI costs one write fault per block.
    SharingTrace msi_trace("msi", 4);
    CoherenceController msi(smallConfig(), &msi_trace);
    for (int i = 0; i < 50; ++i) {
        msi.read(0, addrOfBlock(i));
        msi.write(0, addrOfBlock(i), 0x400);
    }
    EXPECT_EQ(msi_trace.events().size(), 50u);
}

TEST_F(MesiTest, EvictionOfCleanExclusiveNotifiesDirectory)
{
    MachineConfig cfg = mesiConfig();
    cfg.l2 = {512, 1};
    cfg.l1 = {256, 1};
    SharingTrace tr("evict", 4);
    CoherenceController c(cfg, &tr);
    c.read(0, addrOfBlock(0));  // E
    c.read(0, addrOfBlock(8));  // evicts block 0 (clean, no data)
    c.checkInvariants();
    // Another node can now take the block from memory.
    c.write(1, addrOfBlock(0), 0x500);
    c.checkInvariants();
}

TEST(MesiProperty, RandomStreamKeepsInvariants)
{
    MachineConfig cfg;
    cfg.nNodes = 8;
    cfg.l1 = {512, 1};
    cfg.l2 = {2048, 2};
    cfg.torusWidth = 4;
    cfg.protocol = mem::ProtocolKind::MESI;
    SharingTrace tr("prop", 8);
    CoherenceController ctl(cfg, &tr);
    Rng rng(77);
    for (int i = 0; i < 6000; ++i) {
        NodeId node = static_cast<NodeId>(rng.below(8));
        Addr addr = blockBase(rng.below(96)) + rng.below(64);
        if (rng.chance(0.4))
            ctl.write(node, addr, 0x400 + 4 * rng.below(16));
        else
            ctl.read(node, addr);
        if (i % 256 == 0)
            ctl.checkInvariants();
    }
    ctl.checkInvariants();
    for (const auto &ev : tr.events())
        EXPECT_FALSE(ev.readers.test(ev.pid));
}

TEST(MesiProperty, NeverMoreEventsThanMsi)
{
    // MESI's silent upgrades can only remove coherence store misses
    // relative to MSI on the same access stream.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SharingTrace mesi_tr("mesi", 4), msi_tr("msi", 4);
        MachineConfig mesi_cfg = mesiConfig();
        MachineConfig msi_cfg = smallConfig();
        CoherenceController mesi(mesi_cfg, &mesi_tr);
        CoherenceController msi(msi_cfg, &msi_tr);
        Rng rng(seed);
        for (int i = 0; i < 4000; ++i) {
            NodeId node = static_cast<NodeId>(rng.below(4));
            Addr addr = blockBase(rng.below(64));
            if (rng.chance(0.45)) {
                Pc pc = 0x400 + 4 * rng.below(8);
                mesi.write(node, addr, pc);
                msi.write(node, addr, pc);
            } else {
                mesi.read(node, addr);
                msi.read(node, addr);
            }
        }
        EXPECT_LE(mesi_tr.events().size(), msi_tr.events().size());
    }
}

} // namespace

namespace {

TEST(Protocol, CurrentVersionDoesNotPinHome)
{
    SharingTrace tr("query", 16);
    CoherenceController ctl(MachineConfig(), &tr);
    EXPECT_EQ(ctl.currentVersion(blockBase(7)), 0u);
    ctl.write(5, blockBase(7), 0x400);
    ASSERT_EQ(tr.events().size(), 1u);
    EXPECT_EQ(tr.events()[0].dir, 5u); // the writer, not the query
    EXPECT_EQ(ctl.blocksTouched(), 1u);
}

TEST(Protocol, CacheCountersAccountForEveryAccess)
{
    // Every access ends in exactly one of an L1 hit, an L2 hit, a miss
    // or an upgrade, under either protocol and with forwarded fills.
    struct Case
    {
        const char *label;
        mem::ProtocolKind protocol;
        bool online;
    };
    for (const Case &c : {Case{"msi", mem::ProtocolKind::MSI, false},
                          Case{"mesi", mem::ProtocolKind::MESI, false},
                          Case{"msi_online", mem::ProtocolKind::MSI, true}}) {
        MachineConfig cfg = smallConfig();
        cfg.protocol = c.protocol;
        SharingTrace tr(c.label, 4);
        CoherenceController ctl(cfg, &tr);
        forward::OnlineForwarder fwd(
            sweep::parseScheme("inter(pid+pc8)2")->scheme, cfg.nNodes);
        if (c.online)
            fwd.attach(ctl);
        Rng rng(11);
        for (int i = 0; i < 8000; ++i) {
            NodeId node = static_cast<NodeId>(rng.below(4));
            Addr addr = blockBase(rng.below(160));
            if (rng.chance(0.3))
                ctl.write(node, addr, 0x400 + 4 * rng.below(8));
            else
                ctl.read(node, addr);
        }
        obs::StatsRegistry reg;
        ctl.exportStats(reg);
        auto count = [&](const char *leaf) {
            const auto *ctr =
                reg.findCounter(std::string("protocol.") + leaf);
            EXPECT_NE(ctr, nullptr) << leaf;
            return ctr ? ctr->value : 0;
        };
        EXPECT_EQ(count("l1_hits") + count("l2_hits") +
                      count("cache_misses") + count("upgrades"),
                  count("reads") + count("writes"))
            << c.label;
        EXPECT_EQ(count("cache_misses"),
                  count("read_misses") + count("write_misses"))
            << c.label;
        EXPECT_EQ(count("upgrades"), count("write_faults")) << c.label;
        // The tiny caches must exercise every counter.
        for (const char *leaf : {"l1_hits", "l2_hits", "l2_evictions",
                                 "writebacks"})
            EXPECT_GT(count(leaf), 0u) << c.label << " " << leaf;
        if (c.online) {
            EXPECT_GT(count("forwards_sent"), 0u);
        }
    }
}

} // namespace
