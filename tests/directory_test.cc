/**
 * @file
 * Tests for the per-block directory records and home-node placement.
 *
 * The "DirectorySlice" cases test the BlockStore that holds every
 * block's directory entry; the "MemoryMap" cases test placement
 * through the controller, by the `dir` field of the events it emits.
 */

#include <gtest/gtest.h>

#include "mem/directory.hh"
#include "mem/protocol.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using mem::DirectoryEntry;
using mem::BlockStore;
using mem::CoherenceController;
using mem::DirState;
using mem::MachineConfig;
using mem::PlacementPolicy;
using trace::SharingTrace;

TEST(DirectorySlice, EntriesMaterializeOnFirstUse)
{
    BlockStore store;
    EXPECT_EQ(store.find(42), nullptr);

    DirectoryEntry &e = store.at(42);
    EXPECT_EQ(e.state, DirState::Uncached);
    EXPECT_TRUE(e.sharers.empty());
    EXPECT_FALSE(e.touched);
    EXPECT_EQ(store.find(42), &store.at(42));
    // Its page neighbour exists too, default and untouched.
    ASSERT_NE(store.find(43), nullptr);
    EXPECT_FALSE(store.find(43)->touched);
}

TEST(DirectorySlice, DefaultEntryHasNoHistory)
{
    BlockStore store;
    const DirectoryEntry &e = store.at(7);
    EXPECT_FALSE(e.hasLastWriter);
    EXPECT_EQ(e.version, 0u);
    EXPECT_EQ(e.pendingEvent, trace::noEvent);
    EXPECT_TRUE(e.readersSinceExclusive.empty());
}

TEST(DirectorySlice, IterationCoversAllEntries)
{
    BlockStore store;
    const Addr far = Addr{1} << 40;
    for (Addr b : {Addr{1}, Addr{2}, far}) {
        store.at(b).touched = true;
        store.at(b).version = b == far ? 30 : 10 * b;
    }
    store.at(3); // allocated but never touched: not visited
    unsigned count = 0;
    std::uint64_t total = 0;
    Addr prev = 0;
    store.forEachTouched([&](Addr block, const DirectoryEntry &e) {
        EXPECT_TRUE(block == 1 || block == 2 || block == far);
        EXPECT_TRUE(count == 0 || block > prev) << "not in block order";
        prev = block;
        ++count;
        total += e.version;
    });
    EXPECT_EQ(count, 3u);
    EXPECT_EQ(total, 60u);
}

TEST(DirectorySlice, RecordsStayPutWhileTheStoreGrows)
{
    BlockStore store;
    DirectoryEntry *first = &store.at(0);
    // New chunks sort in on both sides of the first one's.
    for (Addr b : {Addr{1} << 40, Addr{1} << 22, Addr{5} << 30,
                   Addr{123456789}})
        store.at(b).version = 1;
    EXPECT_EQ(&store.at(0), first);
    EXPECT_EQ(store.find(Addr{1} << 22)->version, 1u);
    EXPECT_EQ(store.find((Addr{1} << 22) + 1)->version, 0u);
    EXPECT_EQ(store.find(Addr{1} << 50), nullptr);
}

/** The `dir` of the event a store by @p node to @p block emits. */
NodeId
storeHome(CoherenceController &ctl, const SharingTrace &tr, NodeId node,
          Addr block)
{
    const std::size_t before = tr.events().size();
    ctl.write(node, blockBase(block), 0x400);
    EXPECT_EQ(tr.events().size(), before + 1) << "no coherence event";
    return tr.events().back().dir;
}

MachineConfig
placementConfig(unsigned nodes, PlacementPolicy policy)
{
    MachineConfig cfg;
    cfg.nNodes = nodes;
    cfg.placement = policy;
    return cfg;
}

TEST(MemoryMap, InterleavedIsRoundRobin)
{
    SharingTrace tr("t", 16);
    CoherenceController ctl(placementConfig(16, PlacementPolicy::Interleaved),
                            &tr);
    for (Addr block = 0; block < 64; ++block)
        EXPECT_EQ(storeHome(ctl, tr, /*node=*/5, block), block % 16);
    EXPECT_EQ(ctl.blocksTouched(), 64u);
}

TEST(MemoryMap, InterleavedIgnoresToucher)
{
    const MachineConfig cfg = placementConfig(8, PlacementPolicy::Interleaved);
    SharingTrace ta("a", 8), tb("b", 8);
    CoherenceController a(cfg, &ta), b(cfg, &tb);
    EXPECT_EQ(storeHome(a, ta, 0, 9), 1u);
    EXPECT_EQ(storeHome(b, tb, 7, 9), 1u);
}

TEST(MemoryMap, FirstTouchPinsTheFirstRequester)
{
    SharingTrace tr("t", 16);
    CoherenceController ctl(placementConfig(16, PlacementPolicy::FirstTouch),
                            &tr);
    ctl.read(3, blockBase(100));
    // Sticky: later touchers do not move the home.
    EXPECT_EQ(storeHome(ctl, tr, 9, 100), 3u);
    EXPECT_EQ(storeHome(ctl, tr, 3, 100), 3u);
    EXPECT_EQ(ctl.blocksTouched(), 1u);
}

TEST(MemoryMap, FirstTouchAssignsIndependentBlocks)
{
    SharingTrace tr("t", 4);
    MachineConfig cfg = placementConfig(4, PlacementPolicy::FirstTouch);
    cfg.torusWidth = 2;
    CoherenceController ctl(cfg, &tr);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(storeHome(ctl, tr, n, n), n);
    EXPECT_EQ(ctl.blocksTouched(), 4u);
}

TEST(MemoryMap, DefaultPolicyIsFirstTouch)
{
    EXPECT_EQ(MachineConfig().placement, PlacementPolicy::FirstTouch);
}

TEST(MemoryMap, BlocksZeroAndTwoToTheFortyInOneController)
{
    const Addr far = Addr{1} << 40;
    for (PlacementPolicy policy :
         {PlacementPolicy::FirstTouch, PlacementPolicy::Interleaved}) {
        SharingTrace tr("t", 16);
        CoherenceController ctl(placementConfig(16, policy), &tr);
        const bool first_touch = policy == PlacementPolicy::FirstTouch;
        EXPECT_EQ(storeHome(ctl, tr, 1, 0), first_touch ? 1u : 0u);
        EXPECT_EQ(storeHome(ctl, tr, 2, far),
                  first_touch ? 2u : far % 16);
        ctl.read(3, blockBase(0));
        ctl.read(3, blockBase(far));
        // A third writer finds each block's home and both readers.
        EXPECT_EQ(storeHome(ctl, tr, 4, far), first_touch ? 2u : 0u);
        EXPECT_TRUE(tr.events().back().invalidated.test(3));
        EXPECT_EQ(tr.events().back().prevWriterPid, 2u);
        EXPECT_EQ(ctl.currentVersion(blockBase(0)), 1u);
        EXPECT_EQ(ctl.currentVersion(blockBase(far)), 2u);
        EXPECT_EQ(ctl.blocksTouched(), 2u);
        ctl.checkInvariants();
    }
}

} // namespace
