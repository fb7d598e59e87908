/**
 * @file
 * Tests for the set-associative cache and the two-level NodeCache.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/protocol.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using mem::CacheGeometry;
using mem::CacheLine;
using mem::CacheState;
using mem::NodeCache;
using mem::SetAssocCache;

/** A tiny 4-set, 2-way cache (512 bytes) for precise eviction tests. */
constexpr CacheGeometry tiny{512, 2};

TEST(SetAssocCache, GeometryDerivation)
{
    SetAssocCache c(tiny);
    EXPECT_EQ(c.geometry().lines(), 8u);
    EXPECT_EQ(c.geometry().sets(), 4u);
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(tiny);
    EXPECT_EQ(c.find(5), nullptr);
    c.insert(5, CacheState::Shared, 1);
    ASSERT_NE(c.find(5), nullptr);
    EXPECT_EQ(c.find(5)->state, CacheState::Shared);
    EXPECT_EQ(c.find(5)->version, 1u);
}

TEST(SetAssocCache, InsertWithoutConflictEvictsNothing)
{
    SetAssocCache c(tiny);
    EXPECT_FALSE(c.insert(0, CacheState::Shared, 1).has_value());
    EXPECT_FALSE(c.insert(4, CacheState::Shared, 1).has_value());
    EXPECT_EQ(c.validLines(), 2u);
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache c(tiny);
    // Blocks 0, 4, 8 all map to set 0 of a 4-set cache (2 ways).
    c.insert(0, CacheState::Shared, 1);
    c.insert(4, CacheState::Shared, 1);
    auto victim = c.insert(8, CacheState::Shared, 1);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, 0u); // 0 was least recently used
    EXPECT_EQ(c.find(0), nullptr);
    EXPECT_NE(c.find(4), nullptr);
    EXPECT_NE(c.find(8), nullptr);
}

TEST(SetAssocCache, TouchProtectsFromEviction)
{
    SetAssocCache c(tiny);
    c.insert(0, CacheState::Shared, 1);
    c.insert(4, CacheState::Shared, 1);
    c.touch(0); // now 4 is LRU
    auto victim = c.insert(8, CacheState::Shared, 1);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, 4u);
}

TEST(SetAssocCache, ReinsertUpdatesInPlace)
{
    SetAssocCache c(tiny);
    c.insert(0, CacheState::Shared, 1);
    auto victim = c.insert(0, CacheState::Modified, 2);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(c.find(0)->state, CacheState::Modified);
    EXPECT_EQ(c.find(0)->version, 2u);
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(SetAssocCache, InvalidateReturnsOldLine)
{
    SetAssocCache c(tiny);
    c.insert(3, CacheState::Modified, 7);
    auto old = c.invalidate(3);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->state, CacheState::Modified);
    EXPECT_EQ(old->version, 7u);
    EXPECT_EQ(c.find(3), nullptr);
    EXPECT_FALSE(c.invalidate(3).has_value());
}

TEST(SetAssocCache, InvalidWaysReusedBeforeEviction)
{
    SetAssocCache c(tiny);
    c.insert(0, CacheState::Shared, 1);
    c.insert(4, CacheState::Shared, 1);
    c.invalidate(0);
    auto victim = c.insert(8, CacheState::Shared, 1);
    EXPECT_FALSE(victim.has_value());
    EXPECT_NE(c.find(4), nullptr);
}

TEST(SetAssocCache, FlushClearsEverything)
{
    SetAssocCache c(tiny);
    c.insert(1, CacheState::Shared, 1);
    c.insert(2, CacheState::Modified, 1);
    c.flush();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.find(1), nullptr);
}

TEST(SetAssocCache, DirectMappedConflicts)
{
    SetAssocCache c({256, 1}); // 4 sets, 1 way
    c.insert(0, CacheState::Shared, 1);
    auto victim = c.insert(4, CacheState::Shared, 1);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, 0u);
}

/** Blocks evicted, in order, by inserting @p blocks into @p c. */
std::vector<Addr>
evictions(SetAssocCache &c, std::initializer_list<Addr> blocks)
{
    std::vector<Addr> out;
    for (Addr b : blocks)
        if (auto victim = c.insert(b, CacheState::Shared, 1))
            out.push_back(victim->block);
    return out;
}

TEST(SetAssocCache, TouchThroughLineMatchesTouchByBlock)
{
    // One 4-way set: blocks 0, 4, 8, 12 fill set 0 of a 4-set cache.
    const CacheGeometry g{1024, 4};
    for (Addr hot : {0, 4, 8, 12}) {
        SetAssocCache by_block(g), by_line(g);
        for (SetAssocCache *c : {&by_block, &by_line})
            evictions(*c, {0, 4, 8, 12});
        by_block.touch(hot);
        CacheLine &moved = by_line.touch(*by_line.find(hot));
        // The returned reference is the line at its new (MRU) place.
        EXPECT_EQ(&moved, by_line.find(hot));
        EXPECT_EQ(moved.block, hot);
        // Same LRU order: the next four inserts evict the same lines.
        EXPECT_EQ(evictions(by_line, {16, 20, 24, 28}),
                  evictions(by_block, {16, 20, 24, 28}))
            << "touched " << hot;
    }
}

TEST(SetAssocCache, InsertAbsentPlacesLikeInsert)
{
    SetAssocCache a(tiny), b(tiny);
    for (Addr blk : {0, 4, 8, 1, 12}) {
        auto va = a.insert(blk, CacheState::Shared, blk);
        auto vb = b.insertAbsent(CacheLine{.block = blk,
                                           .version = blk,
                                           .state = CacheState::Shared});
        ASSERT_EQ(va.has_value(), vb.has_value()) << blk;
        if (va) {
            EXPECT_EQ(va->block, vb->block) << blk;
        }
    }
    EXPECT_EQ(b.find(12)->version, 12u);
    EXPECT_DEATH(b.insertAbsent(CacheLine{.block = 12,
                                          .state = CacheState::Shared}),
                 "already cached");
}

// ---------------------------------------------------------------------
// NodeCache (two-level, inclusive).

/** Small two-level hierarchy: 512B DM L1, 2KB 2-way L2. */
NodeCache
smallNode()
{
    return NodeCache({512, 1}, {2048, 2});
}

TEST(NodeCache, FillMakesStateVisible)
{
    NodeCache nc = smallNode();
    EXPECT_EQ(nc.state(10), CacheState::Invalid);
    nc.fill(10, CacheState::Shared, 3);
    EXPECT_EQ(nc.state(10), CacheState::Shared);
    EXPECT_EQ(nc.version(10), 3u);
}

TEST(NodeCache, AccessCountsL1AndL2Hits)
{
    NodeCache nc = smallNode();
    nc.fill(10, CacheState::Shared, 1);
    EXPECT_TRUE(nc.access(*nc.find(10))); // L1 hit right after fill
    EXPECT_EQ(nc.stats().l1Hits, 1u);

    // Conflict 10 out of the (8-line) L1 but not the L2: blocks 10
    // and 18 share an L1 set; L2 has 16 sets so no L2 conflict.
    nc.fill(18, CacheState::Shared, 1);
    EXPECT_FALSE(nc.access(*nc.find(10))); // L1 miss, L2 hit
    EXPECT_EQ(nc.stats().l2Hits, 1u);
    EXPECT_TRUE(nc.access(*nc.find(10))); // refilled into L1
}

TEST(NodeCache, UpgradeToModified)
{
    NodeCache nc = smallNode();
    nc.fill(5, CacheState::Shared, 1);
    nc.upgrade(5, 2);
    EXPECT_EQ(nc.state(5), CacheState::Modified);
    EXPECT_EQ(nc.version(5), 2u);
    EXPECT_EQ(nc.stats().upgrades, 1u);
}

TEST(NodeCache, UpgradeNonSharedDies)
{
    NodeCache nc = smallNode();
    EXPECT_DEATH(nc.upgrade(5, 1), "non-shared");
    nc.fill(5, CacheState::Modified, 1);
    EXPECT_DEATH(nc.upgrade(5, 2), "non-shared");
}

TEST(NodeCache, DowngradeKeepsData)
{
    NodeCache nc = smallNode();
    nc.fill(5, CacheState::Modified, 4);
    nc.downgrade(5);
    EXPECT_EQ(nc.state(5), CacheState::Shared);
    EXPECT_EQ(nc.version(5), 4u);
}

TEST(NodeCache, InvalidateReportsPriorLine)
{
    NodeCache nc = smallNode();
    nc.fill(5, CacheState::Modified, 1);
    auto old = nc.invalidate(5);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->state, CacheState::Modified);
    EXPECT_EQ(nc.state(5), CacheState::Invalid);
    EXPECT_FALSE(nc.invalidate(5).has_value());
}

TEST(NodeCache, ForwardedFillTracksAccessBit)
{
    NodeCache nc = smallNode();
    nc.fill(5, CacheState::Shared, 1, /*forwarded=*/true);
    // The first touch consumes the forwarded bit exactly once.
    EXPECT_TRUE(nc.consumeForwardedTouch(*nc.find(5)));
    EXPECT_FALSE(nc.consumeForwardedTouch(*nc.find(5)));
    // A demand fill never reports a forwarded touch.
    nc.fill(6, CacheState::Shared, 1);
    EXPECT_FALSE(nc.consumeForwardedTouch(*nc.find(6)));
    // Invalidation reports the flags.
    nc.fill(7, CacheState::Shared, 1, /*forwarded=*/true);
    auto line = nc.invalidate(7);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->forwarded);
    EXPECT_FALSE(line->accessed);
}

TEST(NodeCache, UpgradeClearsTheForwardedFlag)
{
    NodeCache nc = smallNode();
    nc.fill(5, CacheState::Shared, 1, /*forwarded=*/true);
    nc.upgrade(5, 2);
    auto line = nc.invalidate(5);
    ASSERT_TRUE(line.has_value());
    EXPECT_FALSE(line->forwarded);
}

TEST(NodeCache, L2EvictionBackInvalidatesL1)
{
    // L2: 2KB 2-way = 16 sets.  Blocks 0, 16, 32 share L2 set 0.
    NodeCache nc = smallNode();
    nc.fill(0, CacheState::Modified, 1);
    nc.fill(16, CacheState::Shared, 1);
    auto victim = nc.fill(32, CacheState::Shared, 1);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, 0u);
    EXPECT_EQ(victim->state, CacheState::Modified);
    // Inclusion: the block must be gone at both levels.
    EXPECT_EQ(nc.state(0), CacheState::Invalid);
    EXPECT_EQ(nc.find(0), nullptr);
    EXPECT_EQ(nc.stats().l2Evictions, 1u);
    EXPECT_EQ(nc.stats().writebacks, 1u);
    // A fill asserts the block is absent from the L1 too, so this
    // refill dies if the eviction left block 0 there.
    nc.fill(0, CacheState::Shared, 2);
    EXPECT_EQ(nc.state(0), CacheState::Shared);
}

TEST(NodeCache, HitThroughFoundLineMatchesBlockTouchModel)
{
    // The hierarchy against a model of two levels driven the way
    // access() used to drive them: touch(block) at the L2, then an L1
    // find and touch(block), or an insert() refill.  A 2-way L1 makes
    // the L1's LRU order observable.
    const CacheGeometry l1{512, 2}, l2{2048, 2};
    NodeCache nc(l1, l2);
    SetAssocCache m1(l1), m2(l2);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        Addr blk = rng.below(96);
        CacheLine *line = nc.find(blk);
        ASSERT_EQ(line != nullptr, m2.find(blk) != nullptr) << i;
        if (line && rng.chance(0.1)) {
            // Invalid ways take part in victim choice.
            nc.invalidate(blk);
            m1.invalidate(blk);
            m2.invalidate(blk);
        } else if (line) {
            m2.touch(blk);
            bool model_l1_hit = m1.find(blk) != nullptr;
            if (model_l1_hit)
                m1.touch(blk);
            else
                m1.insert(blk, m2.find(blk)->state, m2.find(blk)->version);
            ASSERT_EQ(nc.access(*line), model_l1_hit) << i;
        } else {
            auto victim = nc.fill(blk, CacheState::Shared, i);
            auto model = m2.insert(blk, CacheState::Shared, i);
            if (model)
                m1.invalidate(model->block);
            m1.insert(blk, CacheState::Shared, i);
            ASSERT_EQ(victim.has_value(), model.has_value()) << i;
            if (victim) {
                ASSERT_EQ(victim->block, model->block) << i;
            }
        }
    }
    EXPECT_GT(nc.stats().l1Hits, 0u);
    EXPECT_GT(nc.stats().l2Hits, 0u);
    EXPECT_GT(nc.stats().l2Evictions, 0u);
}

TEST(NodeCache, L2HitRefillEvictsTheL1LruLine)
{
    // L1: 2 sets x 2 ways, so blocks 0, 2, 4 share L1 set 0; the
    // 16-set L2 holds all three without conflict.
    NodeCache nc({256, 2}, {2048, 2});
    nc.fill(0, CacheState::Shared, 1);
    nc.fill(2, CacheState::Shared, 1);
    nc.fill(4, CacheState::Shared, 1); // L1 drops 0, its LRU line
    EXPECT_TRUE(nc.access(*nc.find(2))); // L1 order now 2, 4
    EXPECT_FALSE(nc.access(*nc.find(0))); // refill evicts 4, not 2
    EXPECT_TRUE(nc.access(*nc.find(2)));
    EXPECT_TRUE(nc.access(*nc.find(0)));
    EXPECT_FALSE(nc.access(*nc.find(4)));
    EXPECT_EQ(nc.stats().l2Hits, 2u);
}

TEST(NodeCache, ForwardedAccessBitIsConsumedOnceThroughRead)
{
    mem::MachineConfig cfg;
    cfg.nNodes = 4;
    cfg.l1 = {512, 1};
    cfg.l2 = {4096, 2};
    cfg.torusWidth = 2;
    trace::SharingTrace tr("fwd", 4);
    mem::CoherenceController ctl(cfg, &tr);
    ctl.setForwardHook([](const trace::CoherenceEvent &) {
        return SharingBitmap::single(1);
    });
    ctl.write(0, blockBase(3), 0x400); // forwards block 3 to node 1
    ASSERT_EQ(ctl.stats().forwardsSent, 1u);
    ctl.read(1, blockBase(3));
    ctl.read(1, blockBase(3) + 8);
    EXPECT_EQ(ctl.stats().forwardHits, 1u);
    EXPECT_EQ(ctl.stats().readMisses, 0u);
    EXPECT_TRUE(tr.events()[0].readers.test(1));
    // The touched line is not a wasted forward when it dies.
    ctl.write(2, blockBase(3), 0x404);
    EXPECT_EQ(ctl.stats().wastedForwards, 0u);
    EXPECT_TRUE(tr.events()[1].invalidated.test(1));
    ctl.checkInvariants();
}

TEST(NodeCache, PaperGeometryDefaults)
{
    NodeCache nc; // 16KB DM L1, 512KB 4-way L2
    // Fill more than the L1 (256 lines) but less than the L2.
    for (Addr b = 0; b < 1024; ++b)
        nc.fill(b, CacheState::Shared, 1);
    // Everything still resides in the L2.
    for (Addr b = 0; b < 1024; ++b)
        EXPECT_NE(nc.state(b), CacheState::Invalid) << b;
    EXPECT_EQ(nc.stats().l2Evictions, 0u);
}

} // namespace
