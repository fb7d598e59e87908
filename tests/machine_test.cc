/**
 * @file
 * Tests for the Machine phase interleaver.
 */

#include <gtest/gtest.h>

#include "mem/protocol.hh"
#include "obs/registry.hh"
#include "sim/machine.hh"

namespace {

using namespace ccp;
using mem::MachineConfig;
using sim::Machine;
using sim::MemOp;
using sim::PhaseOps;

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

TEST(Machine, ExecutesAllOps)
{
    Machine m(smallConfig(), "t", 1);
    PhaseOps ops(4);
    for (NodeId n = 0; n < 4; ++n)
        for (int i = 0; i < 10; ++i)
            ops[n].push_back(
                {blockBase(n * 16 + i), 0x400, true});
    m.runPhase(ops);
    EXPECT_EQ(m.controller().stats().writes, 40u);
    for (auto &v : ops)
        EXPECT_TRUE(v.empty()); // consumed
}

TEST(Machine, PhaseOrderingIsABarrier)
{
    // Node 0 writes in phase 1; node 1 reads in phase 2.  The read
    // must observe the written version (i.e. be recorded as a reader
    // of phase 1's event) in every interleaving.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Machine m(smallConfig(), "t", seed);
        PhaseOps ops(4);
        ops[0].push_back({blockBase(5), 0x400, true});
        m.runPhase(ops);
        ops.assign(4, {});
        ops[1].push_back({blockBase(5), 0, false});
        m.runPhase(ops);

        const auto &tr = m.trace();
        ASSERT_EQ(tr.events().size(), 1u);
        EXPECT_TRUE(tr.events()[0].readers.test(1));
    }
}

TEST(Machine, InterleavingIsSeedDeterministic)
{
    auto run = [](std::uint64_t seed) {
        Machine m(smallConfig(), "t", seed);
        PhaseOps ops(4);
        // All nodes hammer the same blocks: event order depends on
        // the interleaving.
        for (NodeId n = 0; n < 4; ++n)
            for (int i = 0; i < 50; ++i)
                ops[n].push_back(
                    {blockBase(i % 8), Pc(0x400 + 4 * n), true});
        m.runPhase(ops);
        return m.finish();
    };

    auto a = run(7), b = run(7), c = run(8);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].pid, b.events()[i].pid);
        EXPECT_EQ(a.events()[i].block, b.events()[i].block);
        EXPECT_EQ(a.events()[i].readers.raw(),
                  b.events()[i].readers.raw());
    }
    // A different seed should give a different interleaving of the
    // contended stream (identical order is astronomically unlikely).
    bool same = a.events().size() == c.events().size();
    if (same) {
        for (std::size_t i = 0; i < a.events().size(); ++i)
            same = same && a.events()[i].pid == c.events()[i].pid;
    }
    EXPECT_FALSE(same);
}

TEST(Machine, MixedInterleavingSharesWithinPhase)
{
    // Within one phase, different nodes' ops do interleave: with many
    // write/read pairs on both sides, both nodes should appear as
    // readers of some of each other's versions.
    Machine m(smallConfig(), "t", 3);
    m.setMaxBurst(2);
    PhaseOps ops(4);
    for (int i = 0; i < 200; ++i) {
        ops[0].push_back({blockBase(1), 0x400, true});
        ops[1].push_back({blockBase(1), 0, false});
    }
    m.runPhase(ops);
    const auto &evs = m.trace().events();
    ASSERT_GT(evs.size(), 0u);
    unsigned with_reader = 0;
    for (const auto &ev : evs)
        with_reader += ev.readers.test(1);
    EXPECT_GT(with_reader, 0u);
}

TEST(Machine, FinishMovesFinalizedTrace)
{
    Machine m(smallConfig(), "named", 1);
    PhaseOps ops(4);
    ops[2].push_back({blockBase(1), 0x404, true});
    ops[2].push_back({blockBase(2), 0x404, true});
    m.runPhase(ops);
    auto tr = m.finish();
    EXPECT_EQ(tr.name(), "named");
    EXPECT_EQ(tr.meta().totalOps, 2u);
    EXPECT_EQ(tr.meta().blocksTouched, 2u);
    EXPECT_EQ(tr.meta().maxStaticStoresPerNode, 1u);
}

TEST(Machine, FinishExportsIntoTheCurrentRegistry)
{
    obs::StatsRegistry &root = obs::StatsRegistry::root();
    auto root_ops = [&root] {
        const auto *c = root.findCounter("sim.ops");
        return c ? c->value : 0;
    };
    const auto root_paths = root.paths();
    const std::uint64_t ops_before = root_ops();

    obs::StatsRegistry shard;
    {
        obs::ScopedRegistry scope(shard);
        Machine m(smallConfig(), "sharded", 1);
        PhaseOps ops(4);
        ops[1].push_back({blockBase(3), 0x404, true});
        ops[2].push_back({blockBase(3), 0x408, false});
        m.runPhase(ops);
        m.finish();
    }
    ASSERT_NE(shard.findCounter("sim.ops"), nullptr);
    EXPECT_EQ(shard.findCounter("sim.ops")->value, 2u);
    EXPECT_EQ(shard.findCounter("protocol.writes")->value, 1u);
    EXPECT_EQ(shard.findCounter("protocol.blocks_touched")->value, 1u);
    EXPECT_EQ(root.paths(), root_paths);
    EXPECT_EQ(root_ops(), ops_before);
}

TEST(Machine, WrongPhaseWidthDies)
{
    Machine m(smallConfig(), "t", 1);
    PhaseOps ops(3);
    EXPECT_DEATH(m.runPhase(ops), "every node");
}

} // namespace
