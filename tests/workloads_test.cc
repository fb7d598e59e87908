/**
 * @file
 * Tests for the benchmark kernels: registry behaviour, determinism,
 * and the structural sharing properties each kernel is designed to
 * exhibit.  Runs at reduced scale to stay fast; the full-scale
 * calibration lives in the benches and integration test.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "obs/registry.hh"
#include "trace/format.hh"
#include "workloads/registry.hh"

namespace {

using namespace ccp;
using workloads::generateTrace;
using workloads::makeWorkload;
using workloads::WorkloadParams;
using workloads::workloadNames;

WorkloadParams
tinyParams(std::uint64_t seed = 1)
{
    WorkloadParams p;
    p.seed = seed;
    p.scale = 0.1;
    return p;
}

TEST(Registry, SevenBenchmarksInTableThreeOrder)
{
    const auto &names = workloadNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "barnes");
    EXPECT_EQ(names.back(), "water");
}

TEST(Registry, MakeByNameRoundTrips)
{
    for (const auto &name : workloadNames())
        EXPECT_EQ(makeWorkload(name, tinyParams())->name(), name);
}

TEST(Registry, ParallelSuiteEqualsSerialSuite)
{
    WorkloadParams p = tinyParams();
    p.scale = 0.02;
    obs::StatsRegistry serial_reg, parallel_reg;
    std::vector<trace::SharingTrace> serial, parallel;
    {
        obs::ScopedRegistry route(serial_reg);
        serial = workloads::generateSuite(p, mem::MachineConfig(), 1);
    }
    {
        obs::ScopedRegistry route(parallel_reg);
        parallel = workloads::generateSuite(p, mem::MachineConfig(), 4);
    }
    ASSERT_EQ(serial.size(), workloadNames().size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].name(), workloadNames()[i]);
        EXPECT_EQ(trace::packMeta(parallel[i].meta()),
                  trace::packMeta(serial[i].meta()));
        ASSERT_EQ(parallel[i].events().size(), serial[i].events().size());
        for (std::size_t e = 0; e < serial[i].events().size(); ++e) {
            const auto a = trace::packEvent(parallel[i].events()[e]);
            const auto b = trace::packEvent(serial[i].events()[e]);
            ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
                << serial[i].name() << " event " << e;
        }
    }
    // Every counter of the serial run, summed over the suite.
    EXPECT_GT(serial_reg.findCounter("protocol.writes")->value, 0u);
    EXPECT_EQ(parallel_reg.paths(), serial_reg.paths());
    for (const auto &path : serial_reg.paths()) {
        const auto *c = serial_reg.findCounter(path);
        if (!c)
            continue;
        EXPECT_EQ(parallel_reg.findCounter(path)->value, c->value) << path;
    }
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("nosuch", tinyParams()),
                ::testing::ExitedWithCode(1), "unknown workload");
}

class KernelTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelTest, ProducesANonTrivialFinalizedTrace)
{
    auto tr = generateTrace(GetParam(), tinyParams());
    EXPECT_EQ(tr.name(), GetParam());
    EXPECT_EQ(tr.nNodes(), 16u);
    EXPECT_GT(tr.storeMisses(), 100u);
    EXPECT_GT(tr.meta().blocksTouched, 50u);
    EXPECT_GT(tr.meta().totalOps, tr.storeMisses());
    EXPECT_GE(tr.meta().maxStaticStoresPerNode,
              tr.meta().maxPredictedStoresPerNode);
    EXPECT_GT(tr.meta().maxPredictedStoresPerNode, 0u);
}

TEST_P(KernelTest, SharingExistsButIsSparse)
{
    auto tr = generateTrace(GetParam(), tinyParams());
    double prev = tr.prevalence();
    // Every benchmark exhibits some sharing, and (key observation of
    // paper Table 6) prevalence is far below the 50% of branch bias.
    EXPECT_GT(prev, 0.001) << GetParam();
    EXPECT_LT(prev, 0.35) << GetParam();
}

TEST_P(KernelTest, DeterministicForSeed)
{
    auto a = generateTrace(GetParam(), tinyParams(77));
    auto b = generateTrace(GetParam(), tinyParams(77));
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].pid, b.events()[i].pid);
        EXPECT_EQ(a.events()[i].pc, b.events()[i].pc);
        EXPECT_EQ(a.events()[i].block, b.events()[i].block);
        EXPECT_EQ(a.events()[i].readers.raw(),
                  b.events()[i].readers.raw());
        EXPECT_EQ(a.events()[i].invalidated.raw(),
                  b.events()[i].invalidated.raw());
    }
    EXPECT_EQ(a.meta().totalOps, b.meta().totalOps);
}

TEST_P(KernelTest, SeedChangesTheTrace)
{
    auto a = generateTrace(GetParam(), tinyParams(1));
    auto b = generateTrace(GetParam(), tinyParams(2));
    bool identical = a.events().size() == b.events().size();
    if (identical) {
        for (std::size_t i = 0; identical && i < a.events().size(); ++i)
            identical = a.events()[i].pid == b.events()[i].pid &&
                        a.events()[i].readers.raw() ==
                            b.events()[i].readers.raw();
    }
    EXPECT_FALSE(identical);
}

TEST_P(KernelTest, EventFieldsAreWellFormed)
{
    auto tr = generateTrace(GetParam(), tinyParams());
    SharingBitmap machine = SharingBitmap::all(16);
    for (const auto &ev : tr.events()) {
        EXPECT_LT(ev.pid, 16u);
        EXPECT_LT(ev.dir, 16u);
        EXPECT_GE(ev.pc, 0x0040'0000u);
        EXPECT_TRUE(ev.readers.subsetOf(machine));
        EXPECT_TRUE(ev.invalidated.subsetOf(machine));
        EXPECT_FALSE(ev.readers.test(ev.pid));
        if (ev.prevEvent != trace::noEvent) {
            EXPECT_LT(ev.prevEvent, tr.events().size());
            EXPECT_EQ(tr.events()[ev.prevEvent].block, ev.block);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Kernel-specific structural properties.

TEST(KernelStructure, MigratorySharingDominatesMp3d)
{
    auto tr = generateTrace("mp3d", tinyParams());
    // Migratory pattern: most non-empty outcomes have exactly one
    // reader (the next writer).
    std::uint64_t one = 0, more = 0;
    for (const auto &ev : tr.events()) {
        if (ev.readers.popcount() == 1)
            ++one;
        else if (ev.readers.popcount() > 1)
            ++more;
    }
    EXPECT_GT(one, 4 * more);
}

TEST(KernelStructure, WideSharingExistsInBarnes)
{
    auto tr = generateTrace("barnes", tinyParams());
    // The top tree cells must be read nearly machine-wide.
    unsigned wide = 0;
    for (const auto &ev : tr.events())
        wide += ev.readers.popcount() >= 12;
    EXPECT_GT(wide, 10u);
}

TEST(KernelStructure, OceanIsMostlyUnshared)
{
    auto tr = generateTrace("ocean", tinyParams());
    std::uint64_t zero = 0;
    for (const auto &ev : tr.events())
        zero += ev.readers.empty();
    EXPECT_GT(zero, tr.events().size() / 2);
}

TEST(KernelStructure, WaterPositionsAreReadByManyNodes)
{
    auto tr = generateTrace("water", tinyParams());
    unsigned wide = 0;
    for (const auto &ev : tr.events())
        wide += ev.readers.popcount() >= 5;
    EXPECT_GT(wide, 100u);
}

TEST(KernelStructure, StaticStoreCountsAreSmall)
{
    // Paper section 5.2: live static stores number in the tens to
    // hundreds -- the basis for instruction-indexed prediction.
    for (const auto &name : workloadNames()) {
        auto tr = generateTrace(name, tinyParams());
        EXPECT_LT(tr.meta().maxStaticStoresPerNode, 512u) << name;
        EXPECT_GE(tr.meta().maxStaticStoresPerNode, 2u) << name;
    }
}

TEST(KernelStructure, ScaleKnobChangesRunLength)
{
    WorkloadParams small = tinyParams();
    WorkloadParams big = tinyParams();
    big.scale = 0.3;
    auto a = generateTrace("mp3d", small);
    auto b = generateTrace("mp3d", big);
    EXPECT_GT(b.meta().totalOps, a.meta().totalOps);
}

TEST(KernelStructure, WorksOnSmallerMachines)
{
    WorkloadParams p = tinyParams();
    p.nNodes = 8;
    mem::MachineConfig cfg;
    cfg.nNodes = 8;
    // An 8-node readers-per-kill histogram cannot merge with the
    // 16-node one the other tests leave in the process's registry.
    obs::StatsRegistry shard;
    obs::ScopedRegistry route(shard);
    auto tr = generateTrace("em3d", p, cfg);
    EXPECT_EQ(tr.nNodes(), 8u);
    EXPECT_GT(tr.storeMisses(), 0u);
    for (const auto &ev : tr.events())
        EXPECT_LT(ev.pid, 8u);
}

} // namespace
