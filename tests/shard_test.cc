/**
 * @file
 * Tests for deterministic shard planning and the CCPC shard merge
 * (sweep/shard.hh): the partition is a stable permutation of the
 * scheme list, shard checkpoint keys are distinct and self-describing,
 * and merging K shard checkpoints reproduces a single-process
 * evaluation exactly — including under torn or mismatched shard files,
 * which must be rejected per shard, never folded into wrong results.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/shard.hh"
#include "sweep/space.hh"

namespace {

using namespace ccp;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;
using sweep::CheckpointEntry;
using sweep::CheckpointKey;
using sweep::CheckpointLoad;
using sweep::ShardMerge;
using sweep::ShardPlan;
using sweep::SweepKernel;
using sweep::mergeShardCheckpoints;
using sweep::planShards;
using sweep::shardCheckpointKey;
using sweep::shardSchemes;

trace::SharingTrace
noisyTrace(const char *name, std::uint64_t seed)
{
    trace::SharingTrace tr(name, 16);
    trace::CoherenceEvent prev_by_block[32];
    bool seen[32] = {};
    Rng rng(seed);
    for (int i = 0; i < 600; ++i) {
        unsigned k = static_cast<unsigned>(rng.below(32));
        trace::CoherenceEvent ev;
        ev.pid = static_cast<NodeId>(k % 16);
        ev.pc = 0x400 + 4 * (k % 8);
        ev.block = k;
        ev.dir = k % 16;
        ev.readers = SharingBitmap::single((k + 1) % 16);
        if (rng.below(4) == 0)
            ev.readers.set(static_cast<NodeId>(rng.below(16)));
        if (seen[k]) {
            ev.invalidated = prev_by_block[k].readers;
            ev.prevWriterPid = prev_by_block[k].pid;
            ev.prevWriterPc = prev_by_block[k].pc;
            ev.hasPrevWriter = true;
        }
        seen[k] = true;
        prev_by_block[k] = ev;
        tr.append(ev);
    }
    return tr;
}

std::vector<trace::SharingTrace>
smallSuite()
{
    std::vector<trace::SharingTrace> suite;
    suite.push_back(noisyTrace("alpha", 7));
    suite.push_back(noisyTrace("beta", 23));
    return suite;
}

std::vector<SchemeSpec>
smallSpace()
{
    sweep::SpaceSpec spec;
    spec.maxBits = std::uint64_t(1) << 12;
    spec.pcBitsGrid = {0, 2, 4};
    spec.addrBitsGrid = {0, 2, 4};
    spec.pasDepths = {1};
    return enumerateSchemes(spec);
}

/** A checkpoint base with no leftovers from earlier runs. */
std::string
ckptBase(const char *name)
{
    const std::string base = ::testing::TempDir() + name;
    std::error_code ec;
    for (const auto &de : std::filesystem::directory_iterator(
             ::testing::TempDir(), ec)) {
        const std::string p = de.path().string();
        if (p.rfind(base + ".", 0) == 0)
            std::filesystem::remove(de.path(), ec);
    }
    return base;
}

/** Evaluate shard @p shard's sub-list and save its CCPC checkpoint,
 *  exactly as a shard worker would.  @return the saved file path. */
std::string
writeShardCheckpoint(const std::string &base,
                     const std::vector<trace::SharingTrace> &suite,
                     const std::vector<SchemeSpec> &schemes,
                     const ShardPlan &plan, unsigned shard,
                     UpdateMode mode, SweepKernel kernel)
{
    const auto sub = shardSchemes(schemes, plan, shard);
    const auto results =
        sweep::ParallelSweep(1, kernel).evaluate(suite, sub, mode);
    std::vector<CheckpointEntry> entries;
    for (std::size_t j = 0; j < results.size(); ++j) {
        CheckpointEntry e;
        e.schemeIndex = j; // shard-local, as a worker checkpoints it
        for (const auto &pt : results[j].perTrace)
            e.perTrace.push_back(pt.confusion);
        entries.push_back(std::move(e));
    }
    const CheckpointKey key = shardCheckpointKey(
        suite, schemes, plan, shard, mode, kernel);
    const std::string file = sweep::checkpointFileName(base, key);
    EXPECT_TRUE(sweep::saveCheckpoint(file, key, std::move(entries)));
    return file;
}

TEST(ShardPlanTest, PartitionIsAPermutationAndDeterministic)
{
    auto schemes = smallSpace();
    ASSERT_GE(schemes.size(), 20u);

    for (unsigned k : {1u, 3u, 4u, 7u}) {
        const ShardPlan plan = planShards(schemes, k);
        ASSERT_EQ(plan.shards, k);
        ASSERT_EQ(plan.byShard.size(), k);

        std::set<std::size_t> seen;
        for (unsigned s = 0; s < k; ++s) {
            std::size_t prev = 0;
            bool first = true;
            for (std::size_t gi : plan.byShard[s]) {
                ASSERT_LT(gi, schemes.size());
                EXPECT_TRUE(seen.insert(gi).second)
                    << "index " << gi << " owned twice";
                // Ascending within a shard: a shard's local entry
                // order must be its global order for the merge remap.
                if (!first) {
                    EXPECT_LT(prev, gi);
                }
                prev = gi;
                first = false;
            }
        }
        EXPECT_EQ(seen.size(), schemes.size());

        // Same inputs, same partition — across calls (and, because
        // the hash is over canonical names, across processes).
        const ShardPlan again = planShards(schemes, k);
        EXPECT_EQ(plan.byShard, again.byShard);
    }
}

TEST(ShardPlanTest, ShardSchemesMatchesThePlan)
{
    auto schemes = smallSpace();
    const ShardPlan plan = planShards(schemes, 4);
    for (unsigned s = 0; s < 4; ++s) {
        const auto sub = shardSchemes(schemes, plan, s);
        ASSERT_EQ(sub.size(), plan.byShard[s].size());
        for (std::size_t j = 0; j < sub.size(); ++j)
            EXPECT_EQ(sub[j], schemes[plan.byShard[s][j]]);
    }
}

TEST(ShardPlanTest, MoreShardsThanSchemesLeavesEmptyShards)
{
    const auto space = smallSpace();
    const std::vector<SchemeSpec> two(space.begin(),
                                      space.begin() + 2);
    const ShardPlan plan = planShards(two, 64);
    std::size_t owned = 0;
    for (const auto &s : plan.byShard)
        owned += s.size();
    EXPECT_EQ(owned, 2u);
}

TEST(ShardPlanTest, ShardKeysAreDistinctPerShard)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    const ShardPlan plan = planShards(schemes, 4);
    std::set<std::string> files;
    for (unsigned s = 0; s < 4; ++s) {
        const CheckpointKey key = shardCheckpointKey(
            suite, schemes, plan, s, UpdateMode::Direct,
            SweepKernel::Batched);
        EXPECT_TRUE(
            files
                .insert(sweep::checkpointFileName("base", key))
                .second)
            << "shard " << s << " filename collides";
    }
}

TEST(ShardMergeTest, MergeReproducesSingleProcessResultsExactly)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    const auto mode = UpdateMode::Direct;
    const auto kernel = SweepKernel::Batched;
    const std::string base = ckptBase("shard_merge");

    const auto baseline =
        sweep::ParallelSweep(1, kernel).evaluate(suite, schemes, mode);

    const ShardPlan plan = planShards(schemes, 4);
    for (unsigned s = 0; s < 4; ++s)
        writeShardCheckpoint(base, suite, schemes, plan, s, mode,
                             kernel);

    const ShardMerge merge = mergeShardCheckpoints(
        base, suite, schemes, mode, kernel, 4);
    EXPECT_TRUE(merge.allCompleted());
    ASSERT_EQ(merge.entries.size(), schemes.size());
    for (const auto &st : merge.shardStatus)
        EXPECT_EQ(st.load, CheckpointLoad::Ok) << "shard " << st.shard;

    for (std::size_t i = 0; i < merge.entries.size(); ++i) {
        const auto &e = merge.entries[i];
        // Canonical order: ascending global indices, one per scheme.
        ASSERT_EQ(e.schemeIndex, i);
        const SuiteResult restored = sweep::restoreSuiteResult(
            schemes[i], mode, suite, e.perTrace);
        const SuiteResult &want = baseline[i];
        const std::string what = sweep::formatScheme(want.scheme);
        ASSERT_EQ(restored.perTrace.size(), want.perTrace.size());
        for (std::size_t t = 0; t < want.perTrace.size(); ++t) {
            EXPECT_EQ(restored.perTrace[t].confusion.tp,
                      want.perTrace[t].confusion.tp)
                << what;
            EXPECT_EQ(restored.perTrace[t].confusion.fp,
                      want.perTrace[t].confusion.fp)
                << what;
            EXPECT_EQ(restored.perTrace[t].confusion.tn,
                      want.perTrace[t].confusion.tn)
                << what;
            EXPECT_EQ(restored.perTrace[t].confusion.fn,
                      want.perTrace[t].confusion.fn)
                << what;
        }
        EXPECT_EQ(restored.pooled.tp, want.pooled.tp) << what;
        EXPECT_EQ(restored.pooled.fp, want.pooled.fp) << what;
        EXPECT_EQ(restored.pooled.tn, want.pooled.tn) << what;
        EXPECT_EQ(restored.pooled.fn, want.pooled.fn) << what;
    }
}

TEST(ShardMergeTest, TornShardFileIsRejectedOthersRecovered)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    const auto mode = UpdateMode::Forwarded;
    const auto kernel = SweepKernel::Batched;
    const std::string base = ckptBase("shard_torn");

    const ShardPlan plan = planShards(schemes, 3);
    std::vector<std::string> files;
    for (unsigned s = 0; s < 3; ++s)
        files.push_back(writeShardCheckpoint(
            base, suite, schemes, plan, s, mode, kernel));

    // Tear shard 1's file in half — the validated container must
    // reject it wholesale (a half-file could still parse as fewer
    // entries if sizes happened to line up; the checksum forbids it).
    const auto full =
        std::filesystem::file_size(std::filesystem::path(files[1]));
    std::filesystem::resize_file(files[1], full / 2);

    const ShardMerge merge = mergeShardCheckpoints(
        base, suite, schemes, mode, kernel, 3);
    EXPECT_FALSE(merge.allCompleted());
    EXPECT_EQ(merge.shardStatus[1].load, CheckpointLoad::Invalid);
    EXPECT_EQ(merge.shardStatus[1].schemesDone, 0u);

    // Every scheme of shards 0 and 2 is recovered; none of shard 1's.
    std::size_t expect =
        plan.byShard[0].size() + plan.byShard[2].size();
    EXPECT_EQ(merge.entries.size(), expect);
    for (std::size_t gi : plan.byShard[1])
        EXPECT_FALSE(merge.completed[gi]);
    for (std::size_t gi : plan.byShard[0])
        EXPECT_TRUE(merge.completed[gi]);
}

TEST(ShardMergeTest, MismatchedShardFileIsAKeyMismatchNotData)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    const auto mode = UpdateMode::Direct;
    const auto kernel = SweepKernel::Batched;
    const std::string base = ckptBase("shard_mismatch");

    const ShardPlan plan = planShards(schemes, 2);
    writeShardCheckpoint(base, suite, schemes, plan, 0, mode, kernel);

    // Plant shard 0's *content* under shard 1's filename: a valid
    // container for the wrong shard.  The in-file key must reject it.
    const CheckpointKey key0 = shardCheckpointKey(
        suite, schemes, plan, 0, mode, kernel);
    const CheckpointKey key1 = shardCheckpointKey(
        suite, schemes, plan, 1, mode, kernel);
    std::filesystem::copy_file(
        sweep::checkpointFileName(base, key0),
        sweep::checkpointFileName(base, key1),
        std::filesystem::copy_options::overwrite_existing);

    const ShardMerge merge = mergeShardCheckpoints(
        base, suite, schemes, mode, kernel, 2);
    EXPECT_FALSE(merge.allCompleted());
    EXPECT_EQ(merge.shardStatus[0].load, CheckpointLoad::Ok);
    EXPECT_EQ(merge.shardStatus[1].load,
              CheckpointLoad::KeyMismatch);
    for (std::size_t gi : plan.byShard[1])
        EXPECT_FALSE(merge.completed[gi]);
}

TEST(ShardMergeTest, MissingShardsAreReportedNotFatal)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    const std::string base = ckptBase("shard_missing");

    const ShardMerge merge = mergeShardCheckpoints(
        base, suite, schemes, UpdateMode::Direct,
        SweepKernel::Batched, 4);
    EXPECT_FALSE(merge.allCompleted());
    EXPECT_TRUE(merge.entries.empty());
    ASSERT_EQ(merge.shardStatus.size(), 4u);
    for (const auto &st : merge.shardStatus)
        EXPECT_EQ(st.load, CheckpointLoad::Missing)
            << "shard " << st.shard;
}

} // namespace
