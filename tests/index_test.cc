/**
 * @file
 * Tests for IndexSpec: packing, truncation, Table 1 classification.
 */

#include <gtest/gtest.h>

#include <vector>

#include "predict/evaluator.hh"
#include "predict/index.hh"
#include "predict/table.hh"
#include "sweep/space.hh"

namespace {

using namespace ccp;
using predict::addressIndex;
using predict::IndexSpec;
using predict::instructionIndex;

TEST(IndexSpec, WidthAccounting)
{
    IndexSpec none;
    EXPECT_EQ(none.indexBits(4), 0u);

    IndexSpec full{true, 8, true, 6};
    EXPECT_EQ(full.indexBits(4), 4u + 8u + 4u + 6u);
    EXPECT_EQ(full.indexBits(2), 2u + 8u + 2u + 6u);
}

TEST(IndexSpec, NoFieldsAlwaysIndexZero)
{
    IndexSpec none;
    EXPECT_EQ(none.index(3, 0x4444, 7, 12345, 4), 0u);
}

TEST(IndexSpec, PidOnlySelectsByNode)
{
    IndexSpec idx{true, 0, false, 0};
    for (NodeId pid = 0; pid < 16; ++pid)
        EXPECT_EQ(idx.index(pid, 0x999, 3, 777, 4), pid);
}

TEST(IndexSpec, AddrTruncationKeepsLowBits)
{
    IndexSpec idx = addressIndex(4, false);
    EXPECT_EQ(idx.index(0, 0, 0, 0b10110101, 4), 0b0101u);
}

TEST(IndexSpec, PcTruncationDropsWordAlignment)
{
    // Two stores 4 bytes apart must land in different entries even
    // with a narrow pc field.
    IndexSpec idx = instructionIndex(2, false);
    auto a = idx.index(0, 0x400, 0, 0, 4);
    auto b = idx.index(0, 0x404, 0, 0, 4);
    EXPECT_NE(a, b);
    EXPECT_LT(a, 4u);
    EXPECT_LT(b, 4u);
}

TEST(IndexSpec, FieldsArePackedIndependently)
{
    IndexSpec idx{true, 4, true, 4};
    auto base = idx.index(0, 0, 0, 0, 4);
    EXPECT_EQ(base, 0u);
    // Changing one input field must change exactly its bit range.
    EXPECT_EQ(idx.index(0, 0, 0, 5, 4), 5u);
    EXPECT_EQ(idx.index(0, 0, 3, 0, 4), 3u << 4);
    EXPECT_EQ(idx.index(0, 4 * 9, 0, 0, 4), 9u << 8);
    EXPECT_EQ(idx.index(11, 0, 0, 0, 4), 11u << 12);
}

TEST(IndexSpec, AliasingUnderTruncation)
{
    IndexSpec idx = addressIndex(2, false);
    EXPECT_EQ(idx.index(0, 0, 0, 4, 4), idx.index(0, 0, 0, 8, 4));
    EXPECT_NE(idx.index(0, 0, 0, 4, 4), idx.index(0, 0, 0, 5, 4));
}

TEST(IndexSpec, TableOneCases)
{
    EXPECT_EQ(IndexSpec{}.tableOneCase(), 0u);
    EXPECT_EQ(addressIndex(8, false).tableOneCase(), 1u);
    EXPECT_EQ(addressIndex(8, true).tableOneCase(), 3u);
    EXPECT_EQ(instructionIndex(8, false).tableOneCase(), 4u);
    EXPECT_EQ(instructionIndex(8, true).tableOneCase(), 12u);
    IndexSpec all{true, 8, true, 8};
    EXPECT_EQ(all.tableOneCase(), 15u);
}

TEST(IndexSpec, DistributabilityFollowsTableOne)
{
    // Cases 0,1,4,5: centralized only.
    EXPECT_TRUE(IndexSpec{}.centralizedOnly());
    EXPECT_TRUE(instructionIndex(8, false).centralizedOnly());
    // dir without pid: distributable at the directories.
    IndexSpec at_dir = addressIndex(8, true);
    EXPECT_TRUE(at_dir.distributableAtDirectories());
    EXPECT_FALSE(at_dir.distributableAtProcessors());
    // pid without dir: at the processors.
    IndexSpec at_proc = instructionIndex(8, true);
    EXPECT_TRUE(at_proc.distributableAtProcessors());
    EXPECT_FALSE(at_proc.distributableAtDirectories());
}

TEST(IndexSpec, WriterIdentityDetection)
{
    EXPECT_FALSE(addressIndex(8, true).usesWriterIdentity());
    EXPECT_FALSE(IndexSpec{}.usesWriterIdentity());
    EXPECT_TRUE(instructionIndex(8, false).usesWriterIdentity());
    EXPECT_TRUE((IndexSpec{true, 0, true, 8}).usesWriterIdentity());
}

TEST(IndexSpec, FieldsNameNotation)
{
    EXPECT_EQ(IndexSpec{}.fieldsName(), "");
    EXPECT_EQ(addressIndex(8, true).fieldsName(), "dir+add8");
    EXPECT_EQ(instructionIndex(8, true).fieldsName(), "pid+pc8");
    IndexSpec full{true, 2, true, 6};
    EXPECT_EQ(full.fieldsName(), "pid+pc2+dir+add6");
}

TEST(IndexSpec, NodeBitsForMachineSizes)
{
    EXPECT_EQ(predict::nodeBitsFor(1), 0u);
    EXPECT_EQ(predict::nodeBitsFor(2), 1u);
    EXPECT_EQ(predict::nodeBitsFor(16), 4u);
    EXPECT_EQ(predict::nodeBitsFor(17), 5u);
    EXPECT_EQ(predict::nodeBitsFor(64), 6u);
}

TEST(IndexSpec, EventConvenienceOverload)
{
    trace::CoherenceEvent ev;
    ev.pid = 5;
    ev.pc = 0x420;
    ev.dir = 9;
    ev.block = 0x3f;
    IndexSpec idx{true, 4, true, 4};
    EXPECT_EQ(idx.indexOf(ev, 4),
              idx.index(5, 0x420, 9, 0x3f, 4));
}

// ---------------------------------------------------------------------
// Hashed feature folding

TEST(HashedIndex, StaysWithinTheIndexWidth)
{
    IndexSpec idx{true, 4, true, 6};
    idx.hashed = true;
    const unsigned bits = idx.indexBits(4); // 4 + 4 + 4 + 6 = 18
    ASSERT_EQ(bits, 18u);
    std::uint64_t seen_high = 0;
    for (std::uint64_t k = 0; k < 4096; ++k) {
        std::uint64_t v = idx.index(
            static_cast<NodeId>(k % 16), 0x400 + 4 * k,
            static_cast<NodeId>((k / 3) % 16), k * 0x51ed, 4);
        EXPECT_LT(v, std::uint64_t(1) << bits);
        seen_high |= v;
    }
    // The fold actually reaches the upper index bits (truncation
    // would too via the concatenated fields; the point is the hash is
    // not stuck in a narrow range).
    EXPECT_GE(64 - unsigned(__builtin_clzll(seen_high)), bits - 2);
}

TEST(HashedIndex, PlanMatchesSpecBitForBit)
{
    // The compiled plan must agree with IndexSpec::index on every
    // tuple — the reference and batched kernels each use one of the
    // two, and the differential tier depends on their identity.
    for (unsigned cs = 1; cs < 16; ++cs) {
        IndexSpec idx;
        idx.usePid = (cs & 8) != 0;
        idx.pcBits = cs & 4 ? 5 : 0;
        idx.useDir = (cs & 2) != 0;
        idx.addrBits = cs & 1 ? 7 : 0;
        idx.hashed = true;
        const auto plan = predict::makeIndexPlan(idx, 4);
        EXPECT_TRUE(plan.hashed());
        for (std::uint64_t k = 0; k < 512; ++k) {
            const NodeId pid = static_cast<NodeId>(k % 16);
            const Pc pc = 0x8000 + 4 * (k % 97);
            const NodeId dir = static_cast<NodeId>((k >> 2) % 16);
            const Addr block = k * 0x9af1 + 3;
            EXPECT_EQ(plan.index(pid, pc, dir, block),
                      idx.index(pid, pc, dir, block, 4))
                << "case " << cs << " k " << k;
        }
    }
}

TEST(HashedIndex, EqualFieldSetAndWidthCompileToOnePlan)
{
    // The fold mixes every field at full width, so a hashed index
    // depends on its field set and total width only: pc4+add6 and
    // pc6+add4 name one entry mapping.
    IndexSpec a{false, 4, false, 6};
    IndexSpec b{false, 6, false, 4};
    IndexSpec c{true, 2, true, 4};
    a.hashed = b.hashed = c.hashed = true;
    IndexSpec d{true, 4, true, 2};
    d.hashed = true;
    EXPECT_EQ(predict::makeIndexPlan(a, 4), predict::makeIndexPlan(b, 4));
    EXPECT_EQ(predict::makeIndexPlan(c, 4), predict::makeIndexPlan(d, 4));
    for (std::uint64_t k = 0; k < 256; ++k)
        EXPECT_EQ(a.index(1, 0x400 + 4 * k, 2, k * 0x9af1, 4),
                  b.index(1, 0x400 + 4 * k, 2, k * 0x9af1, 4));
    // A different width or field set is a different plan.
    IndexSpec wider = a;
    wider.addrBits = 7;
    EXPECT_NE(predict::makeIndexPlan(a, 4),
              predict::makeIndexPlan(wider, 4));
    IndexSpec other{false, 0, true, 6};
    other.hashed = true;
    EXPECT_NE(predict::makeIndexPlan(a, 4),
              predict::makeIndexPlan(other, 4));
    // Truncated indices keep the split.
    a.hashed = b.hashed = false;
    EXPECT_NE(predict::makeIndexPlan(a, 4), predict::makeIndexPlan(b, 4));
}

TEST(HashedIndex, PaperSpacePerceptronsRepeatUnderOtherNames)
{
    // Of the paper space's 176 perceptron schemes (Table 8's grid),
    // 56 compile to the plan of an earlier one whose spec differs
    // only in the hashed index's pc/addr split.
    sweep::SpaceSpec space;
    space.pasDepths = {2};
    space.percDepths = {2};
    space.percWeightBits = {5};
    space.percThetas = {2};
    space.percBloomBits = {0, 16};
    const unsigned node_bits = predict::nodeBitsFor(space.nNodes);
    std::vector<predict::SchemeSpec> seen;
    std::size_t perceptrons = 0, repeats = 0;
    for (const predict::SchemeSpec &s : sweep::enumerateSchemes(space)) {
        if (s.kind != predict::FunctionKind::Perceptron)
            continue;
        ++perceptrons;
        for (const predict::SchemeSpec &o : seen) {
            predict::SchemeSpec rest = s;
            rest.index = o.index;
            if (rest == o && !(s.index == o.index) &&
                predict::makeIndexPlan(s.index, node_bits) ==
                    predict::makeIndexPlan(o.index, node_bits)) {
                ++repeats;
                break;
            }
        }
        seen.push_back(s);
    }
    EXPECT_EQ(perceptrons, 176u);
    EXPECT_EQ(repeats, 56u);
}

TEST(HashedIndex, AbsentFieldsDoNotParticipate)
{
    // Only addr participates: varying pid/pc/dir must not move the
    // hashed index (their multipliers are zero).
    IndexSpec idx;
    idx.addrBits = 8;
    idx.hashed = true;
    const std::uint64_t base = idx.index(0, 0x400, 0, 42, 4);
    EXPECT_EQ(idx.index(7, 0x999, 3, 42, 4), base);
    EXPECT_NE(idx.index(0, 0x400, 0, 43, 4), base);
}

TEST(HashedIndex, DiffersFromTruncationConcat)
{
    // Same fields, same width, different entry mapping: the fold uses
    // full-width address entropy that truncation throws away, so two
    // blocks that collide under truncation separate under the hash.
    IndexSpec flat;
    flat.addrBits = 4;
    IndexSpec hashed = flat;
    hashed.hashed = true;
    // Blocks 0x10 and 0x20 share their low 4 bits (both 0).
    EXPECT_EQ(flat.index(0, 0, 0, 0x10, 4),
              flat.index(0, 0, 0, 0x20, 4));
    EXPECT_NE(hashed.index(0, 0, 0, 0x10, 4),
              hashed.index(0, 0, 0, 0x20, 4));
}

TEST(HashedIndex, EmptyIndexFoldsToZero)
{
    IndexSpec idx;
    idx.hashed = true; // no fields: mask is zero, index is zero
    EXPECT_EQ(idx.index(3, 0x4444, 7, 12345, 4), 0u);
    EXPECT_EQ(idx.indexBits(4), 0u);
}

TEST(HashedIndex, HashedFieldsNameCarriesTheMarker)
{
    IndexSpec idx{true, 4, false, 6};
    idx.hashed = true;
    EXPECT_EQ(idx.fieldsName(), "hash:pid+pc4+add6");
}

} // namespace
