/**
 * @file
 * Tests for the prediction functions: window (last/union/inter) and
 * two-level PAs, including the algebraic properties the paper relies
 * on (last == depth-1 window; union/inter containment; depth
 * monotonicity).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "predict/function.hh"

namespace {

using namespace ccp;
using predict::FunctionKind;
using predict::makeFunction;
using predict::PAsFunction;
using predict::PredictionFunction;
using predict::WindowFunction;

std::vector<std::uint64_t>
freshState(const PredictionFunction &fn)
{
    return std::vector<std::uint64_t>(fn.entryWords(), 0);
}

TEST(WindowFunction, EmptyHistoryPredictsNothing)
{
    WindowFunction u(FunctionKind::Union, 3);
    auto st = freshState(u);
    EXPECT_TRUE(u.predict(st.data()).empty());
}

TEST(WindowFunction, DepthOneIsLastPrediction)
{
    WindowFunction u(FunctionKind::Union, 1);
    WindowFunction i(FunctionKind::Inter, 1);
    auto su = freshState(u), si = freshState(i);

    for (std::uint64_t fb : {0b0110ull, 0b1000ull, 0b0011ull}) {
        u.update(su.data(), SharingBitmap(fb));
        i.update(si.data(), SharingBitmap(fb));
        EXPECT_EQ(u.predict(su.data()).raw(), fb);
        EXPECT_EQ(i.predict(si.data()).raw(), fb);
    }
}

TEST(WindowFunction, UnionAccumulates)
{
    WindowFunction u(FunctionKind::Union, 3);
    auto st = freshState(u);
    u.update(st.data(), SharingBitmap(0b0001));
    u.update(st.data(), SharingBitmap(0b0010));
    EXPECT_EQ(u.predict(st.data()).raw(), 0b0011u);
    u.update(st.data(), SharingBitmap(0b0100));
    EXPECT_EQ(u.predict(st.data()).raw(), 0b0111u);
}

TEST(WindowFunction, InterRequiresStability)
{
    WindowFunction i(FunctionKind::Inter, 2);
    auto st = freshState(i);
    i.update(st.data(), SharingBitmap(0b0110));
    i.update(st.data(), SharingBitmap(0b0011));
    EXPECT_EQ(i.predict(st.data()).raw(), 0b0010u);
}

TEST(WindowFunction, WindowEvictsOldestBitmap)
{
    WindowFunction u(FunctionKind::Union, 2);
    auto st = freshState(u);
    u.update(st.data(), SharingBitmap(0b0001));
    u.update(st.data(), SharingBitmap(0b0010));
    u.update(st.data(), SharingBitmap(0b0100)); // evicts 0b0001
    EXPECT_EQ(u.predict(st.data()).raw(), 0b0110u);
}

TEST(WindowFunction, PartialWindowUsesOnlyValidSlots)
{
    WindowFunction i(FunctionKind::Inter, 4);
    auto st = freshState(i);
    i.update(st.data(), SharingBitmap(0b1111));
    // With one bitmap recorded, inter predicts it verbatim (zero
    // slots must not be intersected in).
    EXPECT_EQ(i.predict(st.data()).raw(), 0b1111u);
}

TEST(WindowFunction, EntryBitsFollowPaperAccounting)
{
    EXPECT_EQ(WindowFunction(FunctionKind::Union, 1).entryBits(16), 16u);
    EXPECT_EQ(WindowFunction(FunctionKind::Inter, 4).entryBits(16), 64u);
    EXPECT_EQ(WindowFunction(FunctionKind::Union, 2).entryBits(32), 64u);
}

TEST(WindowFunction, UnionContainsInterAlways)
{
    WindowFunction u(FunctionKind::Union, 3);
    WindowFunction i(FunctionKind::Inter, 3);
    auto su = freshState(u), si = freshState(i);
    Rng rng(42);
    for (int k = 0; k < 500; ++k) {
        SharingBitmap fb(rng() & 0xffff);
        u.update(su.data(), fb);
        i.update(si.data(), fb);
        EXPECT_TRUE(i.predict(si.data()).subsetOf(u.predict(su.data())));
    }
}

TEST(WindowFunction, DepthMonotonicity)
{
    // On any feedback stream: deeper union predicts a superset of a
    // shallower union; deeper inter predicts a subset.
    WindowFunction u2(FunctionKind::Union, 2), u4(FunctionKind::Union, 4);
    WindowFunction i2(FunctionKind::Inter, 2), i4(FunctionKind::Inter, 4);
    auto s2 = freshState(u2), s4 = freshState(u4);
    auto t2 = freshState(i2), t4 = freshState(i4);
    Rng rng(7);
    for (int k = 0; k < 500; ++k) {
        SharingBitmap fb(rng() & 0xffff);
        u2.update(s2.data(), fb);
        u4.update(s4.data(), fb);
        i2.update(t2.data(), fb);
        i4.update(t4.data(), fb);
        EXPECT_TRUE(
            u2.predict(s2.data()).subsetOf(u4.predict(s4.data())));
        EXPECT_TRUE(
            i4.predict(t4.data()).subsetOf(i2.predict(t2.data())));
    }
}

TEST(PAs, ColdEntryPredictsNotShared)
{
    PAsFunction pas(2, 16);
    auto st = freshState(pas);
    EXPECT_TRUE(pas.predict(st.data()).empty());
}

TEST(PAs, LearnsAConstantPattern)
{
    PAsFunction pas(2, 16);
    auto st = freshState(pas);
    SharingBitmap fb(0b0101);
    for (int k = 0; k < 8; ++k)
        pas.update(st.data(), fb);
    EXPECT_EQ(pas.predict(st.data()).raw(), 0b0101u);
}

TEST(PAs, LearnsAnAlternatingPattern)
{
    // Node 0 reads every other time: a 2-bit history PAs predictor
    // should learn both phases of the alternation.
    PAsFunction pas(2, 4);
    auto st = freshState(pas);
    for (int k = 0; k < 40; ++k)
        pas.update(st.data(),
                   SharingBitmap(k % 2 == 0 ? 0b0001 : 0b0000));
    // After history "01" (last was read), predict not-read; after
    // "10", predict read.
    pas.update(st.data(), SharingBitmap(0b0001));
    EXPECT_FALSE(pas.predict(st.data()).test(0));
    pas.update(st.data(), SharingBitmap(0b0000));
    EXPECT_TRUE(pas.predict(st.data()).test(0));
}

TEST(PAs, CountersSaturate)
{
    PAsFunction pas(1, 2);
    auto st = freshState(pas);
    for (int k = 0; k < 100; ++k)
        pas.update(st.data(), SharingBitmap(0b01));
    // One contrary observation must not flip the saturated
    // read-after-read counter: after one more read the entry again
    // predicts read.
    pas.update(st.data(), SharingBitmap(0b00));
    pas.update(st.data(), SharingBitmap(0b01));
    EXPECT_TRUE(pas.predict(st.data()).test(0));
    // But repeated contrary evidence eventually flips it.
    for (int k = 0; k < 6; ++k)
        pas.update(st.data(), SharingBitmap(0b00));
    EXPECT_FALSE(pas.predict(st.data()).test(0));
}

TEST(PAs, NodesAreIndependent)
{
    PAsFunction pas(2, 16);
    auto st = freshState(pas);
    for (int k = 0; k < 10; ++k)
        pas.update(st.data(), SharingBitmap(1ull << 7));
    SharingBitmap pred = pas.predict(st.data());
    EXPECT_TRUE(pred.test(7));
    EXPECT_EQ(pred.popcount(), 1u);
}

TEST(PAs, EntryBitsFollowPaperAccounting)
{
    // N x (depth + 2 * 2^depth).
    EXPECT_EQ(PAsFunction(2, 16).entryBits(16), 16u * (2 + 8));
    EXPECT_EQ(PAsFunction(4, 16).entryBits(16), 16u * (4 + 32));
    EXPECT_EQ(PAsFunction(1, 16).entryBits(16), 16u * (1 + 4));
}

TEST(PAs, DeepHistoryStateLayoutIsSound)
{
    // 64 nodes at depth 8 stresses the bit-plane layout: one word per
    // plane, 512 counter planes.
    PAsFunction pas(8, 64);
    auto st = freshState(pas);
    Rng rng(3);
    for (int k = 0; k < 200; ++k) {
        SharingBitmap fb(rng());
        pas.update(st.data(), fb);
    }
    // Train node 63 solid-read; it must predict read regardless of
    // what the other nodes did.
    for (int k = 0; k < 10; ++k)
        pas.update(st.data(), SharingBitmap(1ull << 63));
    EXPECT_TRUE(pas.predict(st.data()).test(63));
}

TEST(Functions, FactoryDispatch)
{
    EXPECT_EQ(makeFunction(FunctionKind::Union, 2, 16)->kind(),
              FunctionKind::Union);
    EXPECT_EQ(makeFunction(FunctionKind::Inter, 2, 16)->kind(),
              FunctionKind::Inter);
    EXPECT_EQ(makeFunction(FunctionKind::PAs, 2, 16)->kind(),
              FunctionKind::PAs);
    EXPECT_EQ(makeFunction(FunctionKind::PAs, 2, 16)->depth(), 2u);
}

TEST(Functions, KindNames)
{
    EXPECT_STREQ(predict::functionKindName(FunctionKind::Union),
                 "union");
    EXPECT_STREQ(predict::functionKindName(FunctionKind::Inter),
                 "inter");
    EXPECT_STREQ(predict::functionKindName(FunctionKind::PAs), "pas");
}

} // namespace

namespace {

using ccp::predict::OverlapLastFunction;

TEST(OverlapLast, ColdEntryAbstains)
{
    OverlapLastFunction f;
    auto st = freshState(f);
    EXPECT_TRUE(f.predict(st.data()).empty());
    f.update(st.data(), SharingBitmap(0b01));
    // One observation is not enough to check overlap.
    EXPECT_TRUE(f.predict(st.data()).empty());
}

TEST(OverlapLast, PredictsOnOverlapOnly)
{
    OverlapLastFunction f;
    auto st = freshState(f);
    f.update(st.data(), SharingBitmap(0b011));
    f.update(st.data(), SharingBitmap(0b110)); // overlaps on bit 1
    EXPECT_EQ(f.predict(st.data()).raw(), 0b110u);
    f.update(st.data(), SharingBitmap(0b001)); // disjoint from 0b110
    EXPECT_TRUE(f.predict(st.data()).empty());
}

TEST(OverlapLast, StableHistoryBehavesLikeLast)
{
    OverlapLastFunction f;
    WindowFunction last(FunctionKind::Union, 1);
    auto sf = freshState(f), sl = freshState(last);
    for (int i = 0; i < 10; ++i) {
        f.update(sf.data(), SharingBitmap(0b0110));
        last.update(sl.data(), SharingBitmap(0b0110));
    }
    EXPECT_EQ(f.predict(sf.data()).raw(), last.predict(sl.data()).raw());
}

TEST(OverlapLast, NeverPredictsMoreThanLast)
{
    // Property: overlap-last's prediction is either the last bitmap
    // or empty — a filtered subset of last-prediction.
    OverlapLastFunction f;
    WindowFunction last(FunctionKind::Union, 1);
    auto sf = freshState(f), sl = freshState(last);
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        SharingBitmap fb(rng() & 0xffff);
        f.update(sf.data(), fb);
        last.update(sl.data(), fb);
        EXPECT_TRUE(
            f.predict(sf.data()).subsetOf(last.predict(sl.data())));
    }
}

TEST(OverlapLast, CostCountsTwoBitmaps)
{
    OverlapLastFunction f;
    EXPECT_EQ(f.entryBits(16), 32u);
}

TEST(OverlapLast, FactoryAndName)
{
    auto fn = makeFunction(FunctionKind::OverlapLast, 1, 16);
    EXPECT_EQ(fn->kind(), FunctionKind::OverlapLast);
    EXPECT_STREQ(predict::functionKindName(FunctionKind::OverlapLast),
                 "overlap-last");
}

} // namespace
