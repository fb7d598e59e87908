/**
 * @file
 * Tests for the data-forwarding overlay.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hh"
#include "forward/forwarding.hh"
#include "forward/selector.hh"

namespace {

using namespace ccp;
using forward::ForwardingParams;
using forward::ForwardingResult;
using forward::simulateForwarding;
using predict::FunctionKind;
using predict::IndexSpec;
using predict::SchemeSpec;
using predict::UpdateMode;
using trace::CoherenceEvent;
using trace::SharingTrace;

SharingTrace
producerConsumerTrace(unsigned events)
{
    SharingTrace tr("pc", 16);
    CoherenceEvent prev;
    bool seen = false;
    for (unsigned i = 0; i < events; ++i) {
        CoherenceEvent ev;
        ev.pid = 0;
        ev.pc = 0x400;
        ev.dir = 3;
        ev.block = 7;
        ev.readers = SharingBitmap(0b0110); // readers 1 and 2
        if (seen) {
            ev.invalidated = prev.readers;
            ev.prevWriterPid = prev.pid;
            ev.prevWriterPc = prev.pc;
            ev.hasPrevWriter = true;
        }
        seen = true;
        prev = ev;
        tr.append(ev);
    }
    return tr;
}

SchemeSpec
lastScheme()
{
    IndexSpec idx;
    idx.addrBits = 8;
    return SchemeSpec{idx, FunctionKind::Union, 1};
}

TEST(Forwarding, PerfectPatternForwardsUsefully)
{
    auto tr = producerConsumerTrace(100);
    ForwardingParams params;
    params.timelyFraction = 1.0;
    auto res = simulateForwarding(tr, lastScheme(), UpdateMode::Direct,
                                  params);
    EXPECT_EQ(res.events, 100u);
    // After the cold first event, both readers are forwarded to.
    EXPECT_EQ(res.forwardsSent, 198u);
    EXPECT_EQ(res.usefulForwards, 198u);
    EXPECT_EQ(res.wastedForwards, 0u);
    EXPECT_EQ(res.missedReaders, 2u); // the cold event
    EXPECT_EQ(res.missesAvoided, 198u);
    EXPECT_DOUBLE_EQ(res.pvp(), 1.0);
    EXPECT_NEAR(res.sensitivity(), 0.99, 0.001);
}

TEST(Forwarding, CyclesSavedUsePaperLatencyGap)
{
    auto tr = producerConsumerTrace(10);
    ForwardingParams params;
    params.timelyFraction = 1.0;
    auto res = simulateForwarding(tr, lastScheme(), UpdateMode::Direct,
                                  params);
    // Each avoided miss saves remote - local = 133 - 52 cycles.
    EXPECT_EQ(res.cyclesSaved, res.missesAvoided * 81);
}

TEST(Forwarding, LateForwardsSaveNothingButStillCost)
{
    auto tr = producerConsumerTrace(100);
    ForwardingParams params;
    params.timelyFraction = 0.0;
    auto res = simulateForwarding(tr, lastScheme(), UpdateMode::Direct,
                                  params);
    EXPECT_EQ(res.usefulForwards, 198u);
    EXPECT_EQ(res.missesAvoided, 0u);
    EXPECT_EQ(res.cyclesSaved, 0u);
    EXPECT_GT(res.forwardBytes, 0u);
}

TEST(Forwarding, NeverForwardsToTheWriter)
{
    // A pathological predictor state can predict the writer itself;
    // the overlay must drop that bit.  Train with a reader set that
    // includes a node which later becomes the writer.
    SharingTrace tr("w", 16);
    CoherenceEvent e1;
    e1.pid = 0;
    e1.pc = 0x400;
    e1.dir = 0;
    e1.block = 1;
    e1.readers = SharingBitmap(0b10); // node 1 reads
    tr.append(e1);
    CoherenceEvent e2;
    e2.pid = 1; // the old reader now writes
    e2.pc = 0x404;
    e2.dir = 0;
    e2.block = 1;
    e2.invalidated = e1.readers;
    e2.prevWriterPid = 0;
    e2.prevWriterPc = 0x400;
    e2.hasPrevWriter = true;
    tr.append(e2);

    auto res = simulateForwarding(tr, lastScheme(), UpdateMode::Direct);
    // The only trained prediction is {1}, but 1 is the writer of e2.
    EXPECT_EQ(res.forwardsSent, 0u);
}

TEST(Forwarding, WastedForwardsTrackFalsePositives)
{
    // Readers change every event: last-prediction always forwards to
    // yesterday's reader.
    SharingTrace tr("fp", 16);
    CoherenceEvent prev;
    bool seen = false;
    for (unsigned i = 0; i < 50; ++i) {
        CoherenceEvent ev;
        ev.pid = 0;
        ev.pc = 0x400;
        ev.dir = 3;
        ev.block = 7;
        ev.readers = SharingBitmap::single(1 + (i % 14));
        if (seen) {
            ev.invalidated = prev.readers;
            ev.prevWriterPid = prev.pid;
            ev.prevWriterPc = prev.pc;
            ev.hasPrevWriter = true;
        }
        seen = true;
        prev = ev;
        tr.append(ev);
    }
    auto res = simulateForwarding(tr, lastScheme(), UpdateMode::Direct);
    EXPECT_EQ(res.usefulForwards, 0u);
    EXPECT_EQ(res.wastedForwards, 49u);
    EXPECT_DOUBLE_EQ(res.pvp(), 0.0);
}

/**
 * A trace on which the overlay and the evaluator must agree: one
 * fixed writer per block, never among the readers, so the overlay's
 * writer-bit exclusion never fires; the pc varies per event.
 */
SharingTrace
agreementTrace()
{
    Rng rng(3);
    SharingTrace tr("agree", 16);
    std::unordered_map<Addr, CoherenceEvent> last;
    for (int i = 0; i < 2000; ++i) {
        CoherenceEvent ev;
        ev.block = rng.below(32);
        ev.pid = static_cast<NodeId>(ev.block % 16);
        ev.pc = 0x400 + 4 * rng.below(8);
        ev.dir = static_cast<NodeId>(rng.below(16));
        std::uint64_t readers = rng() & 0xffff;
        readers &= ~(1ull << ev.pid);
        ev.readers = SharingBitmap(readers);
        auto it = last.find(ev.block);
        if (it != last.end()) {
            ev.invalidated = it->second.readers;
            ev.prevWriterPid = it->second.pid;
            ev.prevWriterPc = it->second.pc;
            ev.hasPrevWriter = true;
        }
        last[ev.block] = ev;
        tr.append(ev);
    }
    return tr;
}

/** The overlay's pvp/sensitivity equal the evaluator's for @p sch in
 *  every update mode. */
void
expectAgreementInEveryMode(const SharingTrace &tr, const SchemeSpec &sch)
{
    for (UpdateMode mode : {UpdateMode::Direct, UpdateMode::Forwarded,
                            UpdateMode::Ordered}) {
        SCOPED_TRACE(predict::updateModeName(mode));
        auto conf = predict::evaluateTrace(tr, sch, mode);
        auto res = simulateForwarding(tr, sch, mode);

        EXPECT_EQ(res.usefulForwards, conf.tp);
        EXPECT_EQ(res.wastedForwards, conf.fp);
        EXPECT_EQ(res.missedReaders, conf.fn);
        EXPECT_DOUBLE_EQ(res.pvp(), conf.pvp());
        EXPECT_DOUBLE_EQ(res.sensitivity(), conf.sensitivity());
    }
}

TEST(Forwarding, MetricsAgreeWithEvaluator)
{
    // Address-only: all three modes coincide.
    IndexSpec idx;
    idx.addrBits = 5;
    expectAgreementInEveryMode(agreementTrace(),
                               SchemeSpec{idx, FunctionKind::Union, 2});
}

TEST(Forwarding, MetricsAgreeWithEvaluatorWhereModesDiffer)
{
    // pid+pc3: forwarded update trains the previous writer's pc, so
    // a mis-wired mode shows.  Keyed by pid, an entry still never
    // learns its own writer's bit, so the exclusion stays silent.
    IndexSpec idx;
    idx.usePid = true;
    idx.pcBits = 3;
    const SchemeSpec sch{idx, FunctionKind::Union, 2};
    const SharingTrace tr = agreementTrace();
    ASSERT_NE(predict::evaluateTrace(tr, sch, UpdateMode::Direct),
              predict::evaluateTrace(tr, sch, UpdateMode::Forwarded));
    expectAgreementInEveryMode(tr, sch);
}

TEST(Forwarding, TrafficScalesWithForwards)
{
    auto tr = producerConsumerTrace(100);
    auto res = simulateForwarding(tr, lastScheme(), UpdateMode::Direct);
    EXPECT_EQ(res.forwardBytes, res.forwardsSent * 72u);
    EXPECT_GT(res.forwardByteHops, 0u);
}

TEST(Forwarding, DeterministicForSeed)
{
    auto tr = producerConsumerTrace(200);
    ForwardingParams params;
    params.timelyFraction = 0.5;
    auto a = simulateForwarding(tr, lastScheme(), UpdateMode::Direct,
                                params, 42);
    auto b = simulateForwarding(tr, lastScheme(), UpdateMode::Direct,
                                params, 42);
    EXPECT_EQ(a.missesAvoided, b.missesAvoided);
    EXPECT_EQ(a.cyclesSaved, b.cyclesSaved);
}

} // namespace

namespace {

using forward::selectScheme;
using forward::SelectionConstraints;

std::vector<SharingTrace>
selectionSuite()
{
    // One trace with a stable two-reader pattern (cheap, accurate)
    // plus unpredictable churn that only an aggressive scheme can
    // partially catch.
    Rng rng(8);
    SharingTrace tr("sel", 16);
    std::unordered_map<Addr, CoherenceEvent> last;
    for (int i = 0; i < 4000; ++i) {
        CoherenceEvent ev;
        ev.block = rng.below(64);
        ev.pid = static_cast<NodeId>(ev.block % 4);
        ev.pc = 0x400;
        ev.dir = static_cast<NodeId>(ev.block % 16);
        if (ev.block < 32) {
            ev.readers = SharingBitmap(0b110000); // stable {4,5}
        } else {
            std::uint64_t readers = rng() & 0xffff;
            readers &= ~(1ull << ev.pid);
            ev.readers = SharingBitmap(readers);
        }
        auto it = last.find(ev.block);
        if (it != last.end()) {
            ev.invalidated = it->second.readers.minus(
                SharingBitmap::single(ev.pid));
            ev.prevWriterPid = it->second.pid;
            ev.prevWriterPc = it->second.pc;
            ev.hasPrevWriter = true;
        }
        last[ev.block] = ev;
        tr.append(ev);
    }
    std::vector<SharingTrace> suite;
    suite.push_back(std::move(tr));
    return suite;
}

std::vector<predict::SchemeSpec>
selectionCandidates()
{
    IndexSpec addr8;
    addr8.addrBits = 8;
    return {
        predict::SchemeSpec{addr8, predict::FunctionKind::Inter, 4},
        predict::SchemeSpec{addr8, predict::FunctionKind::Union, 1},
        predict::SchemeSpec{addr8, predict::FunctionKind::Union, 4},
    };
}

TEST(Selector, UnlimitedBudgetPicksTheMostSavingScheme)
{
    auto suite = selectionSuite();
    auto res = selectScheme(suite, selectionCandidates(),
                            SelectionConstraints{});
    ASSERT_TRUE(res.best.has_value());
    // Deep union saves the most cycles when traffic is free.
    EXPECT_EQ(res.candidates[*res.best].scheme.kind,
              predict::FunctionKind::Union);
    EXPECT_EQ(res.candidates[*res.best].scheme.depth, 4u);
    // Every candidate was scored.
    EXPECT_EQ(res.candidates.size(), 3u);
    for (const auto &c : res.candidates)
        EXPECT_TRUE(c.withinBudget);
}

TEST(Selector, TightBudgetPicksTheSureBets)
{
    auto suite = selectionSuite();
    auto candidates = selectionCandidates();

    SelectionConstraints loose;
    auto all = selectScheme(suite, candidates, loose);
    // Find intersection's traffic level; budget just above it.
    double inter_traffic = 0;
    for (const auto &c : all.candidates)
        if (c.scheme.kind == predict::FunctionKind::Inter)
            inter_traffic = c.byteHopsPerEvent;
    ASSERT_GT(inter_traffic, 0.0);

    SelectionConstraints tight;
    tight.maxByteHopsPerEvent = inter_traffic * 1.01;
    auto res = selectScheme(suite, candidates, tight);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_EQ(res.candidates[*res.best].scheme.kind,
              predict::FunctionKind::Inter);
}

TEST(Selector, ImpossibleBudgetSelectsNothing)
{
    auto suite = selectionSuite();
    SelectionConstraints none;
    none.maxByteHopsPerEvent = 0.0;
    auto res = selectScheme(suite, selectionCandidates(), none);
    EXPECT_FALSE(res.best.has_value());
    for (const auto &c : res.candidates)
        EXPECT_FALSE(c.withinBudget);
}

TEST(Selector, SizeCapExcludesBigTables)
{
    auto suite = selectionSuite();
    auto candidates = selectionCandidates();
    SelectionConstraints capped;
    // union(add8)1 = 2^12 bits; the depth-4 schemes are 2^14.
    capped.maxSizeBits = 1ull << 12;
    auto res = selectScheme(suite, candidates, capped);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_EQ(res.candidates[*res.best].scheme.depth, 1u);
}

} // namespace
