/**
 * @file
 * Property tests for the hashed-perceptron sharing predictor: weight
 * saturation never escapes the architected clamp bounds under
 * adversarial update sequences, training is deterministic across
 * thread counts, and the Bloom negative filter suppresses dead
 * sharers, self-ages, and keeps its observed false-positive rate
 * under the analytic bound on synthetic traces.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "predict/function.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/search.hh"
#include "sweep/space.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using predict::FunctionKind;
using predict::makeFunction;
using predict::PerceptronFunction;
using predict::PerceptronParams;
using predict::SchemeSpec;
using predict::UpdateMode;

std::vector<std::uint64_t>
freshState(const PerceptronFunction &fn)
{
    return std::vector<std::uint64_t>(fn.entryWords(), 0);
}

PerceptronParams
params(unsigned weight_bits, unsigned theta, unsigned bloom_bits = 0)
{
    PerceptronParams p;
    p.weightBits = weight_bits;
    p.theta = theta;
    p.bloomBits = bloom_bits;
    return p;
}

// ---------------------------------------------------------------------
// Prediction semantics

TEST(Perceptron, ColdEntryAbstains)
{
    // theta >= 1 guarantees the all-zero entry predicts nothing —
    // appropriate given the low prevalence of sharing.
    for (unsigned theta : {1u, 2u, 8u}) {
        PerceptronFunction fn(2, 16, params(5, theta));
        auto st = freshState(fn);
        EXPECT_TRUE(fn.predict(st.data()).empty()) << "theta " << theta;
    }
}

TEST(Perceptron, LearnsStablePattern)
{
    PerceptronFunction fn(2, 16, params(5, 2));
    auto st = freshState(fn);
    for (int k = 0; k < 20; ++k)
        fn.update(st.data(), SharingBitmap(0b0101));
    EXPECT_EQ(fn.predict(st.data()).raw(), 0b0101u);
}

TEST(Perceptron, TwoObservationsClearUnitThreshold)
{
    // Worked example at depth 1, theta 1: from cold, update #1 trains
    // the bias to +1 (history bit still 0, so w1 moves to -1); update
    // #2 sees history 1 and trains both to (+2, 0); the dot is then
    // w0 + w1 = 2 >= 1.
    PerceptronFunction fn(1, 4, params(5, 1));
    auto st = freshState(fn);
    fn.update(st.data(), SharingBitmap(0b0100));
    EXPECT_FALSE(fn.predict(st.data()).test(2));
    fn.update(st.data(), SharingBitmap(0b0100));
    EXPECT_TRUE(fn.predict(st.data()).test(2));
    EXPECT_EQ(fn.dot(st.data(), 2), 2);
}

TEST(Perceptron, NodesAreIndependent)
{
    PerceptronFunction fn(2, 16, params(5, 2));
    auto st = freshState(fn);
    for (int k = 0; k < 10; ++k)
        fn.update(st.data(), SharingBitmap(1ull << 7));
    SharingBitmap pred = fn.predict(st.data());
    EXPECT_TRUE(pred.test(7));
    EXPECT_EQ(pred.popcount(), 1u);
}

TEST(Perceptron, PredictMatchesDotAndSuppression)
{
    // The emitted bitmap is exactly the per-node decision the public
    // accessors describe: dot >= theta and not Bloom-suppressed.
    PerceptronFunction fn(3, 16, params(5, 2, 16));
    auto st = freshState(fn);
    Rng rng(19);
    for (int k = 0; k < 300; ++k) {
        fn.update(st.data(), SharingBitmap(rng() & 0xffff));
        SharingBitmap pred = fn.predict(st.data());
        for (unsigned n = 0; n < 16; ++n) {
            const bool want = fn.dot(st.data(), n) >= 2 &&
                              !fn.bloomSuppressed(st.data(), n);
            EXPECT_EQ(pred.test(n), want) << "node " << n;
        }
    }
}

TEST(Perceptron, DeepStateLayoutIsSound)
{
    // 64 nodes at depth 5: every history plane fills a whole word;
    // the weight rows and Bloom word follow and must not alias them.
    PerceptronFunction fn(5, 64, params(5, 2, 32));
    auto st = freshState(fn);
    Rng rng(3);
    for (int k = 0; k < 200; ++k)
        fn.update(st.data(), SharingBitmap(rng()));
    for (int k = 0; k < 20; ++k)
        fn.update(st.data(), SharingBitmap(1ull << 63));
    EXPECT_TRUE(fn.predict(st.data()).test(63));
}

TEST(Perceptron, ThetaMonotonicityOnFixedState)
{
    // theta changes the decision, never the state layout: on any
    // fixed trained entry, a higher threshold predicts a subset.
    PerceptronFunction trainer(3, 16, params(5, 1));
    PerceptronFunction strict(3, 16, params(5, 3));
    auto st = freshState(trainer);
    Rng rng(29);
    for (int k = 0; k < 400; ++k) {
        trainer.update(st.data(), SharingBitmap(rng() & 0xffff));
        EXPECT_TRUE(strict.predict(st.data())
                        .subsetOf(trainer.predict(st.data())));
    }
}

// ---------------------------------------------------------------------
// Saturating weight arithmetic

/** Every weight of every node of an entry, through the public
 *  accessor (the layout is the function's business). */
std::vector<int>
allWeights(const PerceptronFunction &fn,
           const std::vector<std::uint64_t> &st, unsigned n_nodes)
{
    std::vector<int> out;
    for (unsigned n = 0; n < n_nodes; ++n)
        for (unsigned i = 0; i <= fn.depth(); ++i)
            out.push_back(fn.weight(st.data(), n, i));
    return out;
}

TEST(Perceptron, WeightsNeverEscapeClampBounds)
{
    // Adversarial sequences at several architected widths: solid
    // trains, phase-flips, random noise.  Every weight lane must stay
    // inside [weightMin, weightMax] after every single update.
    for (unsigned wb : {2u, 3u, 5u, 8u}) {
        const unsigned depth = 4, nodes = 16;
        PerceptronFunction fn(depth, nodes, params(wb, 1));
        auto st = freshState(fn);
        Rng rng(1000 + wb);
        for (int k = 0; k < 600; ++k) {
            std::uint64_t fb;
            switch (k % 4) {
              case 0: fb = 0xffff; break;           // saturate up
              case 1: fb = 0; break;                // saturate down
              case 2: fb = 0xaaaa; break;           // phase flip
              default: fb = rng() & 0xffff; break;  // noise
            }
            fn.update(st.data(), SharingBitmap(fb));
            for (int w : allWeights(fn, st, nodes)) {
                ASSERT_GE(w, fn.weightMin()) << "width " << wb;
                ASSERT_LE(w, fn.weightMax()) << "width " << wb;
            }
        }
    }
}

TEST(Perceptron, DotStaysWithinArchitectedBound)
{
    // |dot| <= (depth + 1) * 2^(wb-1) on any reachable state.
    const unsigned depth = 3, wb = 4;
    PerceptronFunction fn(depth, 8, params(wb, 1));
    auto st = freshState(fn);
    const int bound = int(depth + 1) * (1 << (wb - 1));
    Rng rng(55);
    for (int k = 0; k < 500; ++k) {
        fn.update(st.data(), SharingBitmap(rng() & 0xff));
        for (unsigned n = 0; n < 8; ++n) {
            EXPECT_LE(fn.dot(st.data(), n), bound);
            EXPECT_GE(fn.dot(st.data(), n), -bound);
        }
    }
}

TEST(Perceptron, SaturationNoWrap)
{
    // Identical feedback reaches a fixed point: margin training stops
    // once the dot clears theta, so a hundred further trains leave the
    // state exactly where ten did — a wrapped counter would drift or
    // cycle instead.
    PerceptronFunction fn(1, 2, params(3, 1));
    auto st = freshState(fn);
    for (int k = 0; k < 10; ++k)
        fn.update(st.data(), SharingBitmap(0b01));
    EXPECT_TRUE(fn.predict(st.data()).test(0));
    const int settled = fn.dot(st.data(), 0);
    EXPECT_GE(settled, 1);
    for (int k = 0; k < 100; ++k)
        fn.update(st.data(), SharingBitmap(0b01));
    EXPECT_EQ(fn.dot(st.data(), 0), settled);
    EXPECT_TRUE(fn.predict(st.data()).test(0));
    // One contrary observation dents the margin but two reads restore
    // it; sustained contrary evidence does flip the decision.
    fn.update(st.data(), SharingBitmap(0b00));
    fn.update(st.data(), SharingBitmap(0b01));
    fn.update(st.data(), SharingBitmap(0b01));
    EXPECT_TRUE(fn.predict(st.data()).test(0));
    for (int k = 0; k < 8; ++k)
        fn.update(st.data(), SharingBitmap(0b00));
    EXPECT_FALSE(fn.predict(st.data()).test(0));
}

// ---------------------------------------------------------------------
// Cost accounting

TEST(Perceptron, EntryBitsFollowCostModel)
{
    // N * (depth + (depth+1) * weightBits) + (bloom ? bloom + 8 : 0).
    EXPECT_EQ(PerceptronFunction(2, 16, params(5, 2)).entryBits(16),
              16u * (2 + 3 * 5));
    EXPECT_EQ(PerceptronFunction(2, 16, params(5, 2, 16)).entryBits(16),
              16u * (2 + 3 * 5) + 16 + 8);
    EXPECT_EQ(PerceptronFunction(4, 32, params(8, 1)).entryBits(32),
              32u * (4 + 5 * 8));
}

TEST(Perceptron, StateWordsAccountForEveryLane)
{
    // History planes bit_ceil(nodes) bits apart + (depth + 1) rows
    // of int8 lanes, 8 to a word (+ one Bloom word when enabled).
    auto words = [](unsigned depth, unsigned nodes, unsigned bloom) {
        std::size_t width = std::bit_ceil(nodes);
        std::size_t hw = (width * depth + 63) / 64;
        std::size_t ww = (std::size_t(nodes) + 7) / 8 * (depth + 1);
        return hw + ww + (bloom ? 1 : 0);
    };
    EXPECT_EQ(PerceptronFunction(2, 16, params(5, 2)).entryWords(),
              words(2, 16, 0));
    EXPECT_EQ(PerceptronFunction(2, 16, params(5, 2, 16)).entryWords(),
              words(2, 16, 16));
    EXPECT_EQ(PerceptronFunction(8, 64, params(5, 2, 32)).entryWords(),
              words(8, 64, 32));
    EXPECT_EQ(PerceptronFunction(3, 6, params(5, 2, 8)).entryWords(),
              words(3, 6, 8));
    EXPECT_EQ(PerceptronFunction(2, 4, params(5, 2)).entryWords(),
              words(2, 4, 0));
}

// ---------------------------------------------------------------------
// Bloom negative filter

/** Bring every node in @p dead to a confident raw prediction (two
 *  solid trains from the given state), then one empty feedback turns
 *  each of them into a would-be false positive: all are inserted into
 *  the Bloom filter within a single aging generation. */
void
insertDeadSet(const PerceptronFunction &fn, std::uint64_t *state,
              const std::set<unsigned> &dead)
{
    std::uint64_t bits = 0;
    for (unsigned n : dead)
        bits |= 1ull << n;
    fn.update(state, SharingBitmap(bits));
    fn.update(state, SharingBitmap(bits));
    fn.update(state, SharingBitmap(0));
}

TEST(Perceptron, BloomSuppressesDeadSharer)
{
    PerceptronFunction fn(1, 16, params(5, 1, 16));
    auto st = freshState(fn);
    insertDeadSet(fn, st.data(), {2});
    // The raw perceptron still clears theta — only the filter keeps
    // the dead reader out of the emitted bitmap.
    EXPECT_GE(fn.dot(st.data(), 2), 1);
    EXPECT_TRUE(fn.bloomSuppressed(st.data(), 2));
    EXPECT_FALSE(fn.predict(st.data()).test(2));
}

TEST(Perceptron, BloomDisabledNeverSuppresses)
{
    PerceptronFunction fn(1, 16, params(5, 1, 0));
    auto st = freshState(fn);
    insertDeadSet(fn, st.data(), {2});
    EXPECT_EQ(fn.bloomCapacity(), 0u);
    EXPECT_EQ(fn.bloomFprBound(), 0.0);
    for (unsigned n = 0; n < 16; ++n)
        EXPECT_FALSE(fn.bloomSuppressed(st.data(), n));
    EXPECT_TRUE(fn.predict(st.data()).test(2));
}

TEST(Perceptron, BloomSelfAges)
{
    // bloomBits 16 -> capacity 4.  Five dead readers inserted in one
    // update overflow the generation: the insert that exceeds
    // capacity clears the filter first, so the earlier four come back
    // while the last one is freshly suppressed.
    PerceptronFunction fn(1, 16, params(5, 1, 16));
    ASSERT_EQ(fn.bloomCapacity(), 4u);
    auto st = freshState(fn);
    insertDeadSet(fn, st.data(), {1, 2, 3, 4, 9});
    EXPECT_TRUE(fn.bloomSuppressed(st.data(), 9));
    for (unsigned n : {1u, 2u, 3u, 4u})
        EXPECT_FALSE(fn.bloomSuppressed(st.data(), n)) << "node " << n;
}

TEST(Perceptron, BloomNoFalseNegatives)
{
    // Every member of a within-capacity dead set is suppressed.
    PerceptronFunction fn(1, 64, params(5, 1, 32));
    ASSERT_EQ(fn.bloomCapacity(), 8u);
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        std::set<unsigned> dead;
        while (dead.size() < 8)
            dead.insert(unsigned(rng.below(64)));
        auto st = freshState(fn);
        insertDeadSet(fn, st.data(), dead);
        for (unsigned n : dead)
            EXPECT_TRUE(fn.bloomSuppressed(st.data(), n))
                << "trial " << trial << " node " << n;
    }
}

TEST(Perceptron, BloomObservedFprUnderBound)
{
    // Fill the filter to capacity with random dead sets and measure
    // how often a non-member is falsely suppressed.  The self-aging
    // cap bounds the analytic rate at (1 - e^(-2*cap/m))^2; the
    // observed mean over many synthetic trials must stay under it
    // (with slack for the finite-trial estimate and the fixed
    // per-node hash masks).
    PerceptronFunction fn(1, 64, params(5, 1, 32));
    const double bound = fn.bloomFprBound();
    ASSERT_GT(bound, 0.0);
    ASSERT_LT(bound, 0.2);

    Rng rng(4242);
    std::uint64_t false_pos = 0, probes = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::set<unsigned> dead;
        while (dead.size() < fn.bloomCapacity())
            dead.insert(unsigned(rng.below(64)));
        auto st = freshState(fn);
        insertDeadSet(fn, st.data(), dead);
        for (unsigned n = 0; n < 64; ++n) {
            if (dead.count(n))
                continue;
            ++probes;
            false_pos += fn.bloomSuppressed(st.data(), n);
        }
    }
    const double observed = double(false_pos) / double(probes);
    EXPECT_LE(observed, bound * 1.25)
        << "observed " << observed << " vs bound " << bound;
}

TEST(Perceptron, BloomFprBoundIsScaleFree)
{
    // The self-aging cap is a fixed quarter of the filter size, so
    // the analytic bound (1 - e^(-2*cap/m))^2 is the same at every m:
    // sizing the filter buys insert capacity, not a worse (or better)
    // false-positive rate.  Pin the value so a policy change shows up.
    const double expect = 0.15481812174617549; // (1 - e^-0.5)^2
    for (unsigned m : {4u, 8u, 16u, 32u}) {
        double b = PerceptronFunction(1, 16, params(5, 1, m))
                       .bloomFprBound();
        EXPECT_NEAR(b, expect, 1e-12) << "m " << m;
        EXPECT_EQ(PerceptronFunction(1, 16, params(5, 1, m))
                      .bloomCapacity(),
                  m / 4);
    }
}

// ---------------------------------------------------------------------
// Determinism across thread counts

trace::SharingTrace
noisyTrace(const char *name, std::uint64_t seed)
{
    trace::SharingTrace tr(name, 16);
    trace::CoherenceEvent prev_by_block[32];
    bool seen[32] = {};
    Rng rng(seed);
    for (int i = 0; i < 1200; ++i) {
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

TEST(Perceptron, TrainingDeterministicAcrossThreadCounts)
{
    // Perceptron training is a pure fold over the trace: the sweep
    // must produce bit-identical confusion counts at any thread
    // count, hashed index and Bloom filter included.
    std::vector<trace::SharingTrace> suite;
    suite.push_back(noisyTrace("alpha", 101));
    suite.push_back(noisyTrace("beta", 202));

    sweep::SpaceSpec spec;
    spec.maxBits = std::uint64_t(1) << 14;
    spec.pcBitsGrid = {0, 4};
    spec.addrBitsGrid = {0, 4};
    spec.windowDepths = {};
    spec.pasDepths = {};
    spec.percDepths = {1, 2};
    spec.percWeightBits = {5};
    spec.percThetas = {1, 2};
    spec.percBloomBits = {0, 16};
    auto schemes = enumerateSchemes(spec);
    ASSERT_GE(schemes.size(), 8u);
    for (const auto &s : schemes)
        ASSERT_EQ(s.kind, FunctionKind::Perceptron);

    auto sequential =
        sweep::evaluateSchemes(suite, schemes, UpdateMode::Direct, 1);
    for (unsigned threads : {2u, 8u}) {
        auto parallel = sweep::evaluateSchemes(suite, schemes,
                                               UpdateMode::Direct,
                                               threads);
        ASSERT_EQ(parallel.size(), sequential.size());
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            const std::string what = sweep::formatScheme(schemes[i]) +
                                     " @" + std::to_string(threads);
            EXPECT_EQ(parallel[i].pooled.tp, sequential[i].pooled.tp)
                << what;
            EXPECT_EQ(parallel[i].pooled.fp, sequential[i].pooled.fp)
                << what;
            EXPECT_EQ(parallel[i].pooled.tn, sequential[i].pooled.tn)
                << what;
            EXPECT_EQ(parallel[i].pooled.fn, sequential[i].pooled.fn)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Factory and naming

TEST(Perceptron, FactoryDispatchAndKindName)
{
    PerceptronParams p = params(6, 3, 8);
    auto fn = makeFunction(FunctionKind::Perceptron, 2, 16, p);
    EXPECT_EQ(fn->kind(), FunctionKind::Perceptron);
    EXPECT_EQ(fn->depth(), 2u);
    EXPECT_EQ(fn->name(), "perceptron");
    EXPECT_STREQ(predict::functionKindName(FunctionKind::Perceptron),
                 "perceptron");
    auto *perc = dynamic_cast<predict::PerceptronFunction *>(fn.get());
    ASSERT_NE(perc, nullptr);
    EXPECT_EQ(perc->params(), p);
    EXPECT_EQ(perc->weightMax(), 31);
    EXPECT_EQ(perc->weightMin(), -32);
}

} // namespace
