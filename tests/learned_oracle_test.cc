/**
 * @file
 * Oracle test for the learned families' bit-plane state.
 *
 * PAsFunction and PerceptronFunction keep their per-node state as
 * node-width bit-planes and lane-parallel weight rows, and every
 * consumer (reference evaluator, serve sessions, batched sweep) runs
 * those same ops — so the differential tests compare two paths that
 * share them.  This file checks the plane ops against the families'
 * scalar per-node definitions (scalar_models.hh) after every update:
 * predictions, every PAs counter, every perceptron weight and dot
 * product, and the Bloom filter's suppression decisions, over machine
 * sizes that leave planes and weight rows partly padded.  After every
 * step it also holds the fused ops to their definitions
 * (updatePredict == update; predict, learnPredict == learn;
 * rawPredict), and it runs the perceptron in both lane widths, on
 * both sides of the byte-lane bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "predict/function.hh"
#include "scalar_models.hh"

namespace {

using namespace ccp;
using predict::PAsFunction;
using predict::PerceptronFunction;
using predict::PerceptronParams;
using scalar::ScalarPAs;
using scalar::ScalarPerceptron;

const unsigned kNodeCounts[] = {1, 4, 6, 16, 33, 64};

std::uint64_t
nodeMask(unsigned n_nodes)
{
    return n_nodes == 64 ? ~std::uint64_t(0)
                         : (std::uint64_t(1) << n_nodes) - 1;
}

/** Feedback that drives both families through every regime: solid
 *  trains up and down, a fixed per-node period, sparse and dense
 *  noise. */
std::uint64_t
nextFeedback(Rng &rng, unsigned step, std::uint64_t period_pattern,
             std::uint64_t mask)
{
    switch (rng.below(6)) {
      case 0:
        return mask;
      case 1:
        return 0;
      case 2:
        return (step & 1 ? period_pattern : ~period_pattern) & mask;
      case 3:
        return rng() & rng() & mask;
      case 4:
        return (rng() | rng()) & mask;
      default:
        return rng() & mask;
    }
}

TEST(LearnedOracle, PAsPlanesMatchScalarModel)
{
    for (unsigned nodes : kNodeCounts) {
        for (unsigned depth = 1; depth <= 8; ++depth) {
            SCOPED_TRACE(testing::Message()
                         << nodes << " nodes, depth " << depth);
            PAsFunction fn(depth, nodes);
            ScalarPAs model(depth, nodes);
            std::vector<std::uint64_t> st(fn.entryWords(), 0);
            Rng rng(nodes * 131 + depth);
            const std::uint64_t mask = nodeMask(nodes);
            const std::uint64_t period = rng();
            for (unsigned k = 0; k < 300; ++k) {
                const std::uint64_t fb =
                    nextFeedback(rng, k, period, mask);
                std::vector<std::uint64_t> fused = st;
                fn.update(st.data(), SharingBitmap(fb));
                model.update(fb);
                ASSERT_EQ(fn.predict(st.data()).raw(), model.predict())
                    << "after update " << k;
                // updatePredict == update; predict, state included.
                ASSERT_EQ(fn.updatePredict(fused.data(), SharingBitmap(fb))
                              .raw(),
                          model.predict())
                    << "fused, after update " << k;
                ASSERT_EQ(fused, st) << "fused, after update " << k;
                ASSERT_TRUE(fn.validEntry(st.data()));
                if (k % 25 != 24)
                    continue;
                for (unsigned n = 0; n < nodes; ++n)
                    for (unsigned p = 0; p < (1u << depth); ++p)
                        ASSERT_EQ(fn.counter(st.data(), n, p),
                                  model.counter(n, p))
                            << "node " << n << " pattern " << p
                            << " after update " << k;
            }
        }
    }
}

TEST(LearnedOracle, PerceptronLanesMatchScalarModel)
{
    for (unsigned nodes : kNodeCounts) {
        for (unsigned depth = 1; depth <= 8; ++depth) {
            for (unsigned wb = 2; wb <= 8; ++wb) {
                for (unsigned theta : {1u, 2u, 127u}) {
                    for (unsigned bloom : {0u, 4u, 16u, 32u}) {
                        SCOPED_TRACE(testing::Message()
                                     << nodes << " nodes, depth " << depth
                                     << " w" << wb << " t" << theta
                                     << " b" << bloom);
                        PerceptronParams p;
                        p.weightBits = wb;
                        p.theta = theta;
                        p.bloomBits = bloom;
                        PerceptronFunction fn(depth, nodes, p);
                        ScalarPerceptron model(depth, nodes, p);
                        std::vector<std::uint64_t> st(fn.entryWords(), 0);
                        Rng rng(((nodes * 17 + depth) * 13 + wb) * 7 +
                                theta + bloom);
                        const std::uint64_t mask = nodeMask(nodes);
                        const std::uint64_t period = rng();
                        for (unsigned k = 0; k < 60; ++k) {
                            const std::uint64_t fb =
                                nextFeedback(rng, k, period, mask);
                            std::vector<std::uint64_t> learned = st;
                            std::vector<std::uint64_t> fused = st;
                            const std::uint64_t seen =
                                fn.learn(learned.data(), fb);
                            fn.update(st.data(), SharingBitmap(fb));
                            model.update(fb);
                            ASSERT_EQ(fn.predict(st.data()).raw(),
                                      model.predict())
                                << "after update " << k;
                            // learnPredict == learn; rawPredict, and
                            // learn is update without the Bloom word.
                            const PerceptronFunction::Decisions d =
                                fn.learnPredict(fused.data(), fb);
                            ASSERT_EQ(d.seen, seen) << "after update " << k;
                            ASSERT_EQ(d.next, fn.rawPredict(learned.data()))
                                << "after update " << k;
                            ASSERT_EQ(fused, learned)
                                << "after update " << k;
                            ASSERT_TRUE(std::equal(
                                st.begin(),
                                st.begin() + fn.learnedWords(),
                                learned.begin()));
                            ASSERT_TRUE(fn.validEntry(st.data()));
                            for (unsigned n = 0; n < nodes; ++n) {
                                ASSERT_EQ(fn.dot(st.data(), n),
                                          model.dot(n))
                                    << "node " << n << " after update "
                                    << k;
                                ASSERT_EQ(fn.bloomSuppressed(st.data(), n),
                                          model.suppressed(n))
                                    << "node " << n << " after update "
                                    << k;
                                for (unsigned i = 0; i <= depth; ++i)
                                    ASSERT_EQ(fn.weight(st.data(), n, i),
                                              model.weight(n, i))
                                        << "node " << n << " weight " << i
                                        << " after update " << k;
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Whether the perceptron dots of (depth, weight width, theta) fit a
 *  byte lane, restated: B (depth + 1) + theta + 1 <= 128. */
bool
fitsByteLanes(unsigned depth, unsigned wb, unsigned theta)
{
    return (1u << (wb - 1)) * (depth + 1) + theta + 1 <= 128;
}

TEST(LearnedOracle, PerceptronGridRunsBothLaneWidths)
{
    // The oracle grid above meets both widths, and the width follows
    // (depth, weightBits, theta) alone.
    unsigned byte = 0, wide = 0;
    for (unsigned depth = 1; depth <= 8; ++depth)
        for (unsigned wb = 2; wb <= 8; ++wb)
            for (unsigned theta : {1u, 2u, 127u}) {
                PerceptronParams p;
                p.weightBits = wb;
                p.theta = theta;
                const bool b = PerceptronFunction(depth, 16, p).byteLanes();
                EXPECT_EQ(b, fitsByteLanes(depth, wb, theta))
                    << "depth " << depth << " w" << wb << " t" << theta;
                ++(b ? byte : wide);
            }
    EXPECT_GT(byte, 0u);
    EXPECT_GT(wide, 0u);

    // The paper grid (w5 t2, depth 2 and 4) runs in byte lanes; the
    // sweep gate's w6 d4 and w8 d2 schemes do not.
    const auto lanes = [](unsigned depth, unsigned wb, unsigned theta) {
        PerceptronParams p;
        p.weightBits = wb;
        p.theta = theta;
        return PerceptronFunction(depth, 16, p).byteLanes();
    };
    EXPECT_TRUE(lanes(2, 5, 2));
    EXPECT_TRUE(lanes(4, 5, 2));
    EXPECT_TRUE(lanes(8, 4, 2));
    EXPECT_FALSE(lanes(4, 6, 4));
    EXPECT_FALSE(lanes(2, 8, 6));
    EXPECT_FALSE(lanes(8, 5, 2));
}

TEST(LearnedOracle, PerceptronLaneBoundaryMatchesScalarModel)
{
    // Each pair sits on the two sides of the byte-lane bound, where
    // the byte sums and the threshold offsets use their full range.
    struct Side
    {
        unsigned depth, wb, theta;
        bool byte;
    };
    const Side sides[] = {
        {2, 6, 31, true},  {2, 6, 32, false}, {4, 5, 47, true},
        {4, 5, 48, false}, {8, 4, 55, true},  {8, 4, 56, false},
        {1, 6, 63, true},  {1, 6, 64, false}, {8, 2, 109, true},
        {8, 2, 110, false}, {3, 5, 63, true}, {3, 5, 64, false},
    };
    for (const Side &side : sides) {
        for (unsigned nodes : {6u, 16u}) {
            SCOPED_TRACE(testing::Message()
                         << nodes << " nodes, depth " << side.depth
                         << " w" << side.wb << " t" << side.theta);
            PerceptronParams p;
            p.weightBits = side.wb;
            p.theta = side.theta;
            p.bloomBits = 8;
            PerceptronFunction fn(side.depth, nodes, p);
            ASSERT_EQ(fn.byteLanes(), side.byte);
            ScalarPerceptron model(side.depth, nodes, p);
            std::vector<std::uint64_t> st(fn.entryWords(), 0);
            Rng rng(side.depth * 1000 + side.wb * 100 + side.theta + nodes);
            const std::uint64_t mask = nodeMask(nodes);
            // Long solid runs drive every weight to its clamps, where
            // the dots reach the ends of their range; short random
            // stretches move the histories between them.
            for (unsigned k = 0; k < 600; ++k) {
                const unsigned phase = (k / 40) % 4;
                const std::uint64_t fb =
                    phase == 0   ? mask
                    : phase == 2 ? 0
                                 : rng() & mask;
                std::vector<std::uint64_t> fused = st;
                const PerceptronFunction::Decisions d =
                    fn.learnPredict(fused.data(), fb);
                fn.update(st.data(), SharingBitmap(fb));
                model.update(fb);
                ASSERT_EQ(fn.predict(st.data()).raw(), model.predict())
                    << "after update " << k;
                ASSERT_EQ(d.next, fn.rawPredict(st.data()))
                    << "after update " << k;
                for (unsigned n = 0; n < nodes; ++n) {
                    ASSERT_EQ(fn.dot(st.data(), n), model.dot(n))
                        << "node " << n << " after update " << k;
                    for (unsigned i = 0; i <= side.depth; ++i)
                        ASSERT_EQ(fn.weight(st.data(), n, i),
                                  model.weight(n, i))
                            << "node " << n << " weight " << i
                            << " after update " << k;
                }
            }
        }
    }
}

/**
 * Write node @p n's history register @p hist and weights @p w (bias
 * first) into @p st, in the layout PerceptronFunction documents:
 * history planes, then weight-index-major int8 rows.
 */
void
setPerceptronNode(std::vector<std::uint64_t> &st, unsigned nodes,
                  unsigned depth, unsigned n, unsigned hist,
                  const std::vector<int> &w)
{
    const predict::NodePlanes planes(nodes);
    for (unsigned i = 0; i < depth; ++i) {
        const std::uint64_t bit = std::uint64_t(1) << n;
        std::uint64_t plane = planes.get(st.data(), i) & ~bit;
        planes.set(st.data(), i, plane | ((hist >> i) & 1u ? bit : 0));
    }
    const std::size_t rows = planes.words(depth);
    const std::size_t row_words = (nodes + 7) / 8;
    for (unsigned i = 0; i <= depth; ++i) {
        std::uint64_t &word = st[rows + i * row_words + n / 8];
        const unsigned shift = 8 * (n % 8);
        word = (word & ~(std::uint64_t(0xff) << shift)) |
               std::uint64_t(std::uint8_t(w[i])) << shift;
    }
}

TEST(LearnedOracle, PerceptronExtremeStatesMatchDotDefinition)
{
    // Training alone stops short of the weight clamps (it quits once
    // a node clears the margin), so the lane sums' ends are set up
    // directly: nodes whose sum is the lane's lowest (every weight at
    // its minimum, every history bit set) or highest (bias at its
    // maximum, the rest at their minimum, no history bit set) sit
    // next to nodes of clamp-adjacent weights, so any carry or borrow
    // between lanes lands on a neighbour.  The decision, the trainer
    // and the fused step must follow the dot product as dot() reads
    // it from the same words.
    struct Scheme
    {
        unsigned depth, wb, theta;
    };
    const Scheme schemes[] = {{2, 6, 31}, {2, 6, 32}, {4, 5, 47},
                              {4, 5, 48}, {1, 6, 63}, {1, 6, 64},
                              {8, 4, 55}, {8, 4, 56}, {2, 5, 2},
                              {2, 8, 6},  {4, 6, 4},  {8, 2, 1}};
    constexpr unsigned nodes = 16;
    for (const Scheme &sc : schemes) {
        SCOPED_TRACE(testing::Message() << "depth " << sc.depth << " w"
                                        << sc.wb << " t" << sc.theta);
        PerceptronParams p;
        p.weightBits = sc.wb;
        p.theta = sc.theta;
        PerceptronFunction fn(sc.depth, nodes, p);
        const int lo = fn.weightMin(), hi = fn.weightMax();
        const int picks[] = {lo, lo + 1, -1, 0, 1, hi - 1, hi};
        const unsigned all = (1u << sc.depth) - 1;
        Rng rng(sc.depth * 4099 + sc.wb * 257 + sc.theta);
        for (unsigned trial = 0; trial < 3000; ++trial) {
            std::vector<std::uint64_t> st(fn.entryWords(), 0);
            for (unsigned n = 0; n < nodes; ++n) {
                std::vector<int> w(sc.depth + 1);
                unsigned hist = unsigned(rng.below(all + 1));
                switch (rng.below(4)) {
                  case 0: // the lowest lane sum
                    std::fill(w.begin(), w.end(), lo);
                    hist = all;
                    break;
                  case 1: // the highest
                    std::fill(w.begin(), w.end(), lo);
                    w[0] = hi;
                    hist = 0;
                    break;
                  default:
                    for (int &x : w)
                        x = picks[rng.below(7)];
                    break;
                }
                setPerceptronNode(st, nodes, sc.depth, n, hist, w);
            }
            ASSERT_TRUE(fn.validEntry(st.data()));
            const std::uint64_t fb = rng() & nodeMask(nodes);

            // Expected: the decision and one clamped training step,
            // from dot() and weight().
            std::uint64_t want = 0;
            std::vector<std::vector<int>> next(nodes);
            for (unsigned n = 0; n < nodes; ++n) {
                const int d = fn.dot(st.data(), n);
                const bool pred = d >= int(sc.theta);
                const bool read = (fb >> n) & 1;
                want |= std::uint64_t(pred) << n;
                const bool train =
                    pred != read || (d <= int(sc.theta) && d >= -int(sc.theta));
                const predict::NodePlanes planes(nodes);
                for (unsigned i = 0; i <= sc.depth; ++i) {
                    int w = fn.weight(st.data(), n, i);
                    bool up = read;
                    if (i > 0 && !((planes.get(st.data(), i - 1) >> n) & 1))
                        up = !read;
                    if (train)
                        w = std::min(hi, std::max(lo, w + (up ? 1 : -1)));
                    next[n].push_back(w);
                }
            }
            ASSERT_EQ(fn.rawPredict(st.data()), want) << "trial " << trial;

            std::vector<std::uint64_t> learned = st, fused = st;
            ASSERT_EQ(fn.learn(learned.data(), fb), want)
                << "trial " << trial;
            for (unsigned n = 0; n < nodes; ++n)
                for (unsigned i = 0; i <= sc.depth; ++i)
                    ASSERT_EQ(fn.weight(learned.data(), n, i), next[n][i])
                        << "node " << n << " weight " << i << " trial "
                        << trial;
            const PerceptronFunction::Decisions d =
                fn.learnPredict(fused.data(), fb);
            ASSERT_EQ(fused, learned) << "trial " << trial;
            ASSERT_EQ(d.seen, want) << "trial " << trial;
            ASSERT_EQ(d.next, fn.rawPredict(learned.data()))
                << "trial " << trial;
        }
    }
}

TEST(LearnedOracle, EntryWordsNoLargerThanPerNodePacking)
{
    // The planes pad to bit_ceil(nodes) and the weight rows to 4
    // lanes; at the power-of-two machine sizes the sweeps run that
    // costs nothing over packing each node's state end to end.
    for (unsigned nodes : {16u, 64u}) {
        for (unsigned depth = 1; depth <= 8; ++depth) {
            const std::size_t hist = (std::size_t(nodes) * depth + 63) / 64;
            EXPECT_LE(PAsFunction(depth, nodes).entryWords(),
                      hist + (std::size_t(nodes) * (2u << depth) + 63) / 64);
            EXPECT_LE(PerceptronFunction(depth, nodes).entryWords(),
                      hist + (std::size_t(nodes) * (depth + 1) + 7) / 8);
        }
    }
}

} // namespace
