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
 * sizes that leave planes and weight rows partly padded.
 */

#include <gtest/gtest.h>

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
                fn.update(st.data(), SharingBitmap(fb));
                model.update(fb);
                ASSERT_EQ(fn.predict(st.data()).raw(), model.predict())
                    << "after update " << k;
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
                            fn.update(st.data(), SharingBitmap(fb));
                            model.update(fb);
                            ASSERT_EQ(fn.predict(st.data()).raw(),
                                      model.predict())
                                << "after update " << k;
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
