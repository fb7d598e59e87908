/**
 * @file
 * Oracle test for the learned families' bit-plane state.
 *
 * PAsFunction and PerceptronFunction keep their per-node state as
 * node-width bit-planes and lane-parallel weight rows, and every
 * consumer (reference evaluator, serve sessions, batched sweep) runs
 * those same ops — so the differential tests compare two paths that
 * share them.  This file holds the families' scalar per-node
 * definitions as a test-only model and checks the plane ops against
 * it after every update: predictions, every PAs counter, every
 * perceptron weight and dot product, and the Bloom filter's
 * suppression decisions, over machine sizes that leave planes and
 * weight rows partly padded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "predict/function.hh"

namespace {

using namespace ccp;
using predict::PAsFunction;
using predict::PerceptronFunction;
using predict::PerceptronParams;

const unsigned kNodeCounts[] = {1, 4, 6, 16, 33, 64};

std::uint64_t
nodeMask(unsigned n_nodes)
{
    return n_nodes == 64 ? ~std::uint64_t(0)
                         : (std::uint64_t(1) << n_nodes) - 1;
}

/** PAs as the paper defines it (Yeh & Patt, per potential reader): a
 *  depth-bit history register per node selects that node's 2-bit
 *  saturating counter. */
class ScalarPAs
{
  public:
    ScalarPAs(unsigned depth, unsigned n_nodes)
        : depth_(depth), hist_(n_nodes, 0),
          ctr_(n_nodes, std::vector<unsigned>(1u << depth, 0))
    {
    }

    std::uint64_t
    predict() const
    {
        std::uint64_t pred = 0;
        for (unsigned n = 0; n < hist_.size(); ++n)
            if (ctr_[n][hist_[n]] >= 2)
                pred |= std::uint64_t(1) << n;
        return pred;
    }

    void
    update(std::uint64_t fb)
    {
        for (unsigned n = 0; n < hist_.size(); ++n) {
            const bool read = (fb >> n) & 1;
            unsigned &c = ctr_[n][hist_[n]];
            if (read && c < 3)
                ++c;
            else if (!read && c > 0)
                --c;
            hist_[n] = ((hist_[n] << 1) | (read ? 1u : 0u)) &
                       ((1u << depth_) - 1);
        }
    }

    unsigned counter(unsigned node, unsigned p) const
    {
        return ctr_[node][p];
    }

  private:
    unsigned depth_;
    std::vector<unsigned> hist_;
    std::vector<std::vector<unsigned>> ctr_;
};

/** The hashed perceptron, one node at a time: history register,
 *  (depth + 1) clamped weights, and the self-aging k=2 Bloom filter
 *  over per-node masks drawn from two avalanche mixes of the id. */
class ScalarPerceptron
{
  public:
    ScalarPerceptron(unsigned depth, unsigned n_nodes,
                     const PerceptronParams &p)
        : depth_(depth), p_(p), hist_(n_nodes, 0),
          w_(n_nodes, std::vector<int>(depth + 1, 0)),
          bloomMask_(n_nodes, 0)
    {
        wMax_ = (1 << (p.weightBits - 1)) - 1;
        wMin_ = -(1 << (p.weightBits - 1));
        if (p.bloomBits == 0)
            return;
        cap_ = p.bloomBits / 4 > 0 ? p.bloomBits / 4 : 1;
        auto mix = [](std::uint64_t h) {
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdull;
            h ^= h >> 29;
            h *= 0xc4ceb9fe1a85ec53ull;
            h ^= h >> 32;
            return h;
        };
        for (unsigned n = 0; n < n_nodes; ++n) {
            const std::uint64_t h1 = mix((n + 1) * 0x9E3779B97F4A7C15ull);
            const std::uint64_t h2 = mix((n + 1) * 0xC2B2AE3D27D4EB4Full);
            const unsigned b1 = unsigned(h1 % p.bloomBits);
            const unsigned b2 = unsigned(
                (b1 + 1 + h2 % (p.bloomBits - 1)) % p.bloomBits);
            bloomMask_[n] = (1u << b1) | (1u << b2);
        }
    }

    int
    dot(unsigned n) const
    {
        int acc = w_[n][0];
        for (unsigned i = 0; i < depth_; ++i)
            acc += ((hist_[n] >> i) & 1u) ? w_[n][1 + i] : -w_[n][1 + i];
        return acc;
    }

    bool
    suppressed(unsigned n) const
    {
        return p_.bloomBits > 0 &&
               (filter_ & bloomMask_[n]) == bloomMask_[n];
    }

    std::uint64_t
    predict() const
    {
        std::uint64_t pred = 0;
        for (unsigned n = 0; n < hist_.size(); ++n)
            if (dot(n) >= int(p_.theta) && !suppressed(n))
                pred |= std::uint64_t(1) << n;
        return pred;
    }

    void
    update(std::uint64_t fb)
    {
        const int theta = int(p_.theta);
        for (unsigned n = 0; n < hist_.size(); ++n) {
            const bool read = (fb >> n) & 1;
            const int acc = dot(n);
            const bool predicted = acc >= theta;
            if (p_.bloomBits > 0 && predicted && !read) {
                if (inserts_ >= cap_)
                    filter_ = inserts_ = 0;
                filter_ |= bloomMask_[n];
                ++inserts_;
            }
            if (predicted != read || (acc <= theta && acc >= -theta)) {
                const int t = read ? 1 : -1;
                auto nudge = [&](int &w, int dir) {
                    w = std::min(wMax_, std::max(wMin_, w + dir));
                };
                nudge(w_[n][0], t);
                for (unsigned i = 0; i < depth_; ++i)
                    nudge(w_[n][1 + i],
                          ((hist_[n] >> i) & 1u) ? t : -t);
            }
            hist_[n] = ((hist_[n] << 1) | (read ? 1u : 0u)) &
                       ((1u << depth_) - 1);
        }
    }

    int weight(unsigned n, unsigned i) const { return w_[n][i]; }

  private:
    unsigned depth_;
    PerceptronParams p_;
    int wMin_ = 0, wMax_ = 0;
    std::vector<unsigned> hist_;
    std::vector<std::vector<int>> w_;
    std::vector<std::uint32_t> bloomMask_;
    std::uint32_t filter_ = 0;
    unsigned inserts_ = 0, cap_ = 0;
};

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
