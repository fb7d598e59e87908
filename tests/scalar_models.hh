/**
 * @file
 * The learned families' scalar per-node definitions, frozen: PAs and
 * the hashed perceptron written one node at a time, as the papers
 * define them, with none of the bit-plane or lane-parallel layout
 * PAsFunction and PerceptronFunction use.
 *
 * Two consumers: tests/learned_oracle_test.cc checks the plane ops
 * against these models after every update, and bench/perf_micro.cc
 * times them over its learned-family fixtures as the denominator of
 * the sweep perf gate (a model that never gets faster, so host speed
 * cancels out of the ratio and kernel or function changes show).
 * Keep them naive: any speedup here would read as a regression there.
 */

#ifndef CCP_TESTS_SCALAR_MODELS_HH
#define CCP_TESTS_SCALAR_MODELS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "predict/function.hh"

namespace ccp::scalar {

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
                     const predict::PerceptronParams &p)
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
    predict::PerceptronParams p_;
    int wMin_ = 0, wMax_ = 0;
    std::vector<unsigned> hist_;
    std::vector<std::vector<int>> w_;
    std::vector<std::uint32_t> bloomMask_;
    std::uint32_t filter_ = 0;
    unsigned inserts_ = 0, cap_ = 0;
};

} // namespace ccp::scalar

#endif // CCP_TESTS_SCALAR_MODELS_HH
