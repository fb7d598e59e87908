#include "predict/function.hh"

#include <cmath>

#include "common/logging.hh"

namespace ccp::predict {

const char *
functionKindName(FunctionKind kind)
{
    switch (kind) {
      case FunctionKind::Union:
        return "union";
      case FunctionKind::Inter:
        return "inter";
      case FunctionKind::PAs:
        return "pas";
      case FunctionKind::OverlapLast:
        return "overlap-last";
      case FunctionKind::Perceptron:
        return "perceptron";
    }
    ccp_panic("bad FunctionKind");
}

WindowFunction::WindowFunction(FunctionKind kind, unsigned depth)
    : kind_(kind), depth_(depth)
{
    ccp_assert(kind == FunctionKind::Union || kind == FunctionKind::Inter,
               "WindowFunction is union or inter only");
    ccp_assert(depth >= 1 && depth <= 32, "bad window depth ", depth);
}

std::uint64_t
WindowFunction::entryBits(unsigned n_nodes) const
{
    // The paper accounts one sharing bitmap per history slot.
    return std::uint64_t(depth_) * n_nodes;
}

PAsFunction::PAsFunction(unsigned depth, unsigned n_nodes)
    : depth_(depth), nNodes_(n_nodes)
{
    ccp_assert(depth >= 1 && depth <= 8, "bad PAs depth ", depth);
    ccp_assert(n_nodes >= 1 && n_nodes <= maxNodes, "bad node count");
    historyWords_ = (std::size_t(nNodes_) * depth_ + 63) / 64;
    std::size_t counter_bits = std::size_t(nNodes_) * (1u << depth_) * 2;
    entryWords_ = historyWords_ + (counter_bits + 63) / 64;
}

std::uint64_t
PAsFunction::entryBits(unsigned n_nodes) const
{
    // Per node: a depth-bit history register plus 2^depth 2-bit
    // counters (the paper counts both).
    return std::uint64_t(n_nodes) * (depth_ + 2ull * (1u << depth_));
}

unsigned
PAsFunction::historyOf(const std::uint64_t *state, unsigned node) const
{
    std::size_t bit = std::size_t(node) * depth_;
    std::size_t word = bit / 64, off = bit % 64;
    std::uint64_t v = state[word] >> off;
    if (off + depth_ > 64)
        v |= state[word + 1] << (64 - off);
    return static_cast<unsigned>(v & ((1u << depth_) - 1));
}

void
PAsFunction::setHistory(std::uint64_t *state, unsigned node,
                        unsigned value) const
{
    std::size_t bit = std::size_t(node) * depth_;
    std::size_t word = bit / 64, off = bit % 64;
    std::uint64_t mask = std::uint64_t((1u << depth_) - 1);

    state[word] = (state[word] & ~(mask << off)) |
                  (std::uint64_t(value) << off);
    if (off + depth_ > 64) {
        unsigned spill = static_cast<unsigned>(off + depth_ - 64);
        std::uint64_t hi_mask = (std::uint64_t(1) << spill) - 1;
        state[word + 1] = (state[word + 1] & ~hi_mask) |
                          (std::uint64_t(value) >> (depth_ - spill));
    }
}

unsigned
PAsFunction::counterOf(const std::uint64_t *state, unsigned node,
                       unsigned pattern) const
{
    std::size_t bit = (std::size_t(node) * (1u << depth_) + pattern) * 2;
    std::size_t word = historyWords_ + bit / 64, off = bit % 64;
    return static_cast<unsigned>((state[word] >> off) & 3);
}

void
PAsFunction::setCounter(std::uint64_t *state, unsigned node,
                        unsigned pattern, unsigned value) const
{
    std::size_t bit = (std::size_t(node) * (1u << depth_) + pattern) * 2;
    std::size_t word = historyWords_ + bit / 64, off = bit % 64;
    state[word] = (state[word] & ~(std::uint64_t(3) << off)) |
                  (std::uint64_t(value & 3) << off);
}

SharingBitmap
PAsFunction::predict(const std::uint64_t *state) const
{
    SharingBitmap pred;
    for (unsigned n = 0; n < nNodes_; ++n) {
        unsigned hist = historyOf(state, n);
        if (counterOf(state, n, hist) >= 2)
            pred.set(n);
    }
    return pred;
}

void
PAsFunction::update(std::uint64_t *state, SharingBitmap feedback) const
{
    for (unsigned n = 0; n < nNodes_; ++n) {
        bool read = feedback.test(n);
        unsigned hist = historyOf(state, n);
        unsigned ctr = counterOf(state, n, hist);
        if (read && ctr < 3)
            ++ctr;
        else if (!read && ctr > 0)
            --ctr;
        setCounter(state, n, hist, ctr);
        unsigned mask = (1u << depth_) - 1;
        setHistory(state, n, ((hist << 1) | (read ? 1u : 0u)) & mask);
    }
}

std::uint64_t
OverlapLastFunction::entryBits(unsigned n_nodes) const
{
    return 2ull * n_nodes; // two stored bitmaps
}

PerceptronFunction::PerceptronFunction(unsigned depth,
                                       unsigned n_nodes,
                                       const PerceptronParams &params)
    : depth_(depth), nNodes_(n_nodes), params_(params)
{
    ccp_assert(depth >= 1 && depth <= 8, "bad perceptron depth ",
               depth);
    ccp_assert(n_nodes >= 1 && n_nodes <= maxNodes, "bad node count");
    ccp_assert(params.weightBits >= 2 && params.weightBits <= 8,
               "bad perceptron weight width ", params.weightBits);
    ccp_assert(params.theta >= 1 && params.theta <= 127,
               "bad perceptron threshold ", params.theta);
    ccp_assert(params.bloomBits == 0 ||
                   (params.bloomBits >= 4 && params.bloomBits <= 32),
               "bad perceptron bloom width ", params.bloomBits);

    weightMax_ = (1 << (params.weightBits - 1)) - 1;
    weightMin_ = -(1 << (params.weightBits - 1));
    historyWords_ = (std::size_t(nNodes_) * depth_ + 63) / 64;
    // One int8 lane per weight keeps the packed state byte-addressable
    // at every weight width; clamping enforces the narrower range.
    std::size_t weight_bytes = std::size_t(nNodes_) * (depth_ + 1);
    std::size_t weight_words = (weight_bytes + 7) / 8;
    bloomWord_ = historyWords_ + weight_words;
    entryWords_ = bloomWord_ + (params.bloomBits > 0 ? 1 : 0);

    if (params.bloomBits > 0) {
        bloomCap_ = params.bloomBits / 4 > 0 ? params.bloomBits / 4 : 1;
        // Two independent mixes of the node id, reduced mod m.  The
        // full avalanche finalizer matters: a bare xor-shift leaves
        // the low reduction bits correlated across nodes, and the
        // filter's false-positive rate blows past its analytic bound.
        auto mix = [](std::uint64_t h) {
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdull;
            h ^= h >> 29;
            h *= 0xc4ceb9fe1a85ec53ull;
            h ^= h >> 32;
            return h;
        };
        for (unsigned n = 0; n < nNodes_; ++n) {
            std::uint64_t h1 =
                mix((n + 1) * std::uint64_t(0x9E3779B97F4A7C15ull));
            std::uint64_t h2 =
                mix((n + 1) * std::uint64_t(0xC2B2AE3D27D4EB4Full));
            unsigned b1 =
                static_cast<unsigned>(h1 % params.bloomBits);
            // The second bit is drawn from the other m-1 positions: a
            // node whose two probes collapse to one bit would pass the
            // filter at the (much higher) single-bit rate.
            unsigned b2 = static_cast<unsigned>(
                (b1 + 1 + h2 % (params.bloomBits - 1)) %
                params.bloomBits);
            bloomMaskOf_[n] = (std::uint32_t(1) << b1) |
                              (std::uint32_t(1) << b2);
        }
    }
}

std::uint64_t
PerceptronFunction::entryBits(unsigned n_nodes) const
{
    // Per node: the history register plus (depth + 1) weights at
    // their architected width; the Bloom word adds its filter bits
    // and an 8-bit insert counter once per entry.
    std::uint64_t per_node =
        depth_ + std::uint64_t(depth_ + 1) * params_.weightBits;
    std::uint64_t bloom =
        params_.bloomBits > 0 ? params_.bloomBits + 8ull : 0;
    return std::uint64_t(n_nodes) * per_node + bloom;
}

unsigned
PerceptronFunction::historyOf(const std::uint64_t *state,
                              unsigned node) const
{
    std::size_t bit = std::size_t(node) * depth_;
    std::size_t word = bit / 64, off = bit % 64;
    std::uint64_t v = state[word] >> off;
    if (off + depth_ > 64)
        v |= state[word + 1] << (64 - off);
    return static_cast<unsigned>(v & ((1u << depth_) - 1));
}

void
PerceptronFunction::setHistory(std::uint64_t *state, unsigned node,
                               unsigned value) const
{
    std::size_t bit = std::size_t(node) * depth_;
    std::size_t word = bit / 64, off = bit % 64;
    std::uint64_t mask = std::uint64_t((1u << depth_) - 1);

    state[word] = (state[word] & ~(mask << off)) |
                  (std::uint64_t(value) << off);
    if (off + depth_ > 64) {
        unsigned spill = static_cast<unsigned>(off + depth_ - 64);
        std::uint64_t hi_mask = (std::uint64_t(1) << spill) - 1;
        state[word + 1] = (state[word + 1] & ~hi_mask) |
                          (std::uint64_t(value) >> (depth_ - spill));
    }
}

int
PerceptronFunction::dotAt(const std::uint64_t *, const std::int8_t *w,
                          unsigned hist) const
{
    int acc = w[0];
    for (unsigned i = 0; i < depth_; ++i)
        acc += ((hist >> i) & 1u) ? w[1 + i] : -w[1 + i];
    return acc;
}

int
PerceptronFunction::dot(const std::uint64_t *state, unsigned node) const
{
    return dotAt(state, weightsOf(state, node),
                 historyOf(state, node));
}

double
PerceptronFunction::bloomFprBound() const
{
    if (params_.bloomBits == 0)
        return 0.0;
    // Classic Bloom bound for k = 2 hash functions, m filter bits,
    // and at most bloomCap_ live inserts between self-aging resets.
    double fill = 1.0 - std::exp(-2.0 * bloomCap_ /
                                 double(params_.bloomBits));
    return fill * fill;
}

bool
PerceptronFunction::bloomSuppressed(const std::uint64_t *state,
                                    unsigned node) const
{
    if (params_.bloomBits == 0)
        return false;
    const std::uint32_t filt =
        static_cast<std::uint32_t>(state[bloomWord_]);
    const std::uint32_t m = bloomMaskOf_[node];
    return (filt & m) == m;
}

void
PerceptronFunction::bloomInsert(std::uint64_t *state,
                                unsigned node) const
{
    std::uint64_t word = state[bloomWord_];
    std::uint64_t count = word >> 32;
    if (count >= bloomCap_) {
        // Self-aging: a full generation of inserts clears the filter,
        // so a once-dead reader can be predicted again.
        word = 0;
        count = 0;
    }
    word |= bloomMaskOf_[node];
    state[bloomWord_] =
        (word & 0xffffffffull) | ((count + 1) << 32);
}

SharingBitmap
PerceptronFunction::predict(const std::uint64_t *state) const
{
    SharingBitmap pred;
    const int theta = static_cast<int>(params_.theta);
    for (unsigned n = 0; n < nNodes_; ++n) {
        if (dot(state, n) >= theta && !bloomSuppressed(state, n))
            pred.set(n);
    }
    return pred;
}

void
PerceptronFunction::update(std::uint64_t *state,
                           SharingBitmap feedback) const
{
    const int theta = static_cast<int>(params_.theta);
    const unsigned hist_mask = (1u << depth_) - 1;
    for (unsigned n = 0; n < nNodes_; ++n) {
        const bool read = feedback.test(n);
        const unsigned hist = historyOf(state, n);
        std::int8_t *w = weightsOf(state, n);
        const int acc = dotAt(state, w, hist);
        // The trainer sees the raw perceptron decision; the Bloom
        // filter only gates emitted predictions.
        const bool predicted = acc >= theta;

        if (params_.bloomBits > 0 && predicted && !read)
            bloomInsert(state, n); // a would-be false positive: dead

        // Train on a mispredict or a low-confidence hit, clamped to
        // the architected signed range.
        if (predicted != read || (acc <= theta && acc >= -theta)) {
            const int t = read ? 1 : -1;
            auto clamped = [&](int v) {
                return static_cast<std::int8_t>(
                    v > weightMax_   ? weightMax_
                    : v < weightMin_ ? weightMin_
                                     : v);
            };
            w[0] = clamped(w[0] + t);
            for (unsigned i = 0; i < depth_; ++i) {
                const int dir = ((hist >> i) & 1u) ? t : -t;
                w[1 + i] = clamped(w[1 + i] + dir);
            }
        }
        setHistory(state, n, ((hist << 1) | (read ? 1u : 0u)) &
                                 hist_mask);
    }
}

std::unique_ptr<PredictionFunction>
makeFunction(FunctionKind kind, unsigned depth, unsigned n_nodes,
             const PerceptronParams &perc)
{
    switch (kind) {
      case FunctionKind::Union:
      case FunctionKind::Inter:
        return std::make_unique<WindowFunction>(kind, depth);
      case FunctionKind::PAs:
        return std::make_unique<PAsFunction>(depth, n_nodes);
      case FunctionKind::OverlapLast:
        return std::make_unique<OverlapLastFunction>();
      case FunctionKind::Perceptron:
        return std::make_unique<PerceptronFunction>(depth, n_nodes,
                                                    perc);
    }
    ccp_panic("bad FunctionKind");
}

} // namespace ccp::predict
