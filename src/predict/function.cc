#include "predict/function.hh"

#include <array>
#include <bit>
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

NodePlanes::NodePlanes(unsigned n_nodes)
{
    ccp_assert(n_nodes >= 1 && n_nodes <= maxNodes, "bad node count");
    width = std::bit_ceil(n_nodes);
    planeMask = width == 64 ? ~std::uint64_t(0)
                            : (std::uint64_t(1) << width) - 1;
    nodeMask = n_nodes == 64 ? ~std::uint64_t(0)
                             : (std::uint64_t(1) << n_nodes) - 1;
}

void
NodePlanes::pushHistory(std::uint64_t *h, unsigned depth,
                        std::uint64_t fb) const
{
    // The history is one depth*width-bit string, plane 0 lowest:
    // shifting it up a plane ages every node's register at once.
    const std::size_t nw = words(depth);
    if (width == 64) {
        for (std::size_t k = nw - 1; k > 0; --k)
            h[k] = h[k - 1];
        h[0] = fb;
        return;
    }
    for (std::size_t k = nw - 1; k > 0; --k)
        h[k] = (h[k] << width) | (h[k - 1] >> (64 - width));
    h[0] = (h[0] << width) | fb;
    const unsigned top = (depth * width) % 64;
    if (top)
        h[nw - 1] &= (std::uint64_t(1) << top) - 1;
}

namespace {

/** Load the @p depth history planes at @p state into @p hp. */
inline void
loadHistory(const NodePlanes &planes, const std::uint64_t *state,
            unsigned depth, std::uint64_t *hp)
{
    for (unsigned i = 0; i < depth; ++i)
        hp[i] = planes.get(state, i);
}

/** The depth-bit history register of @p node, from the planes loaded
 *  into @p hp. */
inline unsigned
historyOf(const std::uint64_t *hp, unsigned depth, unsigned node)
{
    unsigned v = 0;
    for (unsigned i = 0; i < depth; ++i)
        v |= unsigned((hp[i] >> node) & 1u) << i;
    return v;
}

/** The nodes of @p live whose history register equals @p pattern,
 *  from the planes loaded into @p hp. */
inline std::uint64_t
matching(const std::uint64_t *hp, unsigned depth, unsigned pattern,
         std::uint64_t live)
{
    for (unsigned i = 0; i < depth; ++i)
        live &= ((pattern >> i) & 1u) ? hp[i] : ~hp[i];
    return live;
}

} // namespace

PAsFunction::PAsFunction(unsigned depth, unsigned n_nodes)
    : depth_(depth), planes_(n_nodes)
{
    ccp_assert(depth >= 1 && depth <= 8, "bad PAs depth ", depth);
    historyWords_ = planes_.words(depth_);
    // A (lo, hi) plane pair per pattern.
    entryWords_ = historyWords_ + planes_.words(2u << depth_);
}

std::uint64_t
PAsFunction::entryBits(unsigned n_nodes) const
{
    // Per node: a depth-bit history register plus 2^depth 2-bit
    // counters (the paper counts both).
    return std::uint64_t(n_nodes) * (depth_ + 2ull * (1u << depth_));
}

unsigned
PAsFunction::counter(const std::uint64_t *state, unsigned node,
                     unsigned pattern) const
{
    const std::uint64_t *ctr = state + historyWords_;
    return unsigned((planes_.get(ctr, 2 * pattern) >> node) & 1) |
           unsigned((planes_.get(ctr, 2 * pattern + 1) >> node) & 1)
               << 1;
}

SharingBitmap
PAsFunction::predict(const std::uint64_t *state) const
{
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth_, hp);
    const std::uint64_t *ctr = state + historyWords_;
    // One pass per distinct pattern the nodes hold: the lowest node
    // left names it, and every node sharing it reads its hi plane.
    std::uint64_t left = planes_.nodeMask, pred = 0;
    while (left) {
        const unsigned p = historyOf(
            hp, depth_, unsigned(std::countr_zero(left)));
        const std::uint64_t m = matching(hp, depth_, p, left);
        pred |= m & planes_.get(ctr, 2 * p + 1);
        left &= ~m;
    }
    return SharingBitmap(pred);
}

void
PAsFunction::update(std::uint64_t *state, SharingBitmap feedback) const
{
    const std::uint64_t fb = feedback.raw() & planes_.nodeMask;
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth_, hp);
    std::uint64_t *ctr = state + historyWords_;
    std::uint64_t left = planes_.nodeMask;
    while (left) {
        const unsigned p = historyOf(
            hp, depth_, unsigned(std::countr_zero(left)));
        const std::uint64_t m = matching(hp, depth_, p, left);
        const std::uint64_t lo = planes_.get(ctr, 2 * p);
        const std::uint64_t hi = planes_.get(ctr, 2 * p + 1);
        // Bit-sliced saturating 2-bit counters: readers count up
        // unless at 3, the rest count down unless at 0.
        const std::uint64_t inc = m & fb, dec = m & ~fb;
        planes_.set(ctr, 2 * p,
                    lo ^ (inc & ~(hi & lo)) ^ (dec & (hi | lo)));
        planes_.set(ctr, 2 * p + 1, (hi | (inc & lo)) & ~(dec & ~lo));
        left &= ~m;
    }
    planes_.pushHistory(state, depth_, fb);
}

std::uint64_t
OverlapLastFunction::entryBits(unsigned n_nodes) const
{
    return 2ull * n_nodes; // two stored bitmaps
}

namespace {

/** One in the low bit of each 16-bit lane. */
constexpr std::uint64_t kLanes = 0x0001000100010001ull;
/** The low byte of each 16-bit lane. */
constexpr std::uint64_t kLowBytes = 0x00ff00ff00ff00ffull;
/** The +128 weight bias, per byte. */
constexpr std::uint64_t kBias = 0x8080808080808080ull;

/** One in the low bit of each byte. */
constexpr std::uint64_t kBytes = 0x0101010101010101ull;

/** 0x01 in byte k where bit k of the index is set. */
constexpr std::array<std::uint64_t, 256> kByteOnes = [] {
    std::array<std::uint64_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned k = 0; k < 8; ++k)
            if ((b >> k) & 1)
                t[b] |= std::uint64_t(1) << (8 * k);
    return t;
}();

/** 0x01 in each byte of @p x that is zero, exactly (no borrow runs
 *  between bytes). */
inline std::uint64_t
zeroBytes(std::uint64_t x)
{
    const std::uint64_t low7 = 0x7f7f7f7f7f7f7f7full;
    return ~(((x & low7) + low7) | x | low7) >> 7;
}

/** The lanes a term takes negated, for one byte of a history plane:
 *  0x00ff in lane k of `even` where bit 2k of the byte is clear, and
 *  of `odd` where bit 2k + 1 is. */
struct NegLanes
{
    std::uint64_t even = 0, odd = 0;
};

constexpr std::array<NegLanes, 256> kNegLanes = [] {
    std::array<NegLanes, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
        for (unsigned k = 0; k < 4; ++k) {
            if (!((b >> (2 * k)) & 1))
                t[b].even |= std::uint64_t(0xff) << (16 * k);
            if (!((b >> (2 * k + 1)) & 1))
                t[b].odd |= std::uint64_t(0xff) << (16 * k);
        }
    }
    return t;
}();

/** The top bit of each 16-bit lane of @p x, gathered to bits 0, 2, 4
 *  and 6: multiplying by 1 + 2^14 + 2^28 + 2^42 moves bit 16k to bit
 *  42 + 2k, and no two partial products share a bit. */
inline std::uint64_t
laneSigns(std::uint64_t x)
{
    return ((((x >> 15) & kLanes) * 0x0000040010004001ull) >> 42) & 0x55;
}

/** Biased dot products of 8 nodes, one per 16-bit lane: the even
 *  nodes' in `even`, the odd nodes' in `odd`. */
struct LaneDots
{
    std::uint64_t even, odd;

    /** The nodes whose lane reaches the threshold @p offset encodes
     *  (bit j of the result is node j of the 8). */
    std::uint64_t
    reach(std::uint64_t offset) const
    {
        return laneSigns(even + offset) | laneSigns(odd + offset) << 1;
    }
};

/** The lane dot products of nodes 8c..8c+7, from their word @p w of
 *  weight row 0 (each next row @p row_words on) and the history
 *  planes loaded into @p hp; @p shift is 8c. */
inline LaneDots
laneDots(const std::uint64_t *w, std::size_t row_words, unsigned depth,
         const std::uint64_t *hp, unsigned shift)
{
    // Biased to u = w + 128 in [0, 255], a row word's even bytes fill
    // the lanes of one sum and its odd bytes the other.  Term i is u
    // where history bit i is set, else (u ^ 0xff) + 1 = 256 - u, i.e.
    // -w + 128.
    std::uint64_t u = *w ^ kBias;
    LaneDots d{u & kLowBytes, (u >> 8) & kLowBytes};
    for (unsigned i = 0; i < depth; ++i) {
        w += row_words;
        u = *w ^ kBias;
        const NegLanes &n = kNegLanes[(hp[i] >> shift) & 0xff];
        d.even += ((u & kLowBytes) ^ n.even) + (n.even & kLanes);
        d.odd += (((u >> 8) & kLowBytes) ^ n.odd) + (n.odd & kLanes);
    }
    return d;
}

} // namespace

PerceptronFunction::PerceptronFunction(unsigned depth,
                                       unsigned n_nodes,
                                       const PerceptronParams &params)
    : depth_(depth), nNodes_(n_nodes), params_(params),
      planes_(n_nodes)
{
    ccp_assert(depth >= 1 && depth <= 8, "bad perceptron depth ",
               depth);
    ccp_assert(params.weightBits >= 2 && params.weightBits <= 8,
               "bad perceptron weight width ", params.weightBits);
    ccp_assert(params.theta >= 1 && params.theta <= 127,
               "bad perceptron threshold ", params.theta);
    ccp_assert(params.bloomBits == 0 ||
                   (params.bloomBits >= 4 && params.bloomBits <= 32),
               "bad perceptron bloom width ", params.bloomBits);

    weightMax_ = (1 << (params.weightBits - 1)) - 1;
    weightMin_ = -(1 << (params.weightBits - 1));
    historyWords_ = planes_.words(depth_);
    // One int8 lane per weight, at every weight width (clamping
    // enforces the narrower range); a row of 8 lanes per word.
    rowWords_ = (std::size_t(nNodes_) + 7) / 8;
    const std::size_t weight_words = std::size_t(depth_ + 1) * rowWords_;
    bloomWord_ = historyWords_ + weight_words;
    entryWords_ = bloomWord_ + (params.bloomBits > 0 ? 1 : 0);

    // Each of the depth + 1 biased terms is (+-w) + 128 in [0, 256],
    // so a lane sums to dot + 128 (depth + 1) <= 2304 and never
    // carries.  Adding 0x8000 - T sets the lane's top bit exactly
    // when the biased dot reaches T (T is in (0, 2304], no wrap).
    const int bias = 128 * int(depth_ + 1);
    const int theta = int(params.theta);
    auto offset = [&](int t) {
        return kLanes * std::uint64_t(0x8000 - (bias + t));
    };
    atTheta_ = offset(theta);
    aboveTheta_ = offset(theta + 1);
    atNegTheta_ = offset(-theta);

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

int
PerceptronFunction::dot(const std::uint64_t *state, unsigned node) const
{
    int acc = weight(state, node, 0);
    for (unsigned i = 0; i < depth_; ++i) {
        const int w = weight(state, node, i + 1);
        acc += ((planes_.get(state, i) >> node) & 1) ? w : -w;
    }
    return acc;
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
    const std::uint64_t bit = std::uint64_t(1) << node;
    return params_.bloomBits > 0 && !bloomGate(bit, state[bloomWord_]);
}

void
PerceptronFunction::bloomRecord(std::uint64_t &word,
                                std::uint64_t dead) const
{
    for (; dead; dead &= dead - 1) {
        std::uint64_t count = word >> 32;
        if (count >= bloomCap_) {
            // Self-aging: a full generation of inserts clears the
            // filter, so a once-dead reader can be predicted again.
            word = 0;
            count = 0;
        }
        word = ((word | bloomMaskOf_[std::countr_zero(dead)]) &
                0xffffffffull) |
               ((count + 1) << 32);
    }
}

std::uint64_t
PerceptronFunction::bloomGate(std::uint64_t raw, std::uint64_t word) const
{
    if (params_.bloomBits == 0)
        return raw;
    const std::uint32_t filt = static_cast<std::uint32_t>(word);
    for (std::uint64_t left = raw; left; left &= left - 1) {
        const unsigned n = unsigned(std::countr_zero(left));
        if ((filt & bloomMaskOf_[n]) == bloomMaskOf_[n])
            raw &= ~(std::uint64_t(1) << n);
    }
    return raw;
}

std::uint64_t
PerceptronFunction::rawPredict(const std::uint64_t *state) const
{
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth_, hp);
    const std::uint64_t *rows = state + historyWords_;
    std::uint64_t pred = 0;
    for (unsigned c = 0; c * 8 < nNodes_; ++c)
        pred |= laneDots(rows + c, rowWords_, depth_, hp, 8 * c)
                    .reach(atTheta_)
                << (8 * c);
    return pred & planes_.nodeMask;
}

SharingBitmap
PerceptronFunction::predict(const std::uint64_t *state) const
{
    const std::uint64_t raw = rawPredict(state);
    return SharingBitmap(params_.bloomBits > 0
                             ? bloomGate(raw, state[bloomWord_])
                             : raw);
}

std::uint64_t
PerceptronFunction::learn(std::uint64_t *state, std::uint64_t fb) const
{
    fb &= planes_.nodeMask;
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth_, hp);
    std::uint64_t *rows = state + historyWords_;

    // The trainer sees the raw perceptron decision; the Bloom filter
    // only gates emitted predictions.
    std::uint64_t predicted = 0, low_margin = 0;
    for (unsigned c = 0; c * 8 < nNodes_; ++c) {
        const LaneDots d = laneDots(rows + c, rowWords_, depth_, hp, 8 * c);
        predicted |= d.reach(atTheta_) << (8 * c);
        low_margin |= (d.reach(atNegTheta_) & ~d.reach(aboveTheta_))
                      << (8 * c);
    }
    predicted &= planes_.nodeMask;

    // Train on a mispredict or a low-confidence hit: every weight of
    // those nodes moves one step toward agreeing with the outcome,
    // unless it sits at its clamp bound.  Biased to [0, 255], a byte
    // at neither bound can step without carrying into the next.
    const std::uint64_t train =
        ((predicted ^ fb) | low_margin) & planes_.nodeMask;
    const std::uint64_t at_max = kBytes * unsigned(weightMax_ + 128);
    const std::uint64_t at_min = kBytes * unsigned(weightMin_ + 128);
    for (unsigned c = 0; c * 8 < nNodes_; ++c) {
        const unsigned tb = unsigned(train >> (8 * c)) & 0xff;
        if (!tb)
            continue;
        const unsigned read = unsigned(fb >> (8 * c)) & 0xff;
        for (unsigned i = 0; i <= depth_; ++i) {
            // The bias follows the outcome; weight i follows it where
            // history bit i - 1 is set and opposes it where clear.
            const unsigned up =
                i == 0 ? read
                       : ~(read ^ unsigned(hp[i - 1] >> (8 * c))) & 0xff;
            std::uint64_t &word = rows[i * rowWords_ + c];
            const std::uint64_t u = word ^ kBias;
            const std::uint64_t inc =
                kByteOnes[tb & up] & ~zeroBytes(u ^ at_max);
            const std::uint64_t dec =
                kByteOnes[tb & ~up] & ~zeroBytes(u ^ at_min);
            word = (u + inc - dec) ^ kBias;
        }
    }
    planes_.pushHistory(state, depth_, fb);
    return predicted;
}

void
PerceptronFunction::update(std::uint64_t *state,
                           SharingBitmap feedback) const
{
    const std::uint64_t fb = feedback.raw() & planes_.nodeMask;
    const std::uint64_t predicted = learn(state, fb);
    // Would-be false positives are dead readers.
    if (params_.bloomBits > 0)
        bloomRecord(state[bloomWord_], predicted & ~fb);
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
