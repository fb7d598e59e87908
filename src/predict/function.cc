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

bool
NodePlanes::paddingClear(const std::uint64_t *w, unsigned planes) const
{
    for (unsigned k = 0; k < planes; ++k)
        if (get(w, k) & ~nodeMask)
            return false;
    const unsigned top = (planes * width) % 64;
    return top == 0 || (w[words(planes) - 1] >> top) == 0;
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
    return SharingBitmap(withLiteralDepth(depth_, [&](auto depth) {
        std::uint64_t hp[8] = {};
        loadHistory(planes_, state, depth, hp);
        const std::uint64_t *ctr = state + historyWords_;
        // One pass per distinct pattern the nodes hold: the lowest
        // node left names it, and every node sharing it reads its hi
        // plane.
        std::uint64_t left = planes_.nodeMask, pred = 0;
        while (left) {
            const unsigned p = historyOf(
                hp, depth, unsigned(std::countr_zero(left)));
            const std::uint64_t m = matching(hp, depth, p, left);
            pred |= m & planes_.get(ctr, 2 * p + 1);
            left &= ~m;
        }
        return pred;
    }));
}

template <bool ThenPredict, class Depth>
std::uint64_t
PAsFunction::step(std::uint64_t *state, std::uint64_t fb,
                  Depth depth) const
{
    fb &= planes_.nodeMask;
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth, hp);
    std::uint64_t *ctr = state + historyWords_;
    const unsigned last = (1u << depth) - 1;
    std::uint64_t left = planes_.nodeMask, pred = 0;
    while (left) {
        const unsigned p = historyOf(
            hp, depth, unsigned(std::countr_zero(left)));
        const std::uint64_t m = matching(hp, depth, p, left);
        const std::uint64_t lo = planes_.get(ctr, 2 * p);
        const std::uint64_t hi = planes_.get(ctr, 2 * p + 1);
        // Bit-sliced saturating 2-bit counters: readers count up
        // unless at 3, the rest count down unless at 0.
        const std::uint64_t inc = m & fb, dec = m & ~fb;
        planes_.set(ctr, 2 * p,
                    lo ^ (inc & ~(hi & lo)) ^ (dec & (hi | lo)));
        planes_.set(ctr, 2 * p + 1, (hi | (inc & lo)) & ~(dec & ~lo));
        if constexpr (ThenPredict) {
            // Readers move to pattern q | 1, the rest to q.  Bit n of
            // a counter plane changes only in the pass of n's own old
            // pattern, which is this one: either way the plane is
            // final at these nodes' bits.
            const unsigned q = (p << 1) & last;
            pred |= (inc & planes_.get(ctr, 2 * (q | 1) + 1)) |
                    (dec & planes_.get(ctr, 2 * q + 1));
        }
        left &= ~m;
    }
    planes_.pushHistory(state, depth, fb);
    return pred;
}

void
PAsFunction::update(std::uint64_t *state, SharingBitmap feedback) const
{
    withLiteralDepth(depth_, [&](auto depth) {
        return step<false>(state, feedback.raw(), depth);
    });
}

SharingBitmap
PAsFunction::updatePredict(std::uint64_t *state,
                           SharingBitmap feedback) const
{
    return SharingBitmap(withLiteralDepth(depth_, [&](auto depth) {
        return step<true>(state, feedback.raw(), depth);
    }));
}

bool
PAsFunction::validEntry(const std::uint64_t *state) const
{
    return planes_.paddingClear(state, depth_) &&
           planes_.paddingClear(state + historyWords_, 2u << depth_);
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
/** The +128 weight bias, per byte; also the top bit of each byte. */
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

/** 0xff in byte k where bit k of the index is clear: the byte lanes
 *  a term takes negated, for one byte of a history plane. */
constexpr std::array<std::uint64_t, 256> kNegBytes = [] {
    std::array<std::uint64_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b)
        t[b] = kByteOnes[~b & 0xff] * 0xff;
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

/** The top bit of each byte of @p x, gathered to bits 0..7:
 *  multiplying by the sum of 2^(56 - 7k) moves bit 8k to bit 56 + k,
 *  and no two partial products share a bit. */
inline std::uint64_t
byteSigns(std::uint64_t x)
{
    return (((x >> 7) & kBytes) * 0x0102040810204080ull) >> 56;
}

/**
 * Byte lanes: the biased dot products of 8 nodes, one per byte of
 * one u64.  A term is u = w + B where the history bit is set and
 * 2B - u = -w + B where it is clear; B = 2^(weightBits-1).  The
 * constructor admits only schemes whose sums and threshold tests stay
 * inside a byte.
 */
struct ByteLanes
{
    std::uint64_t sum;

    /** The dots of the column whose row words are @p w, @p stride
     *  apart, under the history bytes @p hb; @p mask is the low
     *  weightBits of each byte and @p bias B per byte. */
    static ByteLanes
    dots(const std::uint64_t *w, std::size_t stride, unsigned depth,
         const unsigned *hb, std::uint64_t mask, std::uint64_t bias)
    {
        // A weight's low weightBits with the sign bit flipped are
        // w + B; flipping all of them gives 2B - 1 - u.
        std::uint64_t sum = (w[0] & mask) ^ bias;
        for (unsigned i = 0; i < depth; ++i) {
            const std::uint64_t n = kNegBytes[hb[i]];
            sum += (((w[(i + 1) * stride] ^ n) & mask) ^ bias) +
                   (n & kBytes);
        }
        return {sum};
    }

    /** The top bit of each byte whose dot reaches the threshold
     *  @p offset encodes. */
    std::uint64_t reach(std::uint64_t offset) const
    {
        return (sum + offset) & kBias;
    }
};

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

/**
 * 16-bit lanes: the biased dot products of 8 nodes, the even nodes'
 * in the lanes of `even`, the odd nodes' in `odd`.  Each row word's
 * bytes, biased by +128 to u in [0, 255], give the term u where the
 * history bit is set, else (u ^ 0xff) + 1 = 256 - u, i.e. -w + 128.
 */
struct WideLanes
{
    std::uint64_t even, odd;

    /** As ByteLanes::dots(); the mask and bias are not used. */
    static WideLanes
    dots(const std::uint64_t *w, std::size_t stride, unsigned depth,
         const unsigned *hb, std::uint64_t, std::uint64_t)
    {
        std::uint64_t u = w[0] ^ kBias;
        WideLanes d{u & kLowBytes, (u >> 8) & kLowBytes};
        for (unsigned i = 0; i < depth; ++i) {
            u = w[(i + 1) * stride] ^ kBias;
            const NegLanes &n = kNegLanes[hb[i]];
            d.even += ((u & kLowBytes) ^ n.even) + (n.even & kLanes);
            d.odd += (((u >> 8) & kLowBytes) ^ n.odd) + (n.odd & kLanes);
        }
        return d;
    }

    /** As ByteLanes::reach(): each lane's top bit moved to the top
     *  bit of its node's byte. */
    std::uint64_t reach(std::uint64_t offset) const
    {
        return (((even + offset) >> 8) & (kLanes * 0x80)) |
               ((odd + offset) & (kLanes * 0x8000));
    }
};

/**
 * Train one column's depth + 1 row words @p w:
 * every weight of the nodes in @p train moves one step toward
 * agreeing with the outcome @p read, unless it sits at its clamp
 * bound.  @p train and @p read are per-byte (0x01) masks; @p hb are
 * the column's history bytes.  Biased to [0, 255], a byte at neither
 * bound can step without carrying into the next.
 */
inline void
trainColumn(std::uint64_t *w, unsigned depth, std::uint64_t train,
            std::uint64_t read, const unsigned *hb, std::uint64_t at_max,
            std::uint64_t at_min)
{
    for (unsigned i = 0; i <= depth; ++i) {
        // The bias follows the outcome; weight i follows it where
        // history bit i - 1 is set and opposes it where clear.
        const std::uint64_t up =
            i == 0 ? read : ~(read ^ kByteOnes[hb[i - 1]]) & kBytes;
        std::uint64_t &word = w[i];
        const std::uint64_t u = word ^ kBias;
        const std::uint64_t inc = train & up & ~zeroBytes(u ^ at_max);
        const std::uint64_t dec = train & ~up & ~zeroBytes(u ^ at_min);
        word = (u + inc - dec) ^ kBias;
    }
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

    // Byte lanes: each of the depth + 1 terms is (+-w) + B in
    // [0, 2B], so a lane sums to dot + B (depth + 1) in
    // [0, 2B (depth + 1)].  Adding 128 - T sets a byte's top bit
    // exactly when the biased dot reaches T, for every test T in
    // [B (depth + 1) - theta, B (depth + 1) + theta + 1], as long as
    // 128 - T never goes negative and the sum plus it stays below
    // 256: both hold iff B (depth + 1) + theta + 1 <= 128.  (Weights
    // outside [weightMin, weightMax] would break the term bound;
    // validEntry() keeps restored state from holding any.)
    const int half = 1 << (params.weightBits - 1);
    const int theta = int(params.theta);
    int bias = half * int(depth_ + 1);
    byteLanes_ = bias + theta + 1 <= 128;
    std::uint64_t lanes = kBytes, top = 0x80;
    if (byteLanes_) {
        laneMask_ = kBytes * std::uint64_t(2 * half - 1);
        laneBias_ = kBytes * std::uint64_t(half);
    } else {
        // 16-bit lanes: terms (+-w) + 128 in [0, 256] sum to
        // dot + 128 (depth + 1) <= 2304, and the tests T are in
        // (0, 2304]: adding 0x8000 - T never wraps.
        bias = 128 * int(depth_ + 1);
        lanes = kLanes;
        top = 0x8000;
    }
    auto offset = [&](int t) {
        return lanes * std::uint64_t(int(top) - (bias + t));
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

template <class Lanes, class Depth>
std::uint64_t
PerceptronFunction::rawPredictIn(const std::uint64_t *state,
                                 Depth depth) const
{
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth, hp);
    const std::uint64_t *rows = state + historyWords_;
    std::uint64_t pred = 0;
    for (unsigned c = 0; c * 8 < nNodes_; ++c) {
        unsigned hb[8];
        for (unsigned i = 0; i < depth; ++i)
            hb[i] = unsigned(hp[i] >> (8 * c)) & 0xff;
        const Lanes d = Lanes::dots(rows + c, rowWords_, depth, hb,
                                    laneMask_, laneBias_);
        pred |= byteSigns(d.reach(atTheta_)) << (8 * c);
    }
    return pred & planes_.nodeMask;
}

std::uint64_t
PerceptronFunction::rawPredict(const std::uint64_t *state) const
{
    return withLiteralDepth(depth_, [&](auto depth) {
        return byteLanes_ ? rawPredictIn<ByteLanes>(state, depth)
                          : rawPredictIn<WideLanes>(state, depth);
    });
}

SharingBitmap
PerceptronFunction::predict(const std::uint64_t *state) const
{
    const std::uint64_t raw = rawPredict(state);
    return SharingBitmap(params_.bloomBits > 0
                             ? bloomGate(raw, state[bloomWord_])
                             : raw);
}

template <class Lanes, bool ThenPredict, class Depth>
PerceptronFunction::Decisions
PerceptronFunction::learnIn(std::uint64_t *state, std::uint64_t fb,
                            Depth depth) const
{
    fb &= planes_.nodeMask;
    std::uint64_t hp[8] = {};
    loadHistory(planes_, state, depth, hp);
    std::uint64_t *rows = state + historyWords_;
    const std::uint64_t at_max = kBytes * unsigned(weightMax_ + 128);
    const std::uint64_t at_min = kBytes * unsigned(weightMin_ + 128);

    Decisions out{0, 0};
    for (unsigned c = 0; c * 8 < nNodes_; ++c) {
        // The column's rows stay in registers from the old dots,
        // through training, to the new ones.
        std::uint64_t w[9];
        unsigned hb[9];
        for (unsigned i = 0; i <= depth; ++i)
            w[i] = rows[i * rowWords_ + c];
        for (unsigned i = 0; i < depth; ++i)
            hb[i + 1] = unsigned(hp[i] >> (8 * c)) & 0xff;
        const unsigned read = unsigned(fb >> (8 * c)) & 0xff;
        hb[0] = read;

        // The trainer sees the raw perceptron decision; the Bloom
        // filter only gates emitted predictions.  Train on a
        // mispredict or a low-confidence hit (|dot| <= theta).
        const Lanes d = Lanes::dots(w, 1, depth, hb + 1, laneMask_,
                                    laneBias_);
        const std::uint64_t reach = d.reach(atTheta_);
        const std::uint64_t low_margin =
            d.reach(atNegTheta_) & ~d.reach(aboveTheta_);
        out.seen |= byteSigns(reach) << (8 * c);
        const std::uint64_t read_bytes = kByteOnes[read];
        const std::uint64_t train =
            (((reach ^ (read_bytes << 7)) | low_margin) >> 7) &
            kByteOnes[unsigned(planes_.nodeMask >> (8 * c)) & 0xff];
        if (train) {
            trainColumn(w, depth, train, read_bytes, hb + 1, at_max,
                        at_min);
            for (unsigned i = 0; i <= depth; ++i)
                rows[i * rowWords_ + c] = w[i];
        }
        if constexpr (ThenPredict) {
            // The pushed history, newest first, is the feedback and
            // then the old bits: hb[0..depth - 1].
            const Lanes n = Lanes::dots(w, 1, depth, hb, laneMask_,
                                        laneBias_);
            out.next |= byteSigns(n.reach(atTheta_)) << (8 * c);
        }
    }
    planes_.pushHistory(state, depth, fb);
    out.seen &= planes_.nodeMask;
    out.next &= planes_.nodeMask;
    return out;
}

std::uint64_t
PerceptronFunction::learn(std::uint64_t *state, std::uint64_t fb) const
{
    return withLiteralDepth(depth_, [&](auto depth) {
        return byteLanes_ ? learnIn<ByteLanes, false>(state, fb, depth)
                          : learnIn<WideLanes, false>(state, fb, depth);
    }).seen;
}

PerceptronFunction::Decisions
PerceptronFunction::learnPredict(std::uint64_t *state,
                                 std::uint64_t fb) const
{
    return withLiteralDepth(depth_, [&](auto depth) {
        return byteLanes_ ? learnIn<ByteLanes, true>(state, fb, depth)
                          : learnIn<WideLanes, true>(state, fb, depth);
    });
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

bool
PerceptronFunction::validEntry(const std::uint64_t *state) const
{
    if (!planes_.paddingClear(state, depth_))
        return false;
    // Row padding bytes hold zero, every node's weight its range.
    for (unsigned i = 0; i <= depth_; ++i)
        for (unsigned n = 0; n < 8 * rowWords_; ++n) {
            const int w = weight(state, n, i);
            if (n < nNodes_ ? w < weightMin_ || w > weightMax_ : w != 0)
                return false;
        }
    if (params_.bloomBits == 0)
        return true;
    const std::uint64_t word = state[bloomWord_];
    const std::uint64_t filter_bits =
        params_.bloomBits == 32 ? 0xffffffffull
                                : (std::uint64_t(1) << params_.bloomBits) - 1;
    return (word >> 32) <= bloomCap_ && (word & 0xffffffffull & ~filter_bits) == 0;
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
