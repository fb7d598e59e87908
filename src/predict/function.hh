/**
 * @file
 * Prediction functions: the *prediction* axis of the taxonomy
 * (section 3.2).
 *
 * A prediction function defines the per-entry state layout of the
 * predictor table, how a sharing-bitmap prediction is produced from
 * that state, and how a feedback bitmap updates it.  Implemented
 * functions:
 *
 *  - WindowFunction (union / inter): a circular window of the last
 *    `depth` feedback bitmaps; the prediction is their union or
 *    intersection.  Depth 1 is exactly "last prediction" (Lai &
 *    Falsafi); intersection of depth 2 is Kaxiras & Goodman's
 *    intersection predictor.
 *  - OverlapLastFunction (overlap-last): Kaxiras & Goodman's "last"
 *    variant, which predicts the last sharing bitmap only when it
 *    overlaps the one before it.
 *  - PAsFunction: Yeh & Patt style two-level adaptive prediction,
 *    per potential reader: an N x depth set of history registers
 *    selects per-node pattern tables of 2-bit saturating counters.
 *  - PerceptronFunction (perceptron): per potential reader, a
 *    depth-bit history and saturating signed weights whose dot
 *    product against a threshold predicts sharing, with an optional
 *    Bloom negative filter.
 *
 * Entry state is stored as a flat span of 64-bit words so the table
 * stays dense and sweep evaluation stays fast.
 */

#ifndef CCP_PREDICT_FUNCTION_HH
#define CCP_PREDICT_FUNCTION_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/bitmap.hh"
#include "common/types.hh"

namespace ccp::predict {

/** The prediction-function families of the paper. */
enum class FunctionKind : std::uint8_t
{
    Union,
    Inter,
    PAs,
    /**
     * Kaxiras & Goodman's "last" variant (paper section 3.5): predict
     * the last sharing bitmap only if it overlaps the one before it —
     * a cheap confidence filter.  The paper names it but leaves it
     * unsimulated; we include it as an extension.
     */
    OverlapLast,
    /**
     * Hashed-perceptron sharing predictor (COALESCE idiom): per
     * potential reader, a depth-bit history register and a vector of
     * bounded saturating signed weights (bias + one per history bit);
     * a node is predicted shared when the dot product clears a
     * threshold.  An optional per-entry Bloom negative filter
     * suppresses readers whose recent weight history says "dead".
     * An extension beyond the paper's fixed-function families.
     */
    Perceptron,
};

/** Parse/print the lowercase family names used in scheme notation. */
const char *functionKindName(FunctionKind kind);

/**
 * Abstract per-entry behaviour of a predictor.
 *
 * Functions are stateless; all entry state lives in the table's word
 * array, `entryWords()` words per entry, zero-initialized (an entry
 * with no recorded history predicts the empty bitmap for union/inter
 * and whatever its counters say — initially "not shared" — for PAs,
 * appropriate given the low prevalence of sharing).
 */
class PredictionFunction
{
  public:
    virtual ~PredictionFunction() = default;

    virtual FunctionKind kind() const = 0;

    /** History depth parameter of the scheme. */
    virtual unsigned depth() const = 0;

    /** 64-bit words of state per table entry. */
    virtual std::size_t entryWords() const = 0;

    /** Implementation cost of one entry in bits (paper accounting). */
    virtual std::uint64_t entryBits(unsigned n_nodes) const = 0;

    /** Produce a prediction from an entry's state. */
    virtual SharingBitmap predict(const std::uint64_t *state) const = 0;

    /** Fold a feedback bitmap into an entry's state. */
    virtual void update(std::uint64_t *state,
                        SharingBitmap feedback) const = 0;

    /**
     * Whether @p state is an entry update() could have produced from
     * zero: every ring position and count in range, every weight
     * inside its clamp bounds, every padding bit zero.  A restored
     * snapshot is checked with it, since predict() and update() index
     * and add without re-checking the words they read.
     */
    virtual bool validEntry(const std::uint64_t *state) const = 0;

    /** Family name: "union", "inter", "pas", "overlap-last", or
     *  "perceptron". */
    std::string name() const { return functionKindName(kind()); }
};

/**
 * @name Window and overlap-last state transitions
 * The one definition of these families' per-entry state: the rings
 * WindowFunction and OverlapLastFunction keep per scheme, and the
 * window history the batched sweep kernel shares among them (a ring's
 * contents, newest first, are a prefix of the history).
 * @{
 */

/** Window predict: union (@p is_union) or intersection of the stored
 *  bitmaps of a @p depth-slot ring; empty until the first update.
 *  Word 0 packs (next-slot << 32 | count); words 1..depth are the
 *  bitmaps.  Reads at most @p depth slots, so a literal depth folds
 *  the loops away. */
inline std::uint64_t
windowPredict(const std::uint64_t *state, unsigned depth, bool is_union)
{
    const unsigned count = static_cast<unsigned>(state[0] & 0xffffffffu);
    const unsigned live = count < depth ? count : depth;
    std::uint64_t acc = count ? state[1] : 0;
    if (is_union) {
        for (unsigned i = 1; i < live; ++i)
            acc |= state[1 + i];
    } else {
        for (unsigned i = 1; i < live; ++i)
            acc &= state[1 + i];
    }
    return acc;
}

/** Window update: store @p feedback in the next slot of a
 *  @p depth-slot ring. */
inline void
windowUpdate(std::uint64_t *state, unsigned depth, std::uint64_t feedback)
{
    unsigned count = static_cast<unsigned>(state[0] & 0xffffffffu);
    unsigned pos = static_cast<unsigned>(state[0] >> 32);
    state[1 + pos] = feedback;
    pos = (pos + 1) % depth;
    if (count < depth)
        ++count;
    state[0] = (std::uint64_t(pos) << 32) | count;
}

/** Whether @p state holds a @p depth-slot window ring: its next
 *  slot below @p depth and its count at most @p depth. */
inline bool
windowEntryValid(const std::uint64_t *state, unsigned depth)
{
    return (state[0] >> 32) < depth && (state[0] & 0xffffffffu) <= depth;
}

/** Overlap-last predict: the last bitmap if it overlaps the one
 *  before it, else empty.  Word 0 is a valid count (saturating at 2);
 *  words 1..2 are the last and previous bitmaps. */
inline std::uint64_t
overlapLastPredict(const std::uint64_t *state)
{
    if (static_cast<unsigned>(state[0]) < 2)
        return 0;
    return (state[1] & state[2]) ? state[1] : 0;
}

/** Overlap-last update: shift @p feedback in as the last bitmap. */
inline void
overlapLastUpdate(std::uint64_t *state, std::uint64_t feedback)
{
    state[2] = state[1];
    state[1] = feedback;
    if (state[0] < 2)
        ++state[0];
}

/** Slot @p i (0 = the newest) of a @p depth-slot window ring: the
 *  order a window history holds its bitmaps in. */
inline std::uint64_t
windowRingSlot(const std::uint64_t *state, unsigned depth, unsigned i)
{
    const unsigned pos = static_cast<unsigned>(state[0] >> 32);
    return state[1 + (pos + depth - 1 - i) % depth];
}

/** Call @p f with @p depth as a std::integral_constant for the depths
 *  1-4 the sweeps run, so loops over a history fold away, else as
 *  an unsigned. */
template <class F>
inline decltype(auto)
withLiteralDepth(unsigned depth, F &&f)
{
    switch (depth) {
      case 1:
        return f(std::integral_constant<unsigned, 1>());
      case 2:
        return f(std::integral_constant<unsigned, 2>());
      case 3:
        return f(std::integral_constant<unsigned, 3>());
      case 4:
        return f(std::integral_constant<unsigned, 4>());
      default:
        return f(depth);
    }
}

/**
 * Window history: the learned state every window and overlap-last
 * scheme of one learnKey shares in the batched kernel.  Word 0 counts
 * the updates (saturating at @p depth); words 1..depth hold the
 * newest feedback bitmaps, newest first (unwritten slots are zero).
 * A depth-d ring's live slots, read newest first (windowRingSlot),
 * are its prefix, and overlap-last's two bitmaps its first two slots.
 */
inline void
windowHistoryPush(std::uint64_t *h, unsigned depth, std::uint64_t feedback)
{
    for (unsigned i = depth; i > 1; --i)
        h[i] = h[i - 1];
    h[1] = feedback;
    if (h[0] < depth)
        ++h[0];
}

/** Outputs of windowHistoryPredict() for a @p depth-slot history. */
constexpr std::size_t
windowHistoryOutputs(unsigned depth)
{
    return 2 * std::size_t(depth) + 1;
}

/**
 * Every prediction a @p depth-slot window history serves, by one
 * prefix OR/AND chain: out[d - 1] = union(d) and out[depth + d - 1] =
 * inter(d) for d = 1..depth (d = 1 is last), and out[2 depth] =
 * overlap-last (depth >= 2; empty otherwise).  Equal to
 * windowPredict() and overlapLastPredict() over the rings the same
 * feedback fills.  A literal depth folds the loop away.
 */
inline void
windowHistoryPredict(const std::uint64_t *h, unsigned depth,
                     std::uint64_t *out)
{
    // Unwritten slots are zero, so the union chain needs no count;
    // the intersection stops at the live slots.
    const std::uint64_t live = h[0];
    std::uint64_t any = h[1], all = h[1];
    out[0] = any;
    out[depth] = all;
    for (unsigned d = 1; d < depth; ++d) {
        any |= h[1 + d];
        if (d < live)
            all &= h[1 + d];
        out[d] = any;
        out[depth + d] = all;
    }
    // A second bitmap exists only after two updates, and is zero
    // until then: no count check needed.
    out[2 * depth] = depth >= 2 && (h[1] & h[2]) ? h[1] : 0;
}

/** @} */

/**
 * Union/intersection over a window of the last `depth` feedback
 * bitmaps (depth 1 == last prediction).
 *
 * State layout: word 0 packs (count, next-slot); words 1..depth are
 * the bitmaps.
 */
class WindowFunction : public PredictionFunction
{
  public:
    /** @param kind Union or Inter.  @param depth window size >= 1. */
    WindowFunction(FunctionKind kind, unsigned depth);

    FunctionKind kind() const override { return kind_; }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return depth_ + 1; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    SharingBitmap predict(const std::uint64_t *state) const override
    {
        return SharingBitmap(
            windowPredict(state, depth_, kind_ == FunctionKind::Union));
    }
    void update(std::uint64_t *state,
                SharingBitmap feedback) const override
    {
        windowUpdate(state, depth_, feedback.raw());
    }
    bool validEntry(const std::uint64_t *state) const override
    {
        return windowEntryValid(state, depth_);
    }

  private:
    FunctionKind kind_;
    unsigned depth_;
};

/**
 * Node-width bit-planes: the state layout PAs and the perceptron
 * share.  A plane holds one bit per potential reader node; planes are
 * packed `width` = bit_ceil(nodes) bits apart, so none straddles a
 * word and one word op serves every node a plane holds.  A depth-d
 * history register per node is d planes: plane i is bit i (i = 0 the
 * newest) of every node's history.
 */
struct NodePlanes
{
    /** @param n_nodes Potential readers per plane (1..maxNodes). */
    explicit NodePlanes(unsigned n_nodes);

    /** Words holding @p planes planes. */
    std::size_t words(unsigned planes) const
    {
        return (std::size_t(planes) * width + 63) / 64;
    }

    /** Plane @p k of the plane array at @p w. */
    std::uint64_t get(const std::uint64_t *w, unsigned k) const
    {
        const std::size_t bit = std::size_t(k) * width;
        return (w[bit / 64] >> (bit % 64)) & planeMask;
    }

    /** Overwrite plane @p k of the plane array at @p w with @p v. */
    void set(std::uint64_t *w, unsigned k, std::uint64_t v) const
    {
        const std::size_t bit = std::size_t(k) * width;
        const unsigned off = bit % 64;
        w[bit / 64] = (w[bit / 64] & ~(planeMask << off)) | (v << off);
    }

    /** Shift @p fb in as plane 0 of the @p depth-plane history at
     *  @p h; the oldest plane drops out. */
    void pushHistory(std::uint64_t *h, unsigned depth,
                     std::uint64_t fb) const;

    /** Whether every bit of the @p planes-plane array at @p w outside
     *  the node bits of its planes is zero. */
    bool paddingClear(const std::uint64_t *w, unsigned planes) const;

    unsigned width;          ///< bits per plane: bit_ceil(nodes)
    std::uint64_t planeMask; ///< low `width` bits
    std::uint64_t nodeMask;  ///< low `nodes` bits
};

/**
 * Two-level adaptive (PAs) prediction: per entry and per potential
 * reader node, a `depth`-bit history register indexes a pattern table
 * of 2-bit saturating counters; the per-node binary predictions
 * aggregate into the predicted bitmap.
 *
 * State layout (bit-planes, see NodePlanes): `depth` history planes,
 * then for each pattern p a (lo, hi) plane pair holding bit 0 and
 * bit 1 of every node's counter p.  Predict is the OR over the
 * patterns the nodes hold of (nodes whose history is p) & hi_p; update
 * is a bit-sliced saturating increment (readers) or decrement (the
 * rest) of those nodes' counters.  Both loop over the distinct
 * patterns present, at most min(nodes, 2^depth), not over all 2^depth.
 *
 * updatePredict() is update() then predict() in that one loop: a node
 * whose old pattern was p predicts from counter (p << 1 | read) of
 * its new pattern, which is either the counter of p it just stepped
 * or a counter no other node's pass changes at its bit (a pass only
 * writes its own nodes' bits).
 */
class PAsFunction : public PredictionFunction
{
  public:
    /**
     * @param depth   History register width in bits (1..8).
     * @param n_nodes Number of potential readers (fixed per machine).
     */
    PAsFunction(unsigned depth, unsigned n_nodes);

    FunctionKind kind() const override { return FunctionKind::PAs; }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return entryWords_; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    SharingBitmap predict(const std::uint64_t *state) const override;
    void update(std::uint64_t *state,
                SharingBitmap feedback) const override;
    bool validEntry(const std::uint64_t *state) const override;

    /** update() then predict(), in one pass over the patterns. */
    SharingBitmap updatePredict(std::uint64_t *state,
                                SharingBitmap feedback) const;

    /** The 2-bit counter @p node keeps for history @p pattern. */
    unsigned counter(const std::uint64_t *state, unsigned node,
                     unsigned pattern) const;

  private:
    /** update(); @return predict() after it if @p ThenPredict. */
    template <bool ThenPredict, class Depth>
    std::uint64_t step(std::uint64_t *state, std::uint64_t fb,
                       Depth depth) const;

    unsigned depth_;
    NodePlanes planes_;
    std::size_t historyWords_;
    std::size_t entryWords_;
};

/**
 * Overlap-last prediction: keep the last two feedback bitmaps;
 * predict the most recent one only when the two overlap (a one-bit
 * confidence check that suppresses predictions on unstable history).
 *
 * State layout: word 0 packs a valid count; words 1..2 are the last
 * and previous bitmaps.
 */
class OverlapLastFunction : public PredictionFunction
{
  public:
    OverlapLastFunction() = default;

    FunctionKind kind() const override
    {
        return FunctionKind::OverlapLast;
    }
    unsigned depth() const override { return 1; }
    std::size_t entryWords() const override { return 3; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    SharingBitmap predict(const std::uint64_t *state) const override
    {
        return SharingBitmap(overlapLastPredict(state));
    }
    void update(std::uint64_t *state,
                SharingBitmap feedback) const override
    {
        overlapLastUpdate(state, feedback.raw());
    }
    bool validEntry(const std::uint64_t *state) const override
    {
        return state[0] <= 2;
    }
};

/** Tunable dimensions of the perceptron family (all swept). */
struct PerceptronParams
{
    /** Saturating weight width in bits, sign included (2..8): weights
     *  live in [-2^(w-1), 2^(w-1)-1] and never escape it. */
    unsigned weightBits = 5;
    /** Prediction threshold (>= 1 so a cold entry abstains): node n
     *  is predicted shared when its dot product >= theta. */
    unsigned theta = 2;
    /** Bloom negative-filter size in bits (0 disables, else 4..32). */
    unsigned bloomBits = 0;

    bool operator==(const PerceptronParams &) const = default;
};

/**
 * Hashed-perceptron prediction: per entry and per potential reader, a
 * depth-bit history register plus (depth + 1) bounded saturating
 * signed weights — a bias weight and one weight per history bit.  The
 * per-node decision is
 *
 *   dot = w0 + sum_i (h_i ? +w[i+1] : -w[i+1])   predict iff dot >= theta
 *
 * trained perceptron-style (only on a mispredict or a low-margin hit,
 * |dot| <= theta), with every weight clamped to the signed
 * weightBits range.  Feature hashing lives on the *access* axis: a
 * hashed IndexSpec folds the full {pc, addr, dir} tuple into the
 * table index (see predict/index.hh), so each entry's weights are the
 * weight-table row of its hashed feature vector.
 *
 * The optional Bloom negative filter (ghost-buffer idiom) records
 * readers the perceptron predicted but that did not re-share — on a
 * later predict, a node whose k=2 filter bits are both set is
 * suppressed as dead.  The filter self-ages: it is cleared whenever a
 * quarter of its bits' worth of inserts have accumulated, which also
 * bounds its false-positive rate (bloomFprBound()).
 *
 * The Bloom filter is output-only: training sees the raw decision
 * (rawPredict), never the gated one, and the filter only records
 * which raw positives died and gates what predict() emits.  So the
 * learned state — history and weights, the first learnedWords()
 * words — depends on (depth, weightBits, theta) alone (learnKey), and
 * schemes that differ only in bloomBits hold it bit for bit equal.
 * update() is learn() followed by bloomRecord() of the raw positives
 * that died; predict() is bloomGate() of rawPredict().  The batched
 * sweep kernel runs those halves itself: one learn() and rawPredict()
 * per key, one Bloom word per member.
 *
 * State layout: `depth` history planes (see NodePlanes), then the
 * weights weight-index-major as int8 — row i holds w_i of every node,
 * byte n % 8 of word n / 8, padded to whole words — then (if enabled)
 * one Bloom word (filter in the low 32 bits, insert count above).
 *
 * One row word serves 8 nodes, in lanes of a width the constructor
 * picks from (depth, weightBits, theta) alone.  With B =
 * 2^(weightBits-1), each term +-w + B is in [0, 2B], so the biased
 * dots of 8 nodes sum in the byte lanes of one u64 without a carry
 * whenever the widest threshold test fits a byte:
 * B (depth + 1) + theta + 1 <= 128 (byteLanes()).  Other schemes
 * split each row word's even and odd bytes, biased by +128, into the
 * 16-bit lanes of two sums, which cannot carry at any width or depth.
 * Both widths hand training the same per-byte masks, so training is
 * defined once.
 *
 * learnPredict() is learn() then rawPredict() with each 8-node
 * column's rows read once: the old dots, the training step, then the
 * new dots from the trained words and the pushed history (newest bit
 * the feedback, bit i the old bit i - 1).
 */
class PerceptronFunction : public PredictionFunction
{
  public:
    /**
     * @param depth   History register width in bits (1..8).
     * @param n_nodes Number of potential readers (fixed per machine).
     * @param params  Weight width / threshold / Bloom dimensions.
     */
    PerceptronFunction(unsigned depth, unsigned n_nodes,
                       const PerceptronParams &params = {});

    FunctionKind kind() const override
    {
        return FunctionKind::Perceptron;
    }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return entryWords_; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    SharingBitmap predict(const std::uint64_t *state) const override;
    void update(std::uint64_t *state,
                SharingBitmap feedback) const override;
    bool validEntry(const std::uint64_t *state) const override;

    const PerceptronParams &params() const { return params_; }
    /** True if the dot products run in byte lanes (see above). */
    bool byteLanes() const { return byteLanes_; }
    int weightMin() const { return weightMin_; }
    int weightMax() const { return weightMax_; }

    /** Weight @p i (0 = bias, i = history bit i - 1) of @p node. */
    int weight(const std::uint64_t *state, unsigned node,
               unsigned i) const
    {
        return static_cast<std::int8_t>(
            state[historyWords_ + i * rowWords_ + node / 8] >>
            (8 * (node % 8)));
    }

    /** Raw (unsuppressed) per-node dot product of an entry. */
    int dot(const std::uint64_t *state, unsigned node) const;

    /** Words of learned state (history and weights) at the start of
     *  an entry; the Bloom word, if enabled, follows them. */
    std::size_t learnedWords() const { return bloomWord_; }

    /** The raw decision of an entry's learned words: the nodes whose
     *  dot product reaches theta, before any Bloom gating. */
    std::uint64_t rawPredict(const std::uint64_t *state) const;

    /** Train the learned words on @p fb (node-masked) and push it
     *  into the history.  @return the raw decision the trainer saw,
     *  before training. */
    std::uint64_t learn(std::uint64_t *state, std::uint64_t fb) const;

    /** The raw decisions on either side of one training step. */
    struct Decisions
    {
        std::uint64_t seen; ///< learn()'s return: before training
        std::uint64_t next; ///< rawPredict() after training
    };

    /** learn() then rawPredict(), reading each weight word once. */
    Decisions learnPredict(std::uint64_t *state, std::uint64_t fb) const;

    /** @p raw with the nodes Bloom filter word @p word suppresses
     *  cleared (@p raw unchanged when the filter is disabled). */
    std::uint64_t bloomGate(std::uint64_t raw, std::uint64_t word) const;

    /** Insert the dead readers @p dead (raw positives that did not
     *  share) into Bloom filter word @p word, in node order
     *  (self-aging may clear the filter between two of them). */
    void bloomRecord(std::uint64_t &word, std::uint64_t dead) const;

    /** Inserts the Bloom filter holds before self-aging clears it. */
    unsigned bloomCapacity() const { return bloomCap_; }
    /** Analytic false-positive bound of the aged filter (k = 2,
     *  at most bloomCapacity() live inserts).  0 when disabled. */
    double bloomFprBound() const;
    /** True if the filter word currently suppresses @p node. */
    bool bloomSuppressed(const std::uint64_t *state,
                         unsigned node) const;

  private:
    /** rawPredict() in lanes of type Lanes. */
    template <class Lanes, class Depth>
    std::uint64_t rawPredictIn(const std::uint64_t *state,
                               Depth depth) const;
    /** learn(), and rawPredict() after it if @p ThenPredict, in lanes
     *  of type Lanes. */
    template <class Lanes, bool ThenPredict, class Depth>
    Decisions learnIn(std::uint64_t *state, std::uint64_t fb,
                      Depth depth) const;

    unsigned depth_;
    unsigned nNodes_;
    PerceptronParams params_;
    int weightMin_;
    int weightMax_;
    NodePlanes planes_;
    std::size_t historyWords_;
    /** Words per weight row: 8 int8 lanes each. */
    std::size_t rowWords_;
    std::size_t entryWords_;
    /** Word index of the Bloom word; entryWords_ if disabled. */
    std::size_t bloomWord_;
    unsigned bloomCap_ = 0;
    bool byteLanes_;
    /** Byte lanes: the low weightBits of each byte, and B per byte. */
    std::uint64_t laneMask_ = 0, laneBias_ = 0;
    /** Per-lane threshold offsets: a biased lane dot plus one of
     *  these sets the lane's top bit iff dot >= theta, dot > theta,
     *  dot >= -theta respectively. */
    std::uint64_t atTheta_, aboveTheta_, atNegTheta_;
    /** Per-node k=2 filter bit mask, fixed at construction. */
    std::uint32_t bloomMaskOf_[maxNodes] = {};
};

/**
 * Build a prediction function.
 *
 * @param kind    Family.
 * @param depth   History depth (ignored by overlap-last).
 * @param n_nodes Machine size (PAs and perceptron state depend on it).
 * @param perc    Perceptron dimensions (ignored by other kinds).
 */
std::unique_ptr<PredictionFunction>
makeFunction(FunctionKind kind, unsigned depth, unsigned n_nodes,
             const PerceptronParams &perc = {});

} // namespace ccp::predict

#endif // CCP_PREDICT_FUNCTION_HH
