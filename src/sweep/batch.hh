/**
 * @file
 * BatchEvaluator: the event-major sweep kernel.
 *
 * The reference sweep is scheme-major: every scheme walks the whole
 * trace through PredictorTable, paying two virtual function calls,
 * one branchy index computation, and one full event decode per event
 * per scheme.  A design-space sweep re-reads every trace hundreds of
 * times.
 *
 * This kernel inverts the loop: each trace event is decoded exactly
 * once and driven through *all* schemes of a batch.
 *
 *  - Schemes are grouped by IndexSpec.  Per event, each group's
 *    predict::IndexPlan is evaluated once (and, under forwarded
 *    update, once more for the learner's tuple), and the entry id it
 *    yields is shared by every scheme of the group.
 *  - Within a group, schemes with equal predict::learnKey hold equal
 *    learned state, so the group keeps one *learned block* per
 *    distinct key, learned and read once per event: one newest-first
 *    window history (of the deepest member's depth) for every union,
 *    inter and overlap-last scheme, whose predictions are one prefix
 *    OR/AND chain over it; one PAs entry per PAs depth; and per
 *    perceptron (depth, weightBits, theta) one set of history planes
 *    and weights, followed by one Bloom word per Bloom member.  The
 *    Bloom filter is output-only: the shared raw decision trains the
 *    weights and feeds each member's filter, and each member gates
 *    that one decision with its own word.  Each block writes its
 *    members' predictions to a per-batch output array; a per-scheme
 *    loop then only tallies.
 *  - Predictor state is dense per trace: ids are numbered by first
 *    touch, so a group's state is (distinct entries the trace
 *    touches) x (its learned blocks' words, side by side), each entry
 *    zeroed when its id is handed out.  Tables small next to the
 *    trace use the raw index as the id instead, over a zeroed whole
 *    table (see identityEventsPerEntry).  A block is never larger
 *    than the entries of the schemes it serves, so schemeStateWords
 *    stays an upper bound.
 *  - Blocks are dispatched by a flat opcode (no virtual calls: window
 *    blocks run the inline history transitions of
 *    predict/function.hh, PAs and perceptron blocks qualified calls
 *    into their functions), and the update mode's order and feedback
 *    come from the shared rule in predict/step.hh.
 *  - Confusion accumulation is word-wise: two popcounts on the
 *    64-bit sharing bitmaps per (event, scheme) with true negatives
 *    recovered by conservation at the end of the trace, instead of
 *    per-bit branches.
 *
 * The kernel is an exact drop-in: for every scheme, trace, and update
 * mode its Confusion counts equal the reference Evaluator's bit for
 * bit (tests/differential_test.cc locks this down), so rankings and
 * table output are byte-identical under either kernel.
 */

#ifndef CCP_SWEEP_BATCH_HH
#define CCP_SWEEP_BATCH_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "predict/evaluator.hh"
#include "predict/function.hh"
#include "predict/index.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

/**
 * The identity-map rule: a group whose table has at most
 * events / identityEventsPerEntry entries uses the raw index as its
 * entry id (the trace is long enough that zeroing the whole table
 * costs less than mapping ids densely); wider tables get first-touch
 * dense ids through a raw index -> id slot array.  A fixed rule on
 * the trace length, so the same batch and trace always take the same
 * path.
 */
inline constexpr std::uint64_t identityEventsPerEntry = 16;

/**
 * Evaluates a fixed batch of schemes over traces, event-major.
 *
 * Construction groups the batch by IndexSpec, one compiled index plan
 * per group, and each group's schemes by learnKey, one learned block
 * per key;
 * evaluateTrace() then walks the trace once for the whole batch,
 * mapping each group's entry ids as it goes.  The batch owns all
 * predictor state; a fresh trace starts from zeroed state (the same
 * fresh-table-per-trace semantics as the reference evaluateSuite
 * path).
 */
class BatchEvaluator
{
  public:
    /**
     * @param schemes The batch (evaluated and returned in order).
     * @param n_nodes Machine size of every trace this batch will see.
     */
    BatchEvaluator(std::vector<predict::SchemeSpec> schemes,
                   unsigned n_nodes);

    std::size_t size() const { return schemes_.size(); }
    unsigned nNodes() const { return nNodes_; }

    /**
     * Evaluate every scheme of the batch over one trace (predictor
     * state cleared first).  @return per-scheme confusion counts, in
     * batch order, exactly equal to the reference evaluator's.
     */
    std::vector<predict::Confusion>
    evaluateTrace(const trace::SharingTrace &trace,
                  predict::UpdateMode mode);

    /**
     * Evaluate the batch over a suite (state cleared per trace, as
     * each benchmark runs alone on the machine).  @return per-scheme
     * SuiteResults in batch order — the same values the reference
     * evaluateSuite produces for each scheme.
     */
    std::vector<predict::SuiteResult>
    evaluateSuite(const std::vector<trace::SharingTrace> &traces,
                  predict::UpdateMode mode);

    /**
     * Bytes of predictor state and dense-id maps the batch holds now.
     * Whatever the trace length, at most the schemes' full tables
     * (schemeStateWords) plus 4.5 bytes per entry of each index
     * group's table once the group has mapped a trace densely.
     */
    std::size_t footprintBytes() const;

  private:
    /** A learned block's family: the batched kernel's opcode. */
    enum class Op : std::uint8_t
    {
        Window,     ///< a window history (union/inter/overlap-last)
        PAs,        ///< two-level adaptive (via PAsFunction)
        Perceptron, ///< hashed perceptron (via PerceptronFunction)
    };

    /** The schemes of one IndexSpec: their shared plan, entry ids
     *  and state. */
    struct Group
    {
        predict::IndexPlan plan;
        /** Words per entry id: the group's learned blocks (each with
         *  its members' output words), side by side. */
        std::size_t stride = 0;
        /** The current trace's state: entry id k holds the blocks at
         *  state[k * stride, (k + 1) * stride). */
        std::uint64_t *state = nullptr;
        /** The current trace uses the raw index as the entry id;
         *  otherwise ids are dense, numbered by first touch. */
        bool identity = false;
        /** Dense ids handed out so far this trace. */
        std::uint32_t entries = 0;
        unsigned bits = 0;
        /** Dense ids: raw index -> id (unmapped = ~0), sized on the
         *  group's first dense trace, and the reset list: the raw
         *  index of each of the first table / 8 ids, which returns
         *  slots to all-unmapped for the next trace (a trace with
         *  more ids refills slots instead). */
        std::vector<std::uint32_t> slots;
        std::vector<std::uint32_t> raws;
        /** Backing store of state, reused across traces; only the
         *  words a trace's ids reach are written. */
        std::unique_ptr<std::uint64_t[]> stateBuf;
        std::size_t stateCap = 0;
    };

    /**
     * The learned state of one learnKey within one group: learned
     * once per event for every member scheme, which then only read
     * its outputs.
     *
     *  - Window: a `depth`-slot window history (the deepest member's
     *    depth, at least 2 with an overlap-last member); outputs are
     *    windowHistoryPredict()'s.
     *  - PAs: one PAs entry; one output.
     *  - Perceptron: the key's learned words (history and weights),
     *    then one Bloom word per Bloom member; output 0 is the raw
     *    decision, output 1 + k Bloom member k's gated one.
     */
    struct Block
    {
        predict::LearnKey key;
        std::size_t group = 0;
        /** Offset of the block within its group's stride. */
        std::size_t offset = 0;
        /** Its first output in outs_. */
        std::size_t out = 0;
        Op op = Op::Window;
        /** Window history slots (Window only). */
        unsigned depth = 1;
        /** Concrete functions, PAs / perceptron only: the learner,
         *  and each Bloom member's own (filter width and hashes). */
        std::shared_ptr<const predict::PAsFunction> pas;
        std::shared_ptr<const predict::PerceptronFunction> perc;
        std::vector<std::shared_ptr<const predict::PerceptronFunction>>
            blooms;
    };

    /** One scheme: which output it reads, and its tp/fp/fn popcount
     *  tallies for the trace being walked. */
    struct Tally
    {
        std::size_t out = 0;
        std::uint64_t tp = 0, fp = 0, fn = 0;
    };

    /** Reset every group's ids and state for a trace of @p n_events
     *  events, picking identity or dense ids per group. */
    void startTrace(std::size_t n_events, predict::UpdateMode mode);

    /** Group @p g's dense id for raw index @p raw, assigned (and its
     *  entries zeroed) on first touch. */
    static std::uint64_t denseId(Group &g, std::uint64_t raw);

    template <predict::UpdateMode mode>
    void runTrace(const trace::SharingTrace &trace,
                  const std::vector<SharingBitmap> &ordered_fb);

    /** One block's learn/predict for one event, its outputs written
     *  to @p out. */
    template <predict::UpdateMode mode>
    static void stepBlock(const Block &b, std::uint64_t *entry,
                          std::uint64_t *upd,
                          const trace::CoherenceEvent &ev,
                          SharingBitmap fb_ordered, std::uint64_t *out);

    std::vector<predict::SchemeSpec> schemes_;
    std::vector<Tally> tallies_;
    std::vector<Block> blocks_;
    std::vector<Group> groups_;
    /** Every block's outputs for the current event. */
    std::vector<std::uint64_t> outs_;
    unsigned nNodes_;
    unsigned nodeBits_;
    /** Sum of schemeStateWords over the batch: the words a full
     *  2^indexBits table per scheme would take. */
    std::size_t tableWords_ = 0;
    /** Per-event scratch for the address pass: each group's raw
     *  index for the next event (and its learner's), then its entry
     *  block for this one (and the learner's). */
    std::vector<std::uint64_t> rawScratch_;
    std::vector<std::uint64_t> learnRawScratch_;
    std::vector<std::uint64_t *> entryScratch_;
    std::vector<std::uint64_t *> updScratch_;
};

/** Ceiling on one scheme's packed state (2^38 words = 2 TiB): any
 *  scheme whose 2^indexBits * entryWords footprint would exceed it —
 *  or whose index is wider than predict::maxTableIndexBits — is an
 *  unusable configuration, rejected with ccp_fatal instead of letting
 *  the size_t shift/multiply wrap and under-allocate. */
inline constexpr std::size_t maxSchemeStateWords = std::size_t(1)
                                                   << 38;

/**
 * Predictor-state words of one scheme's full table: 2^indexBits
 * entries x words per entry.  The event-major kernel's state for a
 * trace never exceeds it (a trace touches at most every entry), and
 * its dense-id maps take 4.5 bytes per table entry, at most 9/32 of
 * one such table (every family keeps at least two words per entry);
 * this is the footprint planBatches accumulates and the memory-budget
 * guard (common/mem_budget.hh) admits against — a close lower bound
 * on the reference kernel's PredictorTable as well (which adds
 * per-entry bookkeeping on top of the same state).  Fatal (exit, not
 * wrap) for schemes past maxSchemeStateWords or
 * predict::maxTableIndexBits.
 */
std::size_t schemeStateWords(const predict::SchemeSpec &scheme,
                             unsigned n_nodes);

/**
 * Partition a scheme list into contiguous batches for the event-major
 * kernel: schemes accumulate into a batch until its table state
 * (schemeStateWords) would exceed @p max_state_words or
 * @p max_schemes, so one in-flight batch stays cache- and RAM-friendly
 * even when the sweep space holds large tables.  Cuts prefer IndexSpec
 * group boundaries — a run of consecutive schemes on one IndexSpec
 * that does not fit the current batch starts a new one — so each
 * group's entry ids are mapped by one batch per trace.  A group that
 * alone exceeds either limit still splits, scheme by scheme, and a
 * single scheme larger than the budget still forms its own batch.
 * Deterministic in the scheme list alone (never in thread count), so
 * batched sweep results cannot depend on worker interleaving.
 *
 * @return half-open [first, last) index ranges covering the list.
 */
std::vector<std::pair<std::size_t, std::size_t>>
planBatches(const std::vector<predict::SchemeSpec> &schemes,
            unsigned n_nodes,
            std::size_t max_state_words = std::size_t(4) << 20,
            std::size_t max_schemes = 32);

} // namespace ccp::sweep

#endif // CCP_SWEEP_BATCH_HH
