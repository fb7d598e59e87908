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
 *  - Predictor state is dense per trace: ids are numbered by first
 *    touch, so a group's state is (distinct entries the trace
 *    touches) x (its schemes' entry words, side by side), each entry
 *    zeroed when its id is handed out.  Tables small next to the
 *    trace use the raw index as the id instead, over a zeroed whole
 *    table (see identityEventsPerEntry).
 *  - Prediction functions are dispatched by a flat opcode (no virtual
 *    calls for the window families that dominate the design space:
 *    the kernel calls the shared inline window and overlap-last
 *    transitions of predict/function.hh), and the update mode's order
 *    and feedback come from the shared rule in predict/step.hh.
 *  - Confusion accumulation is word-wise: three popcounts on the
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
 * Construction compiles every scheme (opcode, entry size) and groups
 * the batch by IndexSpec, one compiled index plan per group;
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
    /** Flat function dispatch: the batched kernel's opcode. */
    enum class Op : std::uint8_t
    {
        Last,        ///< union/inter, depth 1
        Union,       ///< union, depth >= 2
        Inter,       ///< inter, depth >= 2
        OverlapLast, ///< overlap-filtered last
        PAs,         ///< two-level adaptive (via PAsFunction)
        Perceptron,  ///< hashed perceptron (via PerceptronFunction)
    };

    /** The schemes of one IndexSpec: their shared plan, entry ids
     *  and state. */
    struct Group
    {
        predict::IndexPlan plan;
        /** Words per entry id: every member scheme's entry, side by
         *  side in batch order. */
        std::size_t stride = 0;
        /** The current trace's state: entry id k holds the members'
         *  entries at state[k * stride, (k + 1) * stride). */
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

    /** One compiled scheme: group + opcode + entry layout. */
    struct Compiled
    {
        /** This scheme's index group in groups_. */
        std::size_t group = 0;
        /** Offset of this scheme's entry within its group's stride. */
        std::size_t offset = 0;
        Op op = Op::Last;
        unsigned depth = 1;
        std::size_t entryWords = 0;
        /** Concrete function, PAs only (word layout lives there). */
        std::shared_ptr<const predict::PAsFunction> pas;
        /** Concrete function, perceptron only (same reason). */
        std::shared_ptr<const predict::PerceptronFunction> perc;
        /** tp/fp/fn popcount tallies for the trace being walked. */
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

    /** One scheme's update/predict/tally for one event. */
    template <predict::UpdateMode mode>
    static void stepScheme(Compiled &c, std::uint64_t *entry,
                           std::uint64_t *upd,
                           const trace::CoherenceEvent &ev,
                           SharingBitmap fb_ordered, std::uint64_t mask,
                           std::uint64_t actual,
                           std::uint64_t actual_pop);

    std::vector<predict::SchemeSpec> schemes_;
    std::vector<Compiled> compiled_;
    std::vector<Group> groups_;
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
