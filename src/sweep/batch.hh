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
 *  - Per-scheme table state lives in one contiguous packed word array
 *    (no per-entry or per-table indirection; schemes are slices at
 *    precomputed offsets).
 *  - Index extraction is compiled once per scheme into a
 *    predict::IndexPlan — a fixed branch-free mask/shift pipeline.
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
 * Evaluates a fixed batch of schemes over traces, event-major.
 *
 * Construction compiles every scheme (index plan, opcode, state
 * slice); evaluateTrace() then walks a trace once for the whole
 * batch.  The batch owns all predictor state; a fresh trace clears it
 * (the same fresh-table-per-trace semantics as the reference
 * evaluateSuite path).
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

    /** One compiled scheme: plan + opcode + state slice. */
    struct Compiled
    {
        predict::IndexPlan plan;
        Op op = Op::Last;
        unsigned depth = 1;
        std::size_t entryWords = 0;
        /** Offset of this scheme's state slice in state_. */
        std::size_t base = 0;
        /** Concrete function, PAs only (word layout lives there). */
        std::shared_ptr<const predict::PAsFunction> pas;
        /** Concrete function, perceptron only (same reason). */
        std::shared_ptr<const predict::PerceptronFunction> perc;
        /** tp/fp/fn popcount tallies for the trace being walked. */
        std::uint64_t tp = 0, fp = 0, fn = 0;
    };

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
    unsigned nNodes_;
    unsigned nodeBits_;
    /** All predictor state, packed: scheme i owns
     *  [compiled_[i].base, base + entries * entryWords). */
    std::vector<std::uint64_t> state_;
    /** Per-event scratch for the address pass: each scheme's resolved
     *  entry (and, under forwarded update, update-entry) pointer. */
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
 * Packed predictor-state words one scheme needs in the event-major
 * kernel: table entries (2^indexBits) x words per entry.  This is the
 * footprint planBatches accumulates and the memory-budget guard
 * (common/mem_budget.hh) admits against — a close lower bound on the
 * reference kernel's PredictorTable as well (which adds per-entry
 * bookkeeping on top of the same state).  Fatal (exit, not wrap) for
 * schemes past maxSchemeStateWords or predict::maxTableIndexBits.
 */
std::size_t schemeStateWords(const predict::SchemeSpec &scheme,
                             unsigned n_nodes);

/**
 * Partition a scheme list into contiguous batches for the event-major
 * kernel: schemes accumulate into a batch until its packed state
 * would exceed @p max_state_words or @p max_schemes, so one in-flight
 * batch stays cache- and RAM-friendly even when the sweep space holds
 * large tables.  A single scheme larger than the budget still forms
 * its own batch.  Deterministic in the scheme list alone (never in
 * thread count), so batched sweep results cannot depend on worker
 * interleaving.
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
