/**
 * @file
 * PredictorTable: a concrete global predictor — an IndexSpec plus a
 * PredictionFunction plus the dense 2^indexBits entry array — with the
 * paper's bit-cost accounting.
 */

#ifndef CCP_PREDICT_TABLE_HH
#define CCP_PREDICT_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitmap.hh"
#include "common/types.hh"
#include "predict/function.hh"
#include "predict/index.hh"
#include "trace/event.hh"

namespace ccp::predict {

/** Hard cap on index width so a mistyped sweep cannot eat all RAM
 *  (shared by PredictorTable and the batched sweep kernel). */
inline constexpr unsigned maxTableIndexBits = 26;

/**
 * A complete prediction scheme instance.
 *
 * Entries are direct-mapped and untagged: truncated pc/addr fields
 * alias freely, exactly as in the paper's cost-constrained schemes.
 */
class PredictorTable
{
  public:
    /**
     * @param spec     Indexing fields.
     * @param function Prediction function (ownership shared so sweeps
     *                 can reuse one function across tables).
     * @param n_nodes  Machine size (defines pid/dir width and bitmap
     *                 width).
     */
    PredictorTable(const IndexSpec &spec,
                   std::shared_ptr<const PredictionFunction> function,
                   unsigned n_nodes);

    const IndexSpec &spec() const { return spec_; }
    const PredictionFunction &function() const { return *function_; }
    unsigned nNodes() const { return nNodes_; }
    unsigned nodeBits() const { return nodeBits_; }

    /** Number of table entries (2^indexBits). */
    std::uint64_t entries() const { return entries_; }

    /** Implementation cost in bits (paper accounting). */
    std::uint64_t sizeBits() const;

    /** Cost as log2(bits), the "size" column of Tables 7-11. */
    double log2SizeBits() const;

    /** Predict the sharing bitmap for an access tuple. */
    SharingBitmap predict(NodeId pid, Pc pc, NodeId dir,
                          Addr block) const;

    /** Fold feedback into the entry for an access tuple. */
    void update(NodeId pid, Pc pc, NodeId dir, Addr block,
                SharingBitmap feedback);

    /** Reset all entries to the empty-history state. */
    void clear();

    /**
     * The raw packed entry state, entries_ x entryWords() words —
     * exactly what update() mutates.  Two tables built from the same
     * SchemeSpec that processed the same event sequence have equal
     * rawState(); the serve layer snapshots and compares through this.
     */
    const std::vector<std::uint64_t> &rawState() const
    {
        return state_;
    }

    /** Words per entry (the function's packed-state footprint). */
    std::size_t entryWords() const { return entryWords_; }

    /**
     * Replace the entry state with a previously captured rawState().
     * @return false (state untouched) when @p words has the wrong
     * geometry for this table or an entry the function's update()
     * could not have produced (PredictionFunction::validEntry()).
     */
    bool restoreRawState(const std::vector<std::uint64_t> &words);

    /**
     * Fraction of entries holding non-empty history (any nonzero
     * state word).  An aliasing-quality/diagnostic signal: a sweep
     * whose tables stay near-empty is paying for index bits it never
     * exercises.
     */
    double occupancy() const;

  private:
    std::uint64_t *entryState(NodeId pid, Pc pc, NodeId dir, Addr block);
    const std::uint64_t *entryState(NodeId pid, Pc pc, NodeId dir,
                                    Addr block) const;

    IndexSpec spec_;
    std::shared_ptr<const PredictionFunction> function_;
    unsigned nNodes_;
    unsigned nodeBits_;
    std::uint64_t entries_;
    std::size_t entryWords_;
    std::vector<std::uint64_t> state_;
};

/** log2(N) rounded up; pid/dir field width for an N-node machine. */
unsigned nodeBitsFor(unsigned n_nodes);

} // namespace ccp::predict

#endif // CCP_PREDICT_TABLE_HH
