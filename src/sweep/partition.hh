/**
 * @file
 * Entry partitions: which schemes of a sweep compute the same result
 * on one trace, so the batched sweep evaluates each only once.
 *
 * Every prediction function keeps state per table entry only, and
 * every entry starts from the same (zero) state.  So a scheme's
 * Confusion on a trace depends on its index only through the
 * *partition* the index induces on the trace's access tuples: which
 * tuples share an entry.  The tuples are every event's writer tuple
 * (pid, pc, dir, block) and, under forwarded update, every training
 * event's learner tuple (prevWriterPid, prevWriterPc, dir, block).
 * Two schemes that differ only in their index, and whose indices
 * partition the tuples the same way, make the same predictions at
 * every event under every update mode.
 *
 * Equal partitions are found exactly, per trace:
 *
 *  - index plan B *refines* plan A when A's raw index is a function
 *    of B's: both unhashed and every field of A is in B at the same
 *    or a greater width, or both hashed over the same field set with
 *    A's fold mask within B's (A's raw index is then the low bits of
 *    B's, over the same 64-bit mix);
 *  - if B refines A, B's partition refines A's, so the two are equal
 *    exactly when the tuples map to as many distinct raw indices
 *    under A as under B.
 *
 * Per trace, the classifier first makes each plan canonical: an
 * unhashed pc (addr) field wider than the narrowest width at which
 * the low bits of the trace's distinct pc words (blocks) stay
 * distinct is cut to that width, which changes no partition, and
 * plans equal once canonical share outright.  It then counts each
 * remaining plan's raw indices with a bitmap of 2^indexBits bits,
 * widest plans first: over the trace's tuples, or over the distinct
 * raw indices of a finer plan already counted (the coarser raw index
 * is a function of the finer one, so the count is the same and the
 * list is shorter).  Refining pairs of equal count are
 * joined (union-find), and each scheme maps to the earliest scheme
 * in list order on a plan of its class that is otherwise equal
 * (SchemeSpec == with the index set aside).  Hashed specs with equal
 * field set and width compile to one plan, so they always share.
 * The result depends on the scheme list, the trace and the update
 * mode only.
 */

#ifndef CCP_SWEEP_PARTITION_HH
#define CCP_SWEEP_PARTITION_HH

#include <cstdint>
#include <vector>

#include "predict/evaluator.hh"
#include "predict/index.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

/** How a scheme list's evaluations on one trace share. */
struct TraceSharing
{
    /** For each scheme, the earliest scheme whose Confusion on the
     *  trace equals its own by the partition rule (itself when no
     *  earlier one does): the scheme the sweep evaluates for it. */
    std::vector<std::size_t> rep;
    /** Distinct entry partitions among the list's index plans. */
    std::size_t classes = 0;
    /** Schemes that copy an earlier scheme's result (rep[i] != i). */
    std::size_t shared = 0;
};

/**
 * The partition rule compiled for one scheme list: its distinct index
 * plans, computed once and then applied to each trace by classify().
 */
class PartitionClassifier
{
  public:
    PartitionClassifier(const std::vector<predict::SchemeSpec> &schemes,
                        unsigned n_nodes);

    /** Distinct index plans in the list. */
    std::size_t plans() const { return specs_.size(); }

    /**
     * Apply the rule to @p trace under @p mode.  @p seen is the count
     * bitmap, kept all zero between calls so one worker reuses it
     * across traces.
     */
    TraceSharing classify(const trace::SharingTrace &trace,
                          predict::UpdateMode mode,
                          std::vector<std::uint64_t> &seen) const;

    /** classify() with a bitmap of its own. */
    TraceSharing classify(const trace::SharingTrace &trace,
                          predict::UpdateMode mode) const;

  private:
    unsigned nodeBits_;
    /** One spec per distinct plan (hashed specs of one field set and
     *  width compile to one plan). */
    std::vector<predict::IndexSpec> specs_;
    /** Per scheme: its plan, and its SchemeSpec less the index (the
     *  first scheme with an equal one). */
    std::vector<std::uint32_t> planOf_;
    std::vector<std::uint32_t> restOf_;
};

} // namespace ccp::sweep

#endif // CCP_SWEEP_PARTITION_HH
