/**
 * @file
 * MemBudget: a byte budget for predictor-state admission control.
 *
 * The design-space sweeps instantiate predictor tables up to 2^24 bits
 * *per scheme*; a pathological scheme set (or a generous one on a
 * small machine) can OOM-kill the whole sweep and discard hours of
 * completed work.  The sweep runner pre-computes each batch's
 * predictor-table footprint (sweep::schemeStateWords) and asks this
 * guard before evaluating it, degrading gracefully — batches are
 * planned under the budget, and a single scheme that alone exceeds it
 * is skipped and reported instead of attempted.
 *
 * Admission charges the full-table upper bound, 2^indexBits entries
 * per scheme, not what the batched kernel allocates.  Its per-trace
 * state holds whole tables only where they are small next to the
 * trace and otherwise just the entries the trace touches, never more
 * than that bound.  On top of it, an index group that maps a trace
 * densely keeps a u32 slot array over its table and a reset list of
 * at most table/8 u32s: 4.5 bytes per entry, at most 9/32 of one
 * charged table of that group (every family keeps at least two words
 * per entry).  No state or id array grows with the trace length past
 * these bounds (sweep::BatchEvaluator::footprintBytes()), so the
 * charge bounds a batch's memory up to that fraction, which the
 * untouched part of a densely mapped table usually covers.
 *
 * The budget bounds the footprint of ONE in-flight batch; with T
 * worker threads total predictor state is bounded by T x budget.
 *
 * Also here: the human-friendly byte-size syntax the --mem-budget
 * flag accepts ("512M", "2G", "65536").
 */

#ifndef CCP_COMMON_MEM_BUDGET_HH
#define CCP_COMMON_MEM_BUDGET_HH

#include <cstdint>
#include <string>

namespace ccp {

/**
 * Parse "<number>[K|M|G]" (decimal number, binary suffix, case
 * insensitive) into bytes.  @return false on malformed input or
 * overflow; @p bytes is untouched on failure.
 */
bool parseByteSize(const std::string &text, std::uint64_t &bytes);

/** Render bytes as "512B", "16K", "1.5G" for logs and reports. */
std::string formatByteSize(std::uint64_t bytes);

/**
 * Admission guard over a fixed byte budget (0 = unlimited).
 *
 * admit() is where the "mem.alloc_fail" fault-injection point lives:
 * arming CCP_FAULT_INJECT=mem.alloc_fail=M makes the admission of
 * plan ordinal M fail exactly once, so the skip-and-report path is
 * testable without building a multi-gigabyte scheme.
 */
class MemBudget
{
  public:
    explicit MemBudget(std::uint64_t total_bytes = 0)
        : totalBytes_(total_bytes)
    {
    }

    bool unlimited() const { return totalBytes_ == 0; }
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Pure budget check (no fault hook, no side effects). */
    bool
    fits(std::uint64_t bytes) const
    {
        return unlimited() || bytes <= totalBytes_;
    }

    /**
     * Admission decision for plan ordinal @p index needing @p bytes:
     * fits() unless the "mem.alloc_fail" point is armed at @p index
     * (which fails the admission exactly once).
     */
    bool admit(std::uint64_t index, std::uint64_t bytes) const;

  private:
    std::uint64_t totalBytes_;
};

} // namespace ccp

#endif // CCP_COMMON_MEM_BUDGET_HH
