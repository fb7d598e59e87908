/**
 * @file
 * IndexSpec: the *access* axis of the paper's taxonomy (section 3.1).
 *
 * A prediction scheme indexes one conceptual global predictor with any
 * combination of the information available when new data is written:
 * the writer's node id (pid), the static store instruction (pc), the
 * home node (dir), and the block address (addr).  pid and dir are used
 * in full (all log2(N) bits) or not at all, so the global predictor
 * can be distributed to the processors (pid) or directories (dir)
 * without changing its behaviour; pc and addr may be truncated to any
 * bit width to meet an implementation cost.
 *
 * The 16 classes of Table 1 correspond to which of the four fields
 * participate at all.
 */

#ifndef CCP_PREDICT_INDEX_HH
#define CCP_PREDICT_INDEX_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "trace/event.hh"

namespace ccp::predict {

/** Which fields index the global predictor, and how wide. */
struct IndexSpec
{
    bool usePid = false;
    /** Low bits of (pc >> 2) used; 0 means pc does not participate. */
    unsigned pcBits = 0;
    bool useDir = false;
    /** Low bits of the block number used; 0 means addr absent. */
    unsigned addrBits = 0;
    /**
     * Hashed feature folding (the perceptron family's indexing mode,
     * available to every family): instead of truncating each
     * participating field and concatenating, mix every field at full
     * width through per-field odd multipliers, finalize, and fold to
     * the same indexBits() total — so truncation wastes no entropy
     * and the implementation cost accounting is unchanged.  The
     * participating-field set (and Table 1 class) is the same either
     * way; only the entry mapping differs.  A hashed index depends on
     * its field set and indexBits() alone: specs that split one width
     * differently between pc and addr (pc4+add6, pc6+add4) compile to
     * one IndexPlan, the same entry mapping under two names.
     */
    bool hashed = false;

    /** Total index width given log2(N) node bits. */
    unsigned
    indexBits(unsigned node_bits) const
    {
        return (usePid ? node_bits : 0) + pcBits +
               (useDir ? node_bits : 0) + addrBits;
    }

    /** Compute the table index for an access tuple. */
    std::uint64_t index(NodeId pid, Pc pc, NodeId dir, Addr block,
                        unsigned node_bits) const;

    /** Index for a coherence event's own (writer-side) tuple. */
    std::uint64_t
    indexOf(const trace::CoherenceEvent &ev, unsigned node_bits) const
    {
        return index(ev.pid, ev.pc, ev.dir, ev.block, node_bits);
    }

    /**
     * Table 1 case number (0..15): bit 3 = pid, bit 2 = pc,
     * bit 1 = dir, bit 0 = addr.
     */
    unsigned tableOneCase() const;

    /** True if the scheme can be distributed at the processors. */
    bool distributableAtProcessors() const { return usePid; }
    /** True if the scheme can be distributed at the directories. */
    bool distributableAtDirectories() const { return useDir; }
    /** True if only a centralized implementation exists (Table 1). */
    bool
    centralizedOnly() const
    {
        return !usePid && !useDir;
    }

    /** True if the index uses writer identity (pid or pc). */
    bool
    usesWriterIdentity() const
    {
        return usePid || pcBits > 0;
    }

    /** The paper's field list, e.g. "pid+pc8+add6" (no function). */
    std::string fieldsName() const;

    bool operator==(const IndexSpec &) const = default;
};

namespace detail {

/** Per-field odd mixing multipliers of the hashed fold (absent
 *  fields multiply by zero and vanish from the mix). */
inline constexpr std::uint64_t hashAddrMult = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t hashDirMult = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t hashPcMult = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t hashPidMult = 0x27D4EB2F165667C5ull;

/**
 * The hashed fold itself: one multiply per participating field, a
 * splitmix-style finalizer, then a mask to the index width.  Shared
 * verbatim by IndexSpec::index() and IndexPlan::fromWords() so the
 * two stay bit-identical by construction.
 */
inline std::uint64_t
hashIndexFold(std::uint64_t pid, std::uint64_t pc_word,
              std::uint64_t dir, std::uint64_t block,
              std::uint64_t pid_mult, std::uint64_t pc_mult,
              std::uint64_t dir_mult, std::uint64_t addr_mult,
              std::uint64_t mask)
{
    std::uint64_t h = block * addr_mult ^ dir * dir_mult ^
                      pc_word * pc_mult ^ pid * pid_mult;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 29;
    return h & mask;
}

} // namespace detail

/**
 * A compiled index-extraction plan: the shift/mask pipeline of one
 * IndexSpec, precomputed once per scheme so the per-event index is a
 * fixed branch-free expression (four mask-and-shift terms, absent
 * fields contributing zero through a zero mask).  Produces bit-for-bit
 * the same index as IndexSpec::index() for every tuple.
 *
 * Invariant (asserted by makeIndexPlan): the packed index fits 64
 * bits, so every shift is < 64 — scalar << by 64 or more is
 * undefined behaviour.
 */
struct IndexPlan
{
    std::uint64_t addrMask = 0;
    std::uint64_t dirMask = 0;
    std::uint64_t pcMask = 0;
    std::uint64_t pidMask = 0;
    unsigned addrShift = 0;
    unsigned dirShift = 0;
    unsigned pcShift = 0;
    unsigned pidShift = 0;
    /** Hashed fold (IndexSpec::hashed): per-field multipliers (zero
     *  for absent fields) and the fold mask.  hashFoldMask == 0 means
     *  the concat pipeline above is in effect. */
    std::uint64_t hashAddrMult = 0;
    std::uint64_t hashDirMult = 0;
    std::uint64_t hashPcMult = 0;
    std::uint64_t hashPidMult = 0;
    std::uint64_t hashFoldMask = 0;

    bool hashed() const { return hashFoldMask != 0; }

    /**
     * Index from pre-decoded words; @p pc_word is the word-aligned pc
     * (pc >> 2), hoisted out so event-major kernels shift it once per
     * event instead of once per scheme.
     */
    std::uint64_t
    fromWords(std::uint64_t pid, std::uint64_t pc_word,
              std::uint64_t dir, std::uint64_t block) const
    {
        if (hashFoldMask != 0)
            return detail::hashIndexFold(pid, pc_word, dir, block,
                                         hashPidMult, hashPcMult,
                                         hashDirMult, hashAddrMult,
                                         hashFoldMask);
        return ((block & addrMask) << addrShift) |
               ((dir & dirMask) << dirShift) |
               ((pc_word & pcMask) << pcShift) |
               ((pid & pidMask) << pidShift);
    }

    /** Index for a raw access tuple (same contract as IndexSpec). */
    std::uint64_t
    index(NodeId pid, Pc pc, NodeId dir, Addr block) const
    {
        return fromWords(pid, pc >> 2, dir, block);
    }

    bool operator==(const IndexPlan &) const = default;
};

/** Compile @p spec into its branch-free extraction plan. */
IndexPlan makeIndexPlan(const IndexSpec &spec, unsigned node_bits);

/** Convenience builders for the common schemes. */
IndexSpec addressIndex(unsigned addr_bits, bool use_dir = true);
IndexSpec instructionIndex(unsigned pc_bits, bool use_pid = true);

} // namespace ccp::predict

#endif // CCP_PREDICT_INDEX_HH
