/**
 * @file
 * Set-associative cache models: a single level (SetAssocCache) and the
 * per-node two-level hierarchy (NodeCache) matching the paper's
 * Table 4 (16KB direct-mapped L1, 512KB 4-way L2, 64-byte lines).
 *
 * The caches track coherence metadata only (tag + MSI state + version
 * of the cached value); the actual computation happens functionally in
 * the workload kernels.  The L2 is inclusive of the L1: coherence
 * state lives at the L2, and L2 evictions back-invalidate the L1.
 *
 * One scan per set on the access path: a processor hit finds its L2
 * line once (NodeCache::find) and hands that line to the
 * forwarded-touch, silent-upgrade and access steps; only the L1 is
 * probed once more.  Fills never search for the block: the
 * precondition of NodeCache::fill() is that the block is not cached at
 * that node, and SetAssocCache::insertAbsent() checks it in the same
 * pass that picks the victim way.
 */

#ifndef CCP_MEM_CACHE_HH
#define CCP_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace ccp::mem {

/** Coherence state of a cached block (MSI, plus E under MESI). */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,
    /** Sole clean copy (MESI only): may upgrade to Modified
     *  silently, without a coherence transaction. */
    Exclusive,
    Modified,
};

/** One cache line's metadata.  The two words come first and the
 *  one-byte fields share the last word: 24 bytes where interleaving
 *  them padded to 32, so every L2 set lookup reads less memory. */
struct CacheLine
{
    Addr block = 0;
    /** Version of the value held (for protocol correctness checks). */
    std::uint64_t version = 0;
    CacheState state = CacheState::Invalid;
    /** The line arrived by prediction-driven forwarding, not demand. */
    bool forwarded = false;
    /** A forwarded line was touched by the local processor (the
     *  access bit of paper section 3.4). */
    bool accessed = false;

    bool valid() const { return state != CacheState::Invalid; }
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;

    std::uint32_t lines() const { return sizeBytes / blockBytes; }
    std::uint32_t sets() const { return lines() / assoc; }
};

/** The paper's L1: 16KB direct-mapped. */
constexpr CacheGeometry paperL1{16 * 1024, 1};
/** The paper's L2: 512KB 4-way set-associative. */
constexpr CacheGeometry paperL2{512 * 1024, 4};

/**
 * A single set-associative cache level with true-LRU replacement.
 *
 * Lookups and fills operate on block numbers.  The cache never
 * initiates coherence actions itself; NodeCache and the protocol
 * engine orchestrate state changes.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom);

    const CacheGeometry &geometry() const { return geom_; }

    /** Find the line holding @p block, or nullptr. */
    CacheLine *find(Addr block);
    const CacheLine *find(Addr block) const;

    /** Mark @p block most recently used (no-op if absent). */
    void touch(Addr block);

    /** Mark @p line, a line of this cache, most recently used.  This
     *  moves lines within its set: @return the line's new address. */
    CacheLine &touch(CacheLine &line);

    /**
     * Insert @p block with @p state, evicting the LRU line of the set
     * if needed; a block already present is updated in place and made
     * MRU.  @return the evicted line's metadata if a valid line was
     * displaced.
     */
    std::optional<CacheLine> insert(Addr block, CacheState state,
                                    std::uint64_t version);

    /**
     * Install @p line at the MRU way of its set; its block must not be
     * present (asserted in the same pass that picks the way).
     * @return the evicted line's metadata if a valid line was
     * displaced.
     */
    std::optional<CacheLine> insertAbsent(const CacheLine &line);

    /** Drop @p block if present.  @return its metadata if it was
     *  valid. */
    std::optional<CacheLine> invalidate(Addr block);

    /** Invalidate every line (e.g. between workload phases). */
    void flush();

    /** Number of valid lines currently held. */
    std::uint32_t validLines() const;

  private:
    /** The first way of @p block's set. */
    CacheLine *
    setBase(Addr block)
    {
        return &ways_[setOf(block) * geom_.assoc];
    }

    std::uint32_t
    setOf(Addr block) const
    {
        return static_cast<std::uint32_t>(
            setMask_ ? block & setMask_ : block % sets_);
    }

    CacheGeometry geom_;
    /** geom_.sets(), and sets - 1 when that is a power of two (else
     *  0): the set index is one mask on the per-access path. */
    std::uint32_t sets_;
    std::uint32_t setMask_;
    /** ways[set * assoc + way]; way order is LRU order
     *  (way 0 = MRU). */
    std::vector<CacheLine> ways_;
};

/** Hit/miss counters for one node's hierarchy. */
struct CacheStats
{
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t l2Evictions = 0;
    std::uint64_t writebacks = 0;
};

/**
 * A node's private two-level hierarchy with inclusion.
 *
 * Coherence state is authoritative at the L2; the L1 mirrors it for
 * the subset of blocks it holds.  All state-changing operations go
 * through this class so the two levels can never disagree.
 */
class NodeCache
{
  public:
    NodeCache(const CacheGeometry &l1 = paperL1,
              const CacheGeometry &l2 = paperL2);

    /** Coherence state of @p block (Invalid if not cached). */
    CacheState state(Addr block) const;

    /** Version held for @p block (0 if not cached). */
    std::uint64_t version(Addr block) const;

    /**
     * The L2 line holding @p block, or nullptr if it is not cached.
     * The line-taking operations below expect this pointer; it stays
     * valid until the next operation that changes this node's cache.
     */
    CacheLine *find(Addr block) { return l2_.find(block); }

    /**
     * Record a processor-side hit on @p line (from find()) for hit
     * accounting and LRU update.  @return true if it hit in the L1.
     */
    bool access(CacheLine &line);

    /**
     * Fill @p block in @p state after a coherence transaction.  The
     * block must not be cached at this node.
     * @param forwarded Mark the line as prediction-forwarded (its
     *                  access bit starts clear).
     * @return the L2 victim if a valid block was displaced (the
     * caller must inform the directory).
     */
    std::optional<CacheLine> fill(Addr block, CacheState state,
                                  std::uint64_t version,
                                  bool forwarded = false);

    /**
     * If @p line (from find()) was forwarded and not yet touched, set
     * its access bit and return true (exactly once per forwarded
     * fill).
     */
    bool consumeForwardedTouch(CacheLine &line);

    /** Upgrade a Shared copy to Modified (write fault granted). */
    void upgrade(Addr block, std::uint64_t new_version);

    /** Silently upgrade the Exclusive L2 line @p line (from find())
     *  to Modified (MESI): no coherence transaction, and the version
     *  is unchanged — the exclusive episode began at the E grant. */
    void upgradeSilent(CacheLine &line);

    /** Downgrade a Modified or Exclusive copy to Shared (remote
     *  read). */
    void downgrade(Addr block);

    /** Invalidate @p block at both levels.  @return the prior L2
     *  line (with its forwarded/accessed bits) if it was valid. */
    std::optional<CacheLine> invalidate(Addr block);

    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

  private:
    SetAssocCache l1_;
    SetAssocCache l2_;
    CacheStats stats_;
};

} // namespace ccp::mem

#endif // CCP_MEM_CACHE_HH
