/**
 * @file
 * Full-map directory state (DirNB-style, one presence bit per node)
 * and the per-block record store that holds it.
 *
 * Each block's home node owns a DirectoryEntry.  Besides the classic
 * state/sharers/owner triple, the entry carries the bookkeeping the
 * prediction study needs:
 *
 *  - readersSinceExclusive: the *true readers* of the current version
 *    (the access-bit feedback of paper section 3.4 — survives sharer
 *    replacement hints, so replacements do not erase true sharing);
 *  - the last writer's (pid, pc), required by forwarded update;
 *  - pendingEvent: the trace sequence number of the coherence store
 *    miss that created the current version, so later readers can be
 *    recorded as that event's outcome.
 *
 * The entry also records the block's home node and whether any node
 * has touched it, so it is the one per-block record the controller
 * keeps.  A BlockStore holds the records in fixed-size pages of
 * contiguous entries, found by block number through a two-level table
 * (an ordered map of chunks of page pointers, then the page) with no
 * hashing.  Pages are allocated on first use and never move, so a
 * reference to an entry stays valid while the store grows, and memory
 * grows with the pages touched, not with the span of block numbers.
 */

#ifndef CCP_MEM_DIRECTORY_HH
#define CCP_MEM_DIRECTORY_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>

#include "common/bitmap.hh"
#include "common/types.hh"
#include "trace/event.hh"

namespace ccp::mem {

/** Directory-side state of one block. */
enum class DirState : std::uint8_t
{
    Uncached,  ///< no cached copies; memory is up to date
    Shared,    ///< >= 1 read-only copies
    /**
     * MESI only: a single owner holds the sole copy, which may be
     * clean (E) or — after a silent upgrade the directory cannot
     * observe — dirty (M).
     */
    Exclusive,
    Modified,  ///< exactly one dirty copy at `owner`
};

/** Directory record for one block (fields ordered to pack). */
struct DirectoryEntry
{
    /** Nodes holding a copy (Shared) — or just the owner (Modified). */
    SharingBitmap sharers;
    /** Version counter: bumped on every exclusive acquisition. */
    std::uint64_t version = 0;
    /** True readers of the current version (access-bit feedback). */
    SharingBitmap readersSinceExclusive;
    /** Identity of the writer that produced the current version. */
    Pc lastWriterPc = 0;
    /** Trace event that created the current version. */
    EventSeq pendingEvent = trace::noEvent;
    /** Owner node, meaningful in Exclusive and Modified state. */
    NodeId owner = 0;
    NodeId lastWriterPid = 0;
    /** Home (directory) node, fixed when the block is first touched. */
    NodeId home = 0;
    DirState state = DirState::Uncached;
    bool hasLastWriter = false;
    /** Some node has accessed the block. */
    bool touched = false;
};

/** How blocks are assigned to home nodes. */
enum class PlacementPolicy : std::uint8_t
{
    /** Round-robin at block granularity. */
    Interleaved,
    /**
     * The first node to touch a block becomes its home — the paper's
     * RSIM setup ("first-touch policy on a cache-line granularity"),
     * which makes initial placement effective and gives the `dir`
     * index field its data-affinity meaning.
     */
    FirstTouch,
};

/** Directory entries by block number (see the file comment); an
 *  entry never asked for reads as untouched and Uncached. */
class BlockStore
{
  public:
    /** The entry of @p block, allocating its page on first use. */
    DirectoryEntry &
    at(Addr block)
    {
        auto &page = chunks_[block >> (pageShift + chunkShift)]
                            [(block >> pageShift) & (chunkPages - 1)];
        if (!page)
            page = std::make_unique<DirectoryEntry[]>(pageEntries);
        return page[block & (pageEntries - 1)];
    }

    /** The entry of @p block, or nullptr if its page was never
     *  allocated.  Allocates nothing. */
    const DirectoryEntry *
    find(Addr block) const
    {
        auto it = chunks_.find(block >> (pageShift + chunkShift));
        if (it == chunks_.end())
            return nullptr;
        const auto &page =
            it->second[(block >> pageShift) & (chunkPages - 1)];
        return page ? &page[block & (pageEntries - 1)] : nullptr;
    }

    /** Call fn(block, entry) for every touched entry, in block
     *  order. */
    template <typename Fn>
    void
    forEachTouched(Fn &&fn) const
    {
        for (const auto &[number, chunk] : chunks_)
            for (Addr p = 0; p < chunkPages; ++p)
                if (const DirectoryEntry *page = chunk[p].get()) {
                    const Addr first = ((number << chunkShift) | p)
                                       << pageShift;
                    for (Addr i = 0; i < pageEntries; ++i)
                        if (page[i].touched)
                            fn(first | i, page[i]);
                }
    }

  private:
    /** 2^9 entries (28 KiB) per page, 2^12 pages per chunk: a chunk
     *  spans 2^21 blocks (128 MiB). */
    static constexpr unsigned pageShift = 9, chunkShift = 12;
    static constexpr Addr pageEntries = Addr{1} << pageShift;
    static constexpr Addr chunkPages = Addr{1} << chunkShift;

    using Page = std::unique_ptr<DirectoryEntry[]>;
    /** Chunks of page pointers by chunk number (block >> 21). */
    std::map<Addr, std::array<Page, chunkPages>> chunks_;
};

} // namespace ccp::mem

#endif // CCP_MEM_DIRECTORY_HH
