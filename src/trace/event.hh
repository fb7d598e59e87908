/**
 * @file
 * CoherenceEvent: one coherence store miss and its sharing outcome.
 *
 * A coherence store miss is any store that must make a block exclusive
 * at the issuing node — a write miss or a write fault (upgrade of a
 * shared copy).  These are exactly the points at which the paper's
 * predictors make a prediction, and the points at which feedback (the
 * invalidated reader set) becomes available.
 */

#ifndef CCP_TRACE_EVENT_HH
#define CCP_TRACE_EVENT_HH

#include <cstdint>
#include <limits>

#include "common/bitmap.hh"
#include "common/types.hh"

namespace ccp::trace {

/** Sentinel for "no previous event on this block". */
inline constexpr EventSeq noEvent =
    std::numeric_limits<EventSeq>::max();

/**
 * One coherence store miss.
 *
 * The *feedback* available at the time of the event is @ref
 * invalidated (the true readers of the version that just died, i.e.
 * the sharing bitmap at invalidation) and the identity of the previous
 * writer.  The *outcome* to be predicted is @ref readers: the true
 * readers of the value written by this event, known only in hindsight
 * (trace finalization fills it in, matching the paper's use of a first
 * pass plus final memory state to simulate ordered update).
 *
 * The fields are in the order of the on-disk v4 record (PackedEvent in
 * trace/format.hh, which asserts the two layouts agree), so a loaded
 * trace's events are the verified file mapping itself.
 */
struct CoherenceEvent
{
    /** Static store instruction of the writer. */
    Pc pc = 0;
    /** Block number (byte address >> blockShift). */
    Addr block = 0;

    /**
     * True readers of the previous version of the block — the sharing
     * bitmap at invalidation, excluding the previous writer itself.
     */
    SharingBitmap invalidated;

    /**
     * True readers of the value written by this event (nodes other
     * than @ref pid that obtain a copy before the next coherence store
     * miss on this block, or by the end of the trace).
     */
    SharingBitmap readers;

    /** Static store pc of the previous writer (valid if
     *  hasPrevWriter). */
    Pc prevWriterPc = 0;
    /** Sequence number of the previous event on this block. */
    EventSeq prevEvent = noEvent;

    /** Writer node issuing the store. */
    NodeId pid = 0;
    /** Home (directory) node of the block. */
    NodeId dir = 0;
    /** Previous writer node (valid if hasPrevWriter). */
    NodeId prevWriterPid = 0;
    /** False for the first write ever observed on this block. */
    bool hasPrevWriter = false;
};

} // namespace ccp::trace

#endif // CCP_TRACE_EVENT_HH
