/**
 * @file
 * SharingTrace: an in-memory sequence of coherence events plus the
 * run-level statistics the paper reports (Tables 5 and 6), with binary
 * save/load so traces can be generated once and swept many times.
 */

#ifndef CCP_TRACE_TRACE_HH
#define CCP_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/event.hh"

namespace ccp::trace {

/**
 * Run-level metadata mirroring the paper's Table 5 columns, filled by
 * the machine while the trace is generated.
 */
struct TraceMeta
{
    /** Maximum distinct static (shared-data) stores at any node. */
    std::uint64_t maxStaticStoresPerNode = 0;
    /** Maximum distinct stores involved in predictions at any node. */
    std::uint64_t maxPredictedStoresPerNode = 0;
    /** Distinct cache blocks touched by any access. */
    std::uint64_t blocksTouched = 0;
    /** Total memory operations executed through the machine. */
    std::uint64_t totalOps = 0;

    /**
     * Protocol counters captured at generation time (trace format v3)
     * so cached traces keep the behaviour of the run that produced
     * them — run reports include these even when no simulation
     * happened in-process.
     */
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t writeFaults = 0;
    std::uint64_t silentUpgrades = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t downgrades = 0;
    std::uint64_t interventions = 0;
};

/**
 * The complete coherence-event record of one benchmark run.
 *
 * Events appear in global program order (the order the interleaved
 * machine processed them).  After generation the trace is *finalized*:
 * every event's outcome bitmap is complete, including readers observed
 * up to the end of the run (the paper's "final state of the memory").
 *
 * The events live in one of two places.  A loaded trace keeps the
 * verified read-only image it was decoded from (decodeTrace in
 * trace/format.hh): the file mapping for loadFileMapped(), one heap
 * buffer for load().  It serves the image's records in place (the v4
 * record is the in-memory event's layout), so no event is copied, and
 * copies share the image.  A generated trace owns a heap vector, which
 * copies duplicate.  Every write goes through append() or
 * mutableEvents(), which first move a loaded trace's events into an
 * owned vector, so nothing ever writes to an image.
 */
class SharingTrace
{
  public:
    SharingTrace() = default;
    SharingTrace(std::string name, unsigned n_nodes)
        : name_(std::move(name)), nNodes_(n_nodes)
    {
    }

    SharingTrace(const SharingTrace &other);
    SharingTrace(SharingTrace &&other) noexcept;
    SharingTrace &operator=(SharingTrace other) noexcept;

    const std::string &name() const { return name_; }
    unsigned nNodes() const { return nNodes_; }

    std::span<const CoherenceEvent> events() const { return events_; }

    /**
     * The one writable view of the events.  A loaded trace first copies
     * its events into an owned vector (once), so its image stays
     * read-only.  Valid until the next append().
     */
    std::span<CoherenceEvent>
    mutableEvents()
    {
        if (!owned_)
            ownEvents();
        return *owned_;
    }

    TraceMeta &meta() { return meta_; }
    const TraceMeta &meta() const { return meta_; }

    /** Append an event, returning its sequence number. */
    EventSeq append(const CoherenceEvent &ev);

    /** Number of coherence store misses. */
    std::uint64_t storeMisses() const { return events_.size(); }

    /**
     * Total per-bit sharing decisions: one per node per event
     * (Table 6's "Dynamic Sharing Decisions" = 16 x store misses).
     */
    std::uint64_t decisions() const
    {
        return events_.size() * nNodes_;
    }

    /** Total set reader bits (Table 6's "Dynamic Sharing Events"). */
    std::uint64_t sharingEvents() const;

    /** Fraction of decisions that are reads: sharingEvents/decisions. */
    double prevalence() const;

    /**
     * Serialize in trace format v4 (see docs/TRACE_FORMAT.md): a
     * fixed validated header plus a checksummed payload of packed
     * 64-byte event records.  @return false on I/O error or an
     * unrepresentable trace (nNodes outside [1, maxNodes], name too
     * long).
     */
    bool save(std::ostream &os) const;

    /**
     * Deserialize a v4 trace.  The header is validated and its payload
     * size bounded by the remaining stream bytes (when the stream is
     * seekable) *before* any allocation; then the image is read into
     * one buffer, validated by decodeTrace() and kept as the events'
     * storage.  On any failure the destination trace is left
     * completely unchanged.  @return false on error.
     */
    bool load(std::istream &is);

    /**
     * Save to @p path atomically: the bytes are written to a
     * temporary file in the same directory and rename()d into place
     * only once complete, so concurrent readers and writers of a
     * shared trace cache never observe a partial file.  The temporary
     * is removed on any failure.
     */
    bool saveFile(const std::string &path) const;

    /**
     * Load from @p path, preferring the memory-mapped zero-copy
     * reader and falling back to the stream reader where mapping is
     * unavailable.  Same validation guarantees as load().
     */
    bool loadFile(const std::string &path);

    /**
     * Memory-mapped read path: maps the file read-only, validates the
     * mapping with decodeTrace(), then keeps it and serves the event
     * records in place — no event is copied.  The
     * file must not be edited or truncated while the trace (or a copy)
     * lives; saveFile() replaces files by rename(), which is safe.
     * @return false if mapping is unavailable on this platform or the
     * file is invalid; the destination trace is left unchanged on
     * failure.
     */
    bool loadFileMapped(const std::string &path);

    /** Portable stream-based file reader (the loadFile fallback). */
    bool loadFileStream(const std::string &path);

  private:
    /** loadFileMapped internals: Unavailable means "mapping is not
     *  possible here, try the stream path"; Invalid means the file
     *  exists but fails validation. */
    enum class MapLoad { Ok, Unavailable, Invalid };
    MapLoad loadMappedImpl(const std::string &path);

    /** Give this trace its own heap copy of its events (mutators). */
    void ownEvents();
    /** Decode @p image and, if it is valid, adopt it as this trace:
     *  @p keeper keeps its bytes alive.  Rejects are logged against
     *  @p source. */
    bool adoptImage(std::shared_ptr<const void> keeper,
                    std::span<const std::byte> image, const char *source);
    /** Adopt @p keeper, which keeps @p events alive, as the storage. */
    void adopt(std::shared_ptr<const void> keeper,
               std::span<const CoherenceEvent> events,
               std::vector<CoherenceEvent> *owned);

    std::string name_;
    unsigned nNodes_ = 0;
    TraceMeta meta_;
    /** Keeps the events alive: the decoded image or an owned vector. */
    std::shared_ptr<const void> keeper_;
    /** The vector keeper_ holds when this trace owns its events. */
    std::vector<CoherenceEvent> *owned_ = nullptr;
    std::span<const CoherenceEvent> events_;
};

} // namespace ccp::trace

#endif // CCP_TRACE_TRACE_HH
