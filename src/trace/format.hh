/**
 * @file
 * On-disk layout of trace format v4 (see docs/TRACE_FORMAT.md).
 *
 * v4 replaces the v3 field-by-field stream format with a fixed,
 * validated container:
 *
 *   TraceHeader (64 bytes)  magic, version, nNodes, name length,
 *                           event count, payload byte size, and an
 *                           FNV-1a checksum over the payload
 *   payload                 meta block (13 u64) | packed events | name
 *
 * Every event is a fixed 64-byte PackedEvent record, so the payload
 * size is fully determined by the header and a loader can reject a
 * truncated or oversized file *before* allocating anything, and a
 * loader can serve the records in place as the trace's events.  The
 * name is stored last so the meta block and event array stay 8-byte
 * aligned at fixed offsets.
 */

#ifndef CCP_TRACE_FORMAT_HH
#define CCP_TRACE_FORMAT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

#include "common/types.hh"
#include "trace/event.hh"
#include "trace/trace.hh"

namespace ccp::trace {

/** "CCPT" — unchanged since v1, so old readers fail on version. */
inline constexpr std::uint32_t traceMagic = 0x43435054;

/** Current (and only accepted) trace format version. */
inline constexpr std::uint32_t traceFormatVersion = 4;

/** Upper bound on the stored benchmark-name length. */
inline constexpr std::uint32_t maxTraceNameBytes = 4096;

/**
 * Streaming 64-bit checksum: FNV-1a mixing applied to little-endian
 * 64-bit words (one xor-multiply per 8 bytes) with any tail shorter
 * than a word folded in byte-wise at digest time.  Word-wise mixing
 * keeps checksumming a multi-hundred-MB trace off the load-time
 * critical path (~8x the byte-wise rate) while still changing the
 * digest for any single flipped byte.  The digest is independent of
 * how the input was chunked across update() calls.
 */
class Fnv1a
{
  public:
    void
    update(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        if (pending_len_ > 0) {
            while (n > 0 && pending_len_ < wordBytes) {
                pending_[pending_len_++] = *p++;
                --n;
            }
            if (pending_len_ == wordBytes) {
                std::uint64_t w;
                std::memcpy(&w, pending_, wordBytes);
                mix(w);
                pending_len_ = 0;
            }
        }
        std::uint64_t h = hash_;
        for (; n >= wordBytes; p += wordBytes, n -= wordBytes) {
            std::uint64_t w;
            std::memcpy(&w, p, wordBytes);
            h ^= w;
            h *= prime;
        }
        hash_ = h;
        // pending_len_ is 0 here (the initial drain either emptied the
        // buffer or consumed all input) and n < wordBytes, so the bound
        // never binds -- it exists to make the invariant checkable.
        while (n > 0 && pending_len_ < wordBytes) {
            pending_[pending_len_++] = *p++;
            --n;
        }
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t h = hash_;
        for (std::size_t i = 0; i < pending_len_; ++i) {
            h ^= pending_[i];
            h *= prime;
        }
        return h;
    }

    /** One-shot convenience. */
    static std::uint64_t
    hash(const void *data, std::size_t n)
    {
        Fnv1a f;
        f.update(data, n);
        return f.digest();
    }

  private:
    static constexpr std::size_t wordBytes = 8;
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    void
    mix(std::uint64_t w)
    {
        hash_ ^= w;
        hash_ *= prime;
    }

    std::uint64_t hash_ = offsetBasis;
    unsigned char pending_[wordBytes] = {};
    std::size_t pending_len_ = 0;
};

/**
 * The fixed 64-byte file header.  All fields little-endian (the only
 * byte order this library targets); reserved bytes must be zero.
 */
struct TraceHeader
{
    std::uint32_t magic = traceMagic;
    std::uint32_t version = traceFormatVersion;
    std::uint32_t nNodes = 0;
    std::uint32_t nameBytes = 0;
    std::uint64_t eventCount = 0;
    /** Exact byte size of everything after the header. */
    std::uint64_t payloadBytes = 0;
    /**
     * FNV-1a 64 over the whole file: the header with this field
     * zeroed, then every payload byte in file order.  Covering the
     * header means a flipped bit in *any* file byte is rejected.
     */
    std::uint64_t checksum = 0;
    std::uint8_t reserved[24] = {};
};

static_assert(sizeof(TraceHeader) == 64, "header must stay 64 bytes");
static_assert(std::is_trivially_copyable_v<TraceHeader>);

/**
 * One event as stored on disk: a 64-byte (cache-line sized) record
 * with fixed-width fields, 8-byte alignable, no implicit padding
 * bytes left uninitialized (pad[] is explicit and zeroed).
 */
struct PackedEvent
{
    std::uint64_t pc = 0;
    std::uint64_t block = 0;
    std::uint64_t invalidated = 0;
    std::uint64_t readers = 0;
    std::uint64_t prevWriterPc = 0;
    std::uint64_t prevEvent = 0;
    std::uint32_t pid = 0;
    std::uint32_t dir = 0;
    std::uint32_t prevWriterPid = 0;
    std::uint8_t hasPrevWriter = 0;
    std::uint8_t pad[3] = {};
};

static_assert(sizeof(PackedEvent) == 64, "event record must stay 64 B");
static_assert(alignof(PackedEvent) == 8);
static_assert(std::is_trivially_copyable_v<PackedEvent>);

// A loaded trace's events are its image's records (decodeTrace), so
// the in-memory event must have the record's layout, field for field.
static_assert(sizeof(CoherenceEvent) == sizeof(PackedEvent));
static_assert(std::is_trivially_copyable_v<CoherenceEvent>);
static_assert(std::is_standard_layout_v<CoherenceEvent>);
static_assert(offsetof(CoherenceEvent, pc) == offsetof(PackedEvent, pc));
static_assert(offsetof(CoherenceEvent, block) ==
              offsetof(PackedEvent, block));
static_assert(offsetof(CoherenceEvent, invalidated) ==
              offsetof(PackedEvent, invalidated));
static_assert(offsetof(CoherenceEvent, readers) ==
              offsetof(PackedEvent, readers));
static_assert(offsetof(CoherenceEvent, prevWriterPc) ==
              offsetof(PackedEvent, prevWriterPc));
static_assert(offsetof(CoherenceEvent, prevEvent) ==
              offsetof(PackedEvent, prevEvent));
static_assert(offsetof(CoherenceEvent, pid) == offsetof(PackedEvent, pid));
static_assert(offsetof(CoherenceEvent, dir) == offsetof(PackedEvent, dir));
static_assert(offsetof(CoherenceEvent, prevWriterPid) ==
              offsetof(PackedEvent, prevWriterPid));
static_assert(offsetof(CoherenceEvent, hasPrevWriter) ==
              offsetof(PackedEvent, hasPrevWriter));
static_assert(sizeof(SharingBitmap) == sizeof(std::uint64_t));
static_assert(sizeof(bool) == 1);

/**
 * The per-event byte rule decodeTrace() applies to @p n consecutive
 * 64-byte records at @p records: every hasPrevWriter byte is 0 or 1
 * and the three pad bytes after it are zero.  A loaded trace reads
 * that byte as a bool, where any other value is undefined behaviour,
 * so a record that breaks the rule is rejected like a checksum
 * mismatch.  Little-endian: the byte and its pad read as one u32 that
 * must be at most 1.
 */
inline bool
validEventFlags(const unsigned char *records, std::size_t n)
{
    std::uint32_t bad = 0;
    for (std::size_t k = 0; k < n; ++k) {
        std::uint32_t w;
        std::memcpy(&w,
                    records + k * sizeof(PackedEvent) +
                        offsetof(PackedEvent, hasPrevWriter),
                    sizeof(w));
        bad |= w >> 1;
    }
    return bad == 0;
}

/** Field by field, so the pad bytes are zero: a CoherenceEvent's own
 *  padding is indeterminate, so its raw bytes are never written. */
inline PackedEvent
packEvent(const CoherenceEvent &ev)
{
    PackedEvent p;
    p.pc = ev.pc;
    p.block = ev.block;
    p.invalidated = ev.invalidated.raw();
    p.readers = ev.readers.raw();
    p.prevWriterPc = ev.prevWriterPc;
    p.prevEvent = ev.prevEvent;
    p.pid = ev.pid;
    p.dir = ev.dir;
    p.prevWriterPid = ev.prevWriterPid;
    p.hasPrevWriter = ev.hasPrevWriter ? 1 : 0;
    return p;
}

/** The meta block: TraceMeta as an explicitly ordered u64 array, so
 *  the file layout never silently follows struct-layout changes. */
inline constexpr std::size_t traceMetaWords = 13;
using PackedMeta = std::array<std::uint64_t, traceMetaWords>;

inline PackedMeta
packMeta(const TraceMeta &m)
{
    return {m.maxStaticStoresPerNode, m.maxPredictedStoresPerNode,
            m.blocksTouched,          m.totalOps,
            m.reads,                  m.writes,
            m.readMisses,             m.writeMisses,
            m.writeFaults,            m.silentUpgrades,
            m.invalidationsSent,      m.downgrades,
            m.interventions};
}

inline TraceMeta
unpackMeta(const PackedMeta &w)
{
    TraceMeta m;
    m.maxStaticStoresPerNode = w[0];
    m.maxPredictedStoresPerNode = w[1];
    m.blocksTouched = w[2];
    m.totalOps = w[3];
    m.reads = w[4];
    m.writes = w[5];
    m.readMisses = w[6];
    m.writeMisses = w[7];
    m.writeFaults = w[8];
    m.silentUpgrades = w[9];
    m.invalidationsSent = w[10];
    m.downgrades = w[11];
    m.interventions = w[12];
    return m;
}

inline constexpr std::uint64_t traceMetaBytes =
    traceMetaWords * sizeof(std::uint64_t);
inline constexpr std::uint64_t traceEventBytes = sizeof(PackedEvent);

/** File offset of the first event record: decodeTrace() points the
 *  events there, so it must suit the event's alignment (the image
 *  itself is 8-byte aligned). */
inline constexpr std::uint64_t traceEventOffset =
    sizeof(TraceHeader) + traceMetaBytes;
static_assert(traceEventOffset == 168);
static_assert(traceEventOffset % alignof(CoherenceEvent) == 0);

/** Hard cap on the event count field: anything above this cannot be a
 *  real trace and is rejected before size arithmetic. */
inline constexpr std::uint64_t maxTraceEvents =
    std::uint64_t(1) << 40;

/**
 * The payload size a header's counts imply, or 0 on overflow/absurd
 * counts.  A valid file's payloadBytes field must equal this exactly.
 */
inline constexpr std::uint64_t
expectedPayloadBytes(std::uint64_t event_count,
                     std::uint32_t name_bytes)
{
    if (event_count > maxTraceEvents || name_bytes > maxTraceNameBytes)
        return 0;
    return traceMetaBytes + event_count * traceEventBytes + name_bytes;
}

/**
 * Structural header validation (no payload access): magic, version,
 * nNodes ∈ [1, maxNodes], bounded name length and event count, and a
 * payloadBytes field consistent with those counts.  @return false
 * with no side effects on any violation.
 */
inline bool
validateHeader(const TraceHeader &h)
{
    if (h.magic != traceMagic || h.version != traceFormatVersion)
        return false;
    if (h.nNodes == 0 || h.nNodes > maxNodes)
        return false;
    if (h.nameBytes > maxTraceNameBytes ||
        h.eventCount > maxTraceEvents)
        return false;
    for (std::uint8_t b : h.reserved)
        if (b != 0)
            return false;
    const std::uint64_t expect =
        expectedPayloadBytes(h.eventCount, h.nameBytes);
    return expect != 0 && h.payloadBytes == expect;
}

/** Seed a checksum with the header, its checksum field zeroed. */
inline Fnv1a
checksumSeed(const TraceHeader &h)
{
    TraceHeader zeroed = h;
    zeroed.checksum = 0;
    Fnv1a sum;
    sum.update(&zeroed, sizeof(zeroed));
    return sum;
}

/** Why decodeTrace() refused an image, in the order it checks. */
enum class TraceReject : std::uint8_t
{
    Header,   ///< validateHeader() failed
    Size,     ///< not exactly 64 + payloadBytes bytes (or no header)
    Checksum, ///< the whole-image checksum does not match
    Record,   ///< an event record breaks the per-event byte rule
};

/** A short phrase for @p r, for diagnostics. */
const char *traceRejectText(TraceReject r);

/**
 * The result of decodeTrace(): a reject, or views into the decoded
 * image (valid for as long as the image's bytes are).
 */
struct DecodedTrace
{
    /** Set when the image was refused; nothing else is then valid. */
    std::optional<TraceReject> reject;
    TraceHeader header;
    TraceMeta meta;
    std::string_view name;
    std::span<const CoherenceEvent> events;
};

/**
 * The one v4 decoder: every loader and `trace_tool verify` validate
 * through it.  Checks the header, the exact image size, and, in one
 * chunked pass, the whole-image checksum and the per-event byte rule.
 * The events are the image's records in place (the record is the
 * event's layout), so @p image must be 8-byte aligned.
 */
DecodedTrace decodeTrace(std::span<const std::byte> image);

} // namespace ccp::trace

#endif // CCP_TRACE_FORMAT_HH
