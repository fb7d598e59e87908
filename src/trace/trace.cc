#include "trace/trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "trace/format.hh"

#if defined(__unix__) || defined(__APPLE__)
#define CCP_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/io.hh"
#endif

namespace ccp::trace {

namespace {

/** Events per chunk when saving, decoding, and first reading an
 *  unseekable stream (64 KiB). */
constexpr std::size_t eventChunk = 1024;

bool
writeBytes(std::ostream &os, const void *data, std::size_t n)
{
    os.write(static_cast<const char *>(data),
             static_cast<std::streamsize>(n));
    return bool(os);
}

bool
readBytes(std::istream &is, void *data, std::size_t n)
{
    is.read(static_cast<char *>(data),
            static_cast<std::streamsize>(n));
    return bool(is);
}

/**
 * Bytes left in @p is from the current position, or nullopt when the
 * stream is not seekable.  Restores the read position either way.
 */
std::optional<std::uint64_t>
remainingBytes(std::istream &is)
{
    const std::istream::pos_type cur = is.tellg();
    if (cur == std::istream::pos_type(-1)) {
        is.clear();
        return std::nullopt;
    }
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(cur);
    if (end == std::istream::pos_type(-1) || !is) {
        is.clear();
        is.seekg(cur);
        return std::nullopt;
    }
    return static_cast<std::uint64_t>(end - cur);
}

} // namespace

SharingTrace::SharingTrace(const SharingTrace &other)
    : name_(other.name_), nNodes_(other.nNodes_), meta_(other.meta_),
      keeper_(other.keeper_), events_(other.events_)
{
    // An image is read-only, so copies share it; an owned vector is
    // writable, so each copy gets its own.
    if (other.owned_)
        ownEvents();
}

SharingTrace::SharingTrace(SharingTrace &&other) noexcept
    : name_(std::move(other.name_)), nNodes_(other.nNodes_),
      meta_(other.meta_), keeper_(std::move(other.keeper_)),
      owned_(std::exchange(other.owned_, nullptr)),
      events_(std::exchange(other.events_, {}))
{
}

SharingTrace &
SharingTrace::operator=(SharingTrace other) noexcept
{
    std::swap(name_, other.name_);
    std::swap(nNodes_, other.nNodes_);
    std::swap(meta_, other.meta_);
    std::swap(keeper_, other.keeper_);
    std::swap(owned_, other.owned_);
    std::swap(events_, other.events_);
    return *this;
}

void
SharingTrace::adopt(std::shared_ptr<const void> keeper,
                    std::span<const CoherenceEvent> events,
                    std::vector<CoherenceEvent> *owned)
{
    keeper_ = std::move(keeper);
    events_ = events;
    owned_ = owned;
}

void
SharingTrace::ownEvents()
{
    auto v = std::make_shared<std::vector<CoherenceEvent>>(
        events_.begin(), events_.end());
    std::vector<CoherenceEvent> *owned = v.get();
    adopt(std::move(v), *owned, owned);
}

EventSeq
SharingTrace::append(const CoherenceEvent &ev)
{
    if (!owned_)
        ownEvents();
    owned_->push_back(ev);
    events_ = *owned_;
    return events_.size() - 1;
}

std::uint64_t
SharingTrace::sharingEvents() const
{
    std::uint64_t total = 0;
    for (const auto &ev : events_)
        total += ev.readers.popcount();
    return total;
}

double
SharingTrace::prevalence() const
{
    auto d = decisions();
    return d ? static_cast<double>(sharingEvents()) /
                   static_cast<double>(d)
             : 0.0;
}

bool
SharingTrace::save(std::ostream &os) const
{
    if (nNodes_ == 0 || nNodes_ > maxNodes) {
        ccp_warn("trace '", name_, "': cannot save with nNodes ",
                 nNodes_, " (want 1..", maxNodes, ")");
        return false;
    }
    if (name_.size() > maxTraceNameBytes)
        return false;

    TraceHeader h;
    h.nNodes = nNodes_;
    h.nameBytes = static_cast<std::uint32_t>(name_.size());
    h.eventCount = events_.size();
    h.payloadBytes = expectedPayloadBytes(h.eventCount, h.nameBytes);
    if (h.payloadBytes == 0)
        return false;

    const PackedMeta meta = packMeta(meta_);

    // Pass 1: checksum the file exactly as it will be written
    // (header with zeroed checksum field, then the payload).
    Fnv1a sum = checksumSeed(h);
    sum.update(meta.data(), sizeof(meta));
    for (const auto &ev : events_) {
        const PackedEvent p = packEvent(ev);
        sum.update(&p, sizeof(p));
    }
    sum.update(name_.data(), name_.size());
    h.checksum = sum.digest();

    // Pass 2: header, then the payload in chunked writes.
    if (!writeBytes(os, &h, sizeof(h)) ||
        !writeBytes(os, meta.data(), sizeof(meta)))
        return false;
    std::vector<PackedEvent> buf;
    buf.reserve(std::min(events_.size(), eventChunk));
    for (std::size_t i = 0; i < events_.size();) {
        buf.clear();
        const std::size_t n =
            std::min(eventChunk, events_.size() - i);
        for (std::size_t k = 0; k < n; ++k)
            buf.push_back(packEvent(events_[i + k]));
        if (!writeBytes(os, buf.data(), n * sizeof(PackedEvent)))
            return false;
        i += n;
    }
    return writeBytes(os, name_.data(), name_.size());
}

const char *
traceRejectText(TraceReject r)
{
    static constexpr const char *text[] = {
        "bad header (magic, version, bounds or payload size)",
        "size does not match the header",
        "checksum mismatch",
        "an event record's hasPrevWriter byte is not 0/1 or its pad "
        "bytes are not zero",
    };
    return text[static_cast<std::size_t>(r)];
}

DecodedTrace
decodeTrace(std::span<const std::byte> image)
{
    ccp_assert(reinterpret_cast<std::uintptr_t>(image.data()) % 8 == 0,
               "a trace image must be 8-byte aligned");
    DecodedTrace d;
    const auto refuse = [&d](TraceReject r) {
        d.reject = r;
        return d;
    };
    TraceHeader &h = d.header;
    if (image.size() < sizeof(h))
        return refuse(TraceReject::Size);
    std::memcpy(&h, image.data(), sizeof(h));
    if (!validateHeader(h))
        return refuse(TraceReject::Header);
    // Exactly header + payload: a truncated *or* padded image is
    // corrupt, not loadable.
    if (image.size() != sizeof(h) + h.payloadBytes)
        return refuse(TraceReject::Size);

    // One pass in chunks: checksum each chunk and apply the byte rule
    // to its records while they are cache-hot.
    const auto *bytes = reinterpret_cast<const unsigned char *>(image.data());
    Fnv1a sum = checksumSeed(h);
    sum.update(bytes + sizeof(h), traceMetaBytes);
    const unsigned char *records = bytes + traceEventOffset;
    bool flags_ok = true;
    for (std::uint64_t i = 0; i < h.eventCount;) {
        const std::uint64_t n =
            std::min<std::uint64_t>(h.eventCount - i, eventChunk);
        const unsigned char *chunk = records + i * sizeof(PackedEvent);
        sum.update(chunk, n * sizeof(PackedEvent));
        flags_ok = validEventFlags(chunk, n) && flags_ok;
        i += n;
    }
    const unsigned char *name = records + h.eventCount * sizeof(PackedEvent);
    sum.update(name, h.nameBytes);
    if (sum.digest() != h.checksum)
        return refuse(TraceReject::Checksum);
    if (!flags_ok)
        return refuse(TraceReject::Record);

    PackedMeta meta_words;
    std::memcpy(meta_words.data(), bytes + sizeof(h), sizeof(meta_words));
    // The records are the events (format.hh asserts the layouts
    // agree).  CoherenceEvent is an implicit-lifetime aggregate, so,
    // as in storage from malloc, its objects begin life in the image.
    d.meta = unpackMeta(meta_words);
    d.name = {reinterpret_cast<const char *>(name), h.nameBytes};
    d.events = {reinterpret_cast<const CoherenceEvent *>(records),
                static_cast<std::size_t>(h.eventCount)};
    return d;
}

bool
SharingTrace::adoptImage(std::shared_ptr<const void> keeper,
                         std::span<const std::byte> image,
                         const char *source)
{
    const DecodedTrace d = decodeTrace(image);
    if (d.reject) {
        ccp_warn("trace load: ", traceRejectText(*d.reject), " in ", source);
        return false;
    }
    // Full success: only now touch the destination trace.
    name_.assign(d.name);
    nNodes_ = d.header.nNodes;
    meta_ = d.meta;
    adopt(std::move(keeper), d.events, nullptr);
    return true;
}

bool
SharingTrace::load(std::istream &is)
{
    TraceHeader h;
    if (!readBytes(is, &h, sizeof(h)))
        return false;
    if (!validateHeader(h)) {
        ccp_warn("trace load: ", traceRejectText(TraceReject::Header),
                 " in stream");
        return false;
    }

    // Bound the payload by the bytes actually present before any
    // allocation: a corrupt header must not drive a huge one.  An
    // unseekable stream grows its buffer by doubling instead, so it
    // never holds more than twice the bytes it has read.
    const auto remaining = remainingBytes(is);
    if (remaining && *remaining < h.payloadBytes)
        return false;

    // The whole image in one 8-byte-aligned buffer, which the trace
    // keeps as its events' storage once decodeTrace() accepts it.
    const std::uint64_t size = sizeof(h) + h.payloadBytes;
    std::uint64_t have =
        remaining ? size : std::min(size, eventChunk * traceEventBytes);
    const auto buffer = [](std::uint64_t n) {
        return std::make_shared_for_overwrite<std::uint64_t[]>((n + 7) / 8);
    };
    auto image = buffer(have);
    std::memcpy(image.get(), &h, sizeof(h));
    for (std::uint64_t got = sizeof(h);;) {
        auto *base = reinterpret_cast<char *>(image.get());
        if (!readBytes(is, base + got, have - got))
            return false;
        if (have == size)
            break;
        got = have;
        have = std::min(size, 2 * have);
        auto grown = buffer(have);
        std::memcpy(grown.get(), image.get(), got);
        image = std::move(grown);
    }
    const std::span<const std::byte> bytes(
        reinterpret_cast<const std::byte *>(image.get()), size);
    return adoptImage(std::move(image), bytes, "stream");
}

bool
SharingTrace::saveFile(const std::string &path) const
{
    CCP_TRACE_SPAN("trace", "trace.save_file");
    // Unique-per-writer temp name in the same directory, so rename()
    // is atomic and concurrent writers of the same cache entry never
    // clobber each other's half-written bytes.
    static std::atomic<unsigned> seq{0};
    std::string tmp = path + ".tmp.";
#if CCP_TRACE_HAVE_MMAP
    tmp += std::to_string(static_cast<long>(::getpid())) + ".";
#endif
    tmp += std::to_string(seq.fetch_add(1, std::memory_order_relaxed));

    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os || !save(os)) {
            os.close();
            std::remove(tmp.c_str());
            return false;
        }
        os.flush();
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
SharingTrace::loadFile(const std::string &path)
{
    switch (loadMappedImpl(path)) {
      case MapLoad::Ok:
        return true;
      case MapLoad::Invalid:
        return false;
      case MapLoad::Unavailable:
        break;
    }
    return loadFileStream(path);
}

bool
SharingTrace::loadFileStream(const std::string &path)
{
    CCP_TRACE_SPAN("trace", "trace.load_stream");
    std::ifstream is(path, std::ios::binary);
    return is && load(is);
}

bool
SharingTrace::loadFileMapped(const std::string &path)
{
    return loadMappedImpl(path) == MapLoad::Ok;
}

#if CCP_TRACE_HAVE_MMAP

namespace {

/** RAII file descriptor: every return path — short file, bad stat,
 *  mmap failure, checksum reject — closes exactly once, so a cache
 *  that rejects and regenerates in a loop cannot leak descriptors
 *  (tests/trace_cache_test.cc loops reject+regenerate and asserts
 *  the process fd count stays flat). */
struct ScopedFd
{
    int fd = -1;

    explicit ScopedFd(int f) : fd(f) {}
    ScopedFd(const ScopedFd &) = delete;
    ScopedFd &operator=(const ScopedFd &) = delete;

    ~ScopedFd()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** RAII mapping of a whole file, read-only; a loaded trace keeps it
 *  as the storage of its events. */
struct FileMapping
{
    const unsigned char *data = nullptr;
    std::uint64_t size = 0;

    FileMapping(const unsigned char *d, std::uint64_t n)
        : data(d), size(n)
    {
    }
    FileMapping(const FileMapping &) = delete;
    FileMapping &operator=(const FileMapping &) = delete;

    ~FileMapping()
    {
        ::munmap(const_cast<unsigned char *>(data), size);
    }
};

} // namespace

SharingTrace::MapLoad
SharingTrace::loadMappedImpl(const std::string &path)
{
    CCP_TRACE_SPAN("trace", "trace.load_mmap");
    const ScopedFd fd(io::openRetry(path.c_str(), O_RDONLY));
    if (fd.fd < 0)
        return MapLoad::Unavailable;
    struct stat st;
    if (::fstat(fd.fd, &st) != 0 || !S_ISREG(st.st_mode))
        return MapLoad::Unavailable;
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    // An empty file cannot be mapped, and is no trace either.
    if (size == 0)
        return MapLoad::Invalid;
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    // Prefault the whole mapping in one syscall instead of ~size/4K
    // minor faults during the scan.
    flags |= MAP_POPULATE;
#endif
    void *map = ::mmap(nullptr, size, PROT_READ, flags, fd.fd, 0);
#ifdef MAP_POPULATE
    if (map == MAP_FAILED)
        map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
#endif
    // The mapping holds its own reference; the descriptor is done
    // (ScopedFd closes it at scope exit on every path below too).
    if (map == MAP_FAILED)
        return MapLoad::Unavailable;
    auto m = std::make_shared<const FileMapping>(
        static_cast<const unsigned char *>(map), size);
    const std::span<const std::byte> image(
        static_cast<const std::byte *>(map), size);
    return adoptImage(std::move(m), image, path.c_str()) ? MapLoad::Ok
                                                        : MapLoad::Invalid;
}

#else // !CCP_TRACE_HAVE_MMAP

SharingTrace::MapLoad
SharingTrace::loadMappedImpl(const std::string &)
{
    return MapLoad::Unavailable;
}

#endif

} // namespace ccp::trace
