#include "sweep/checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "obs/registry.hh"
#include "sweep/name.hh"
#include "trace/format.hh"

namespace ccp::sweep {

using trace::Fnv1a;

namespace {

void
hashWord(Fnv1a &h, std::uint64_t v)
{
    h.update(&v, sizeof(v));
}

void
hashString(Fnv1a &h, const std::string &s)
{
    h.update(s.data(), s.size());
    h.update("\0", 1);
}

/** Header checksum seed: the header with its checksum field zeroed. */
Fnv1a
headerChecksumSeed(const CheckpointHeader &h)
{
    CheckpointHeader zeroed = h;
    zeroed.checksum = 0;
    Fnv1a sum;
    sum.update(&zeroed, sizeof(zeroed));
    return sum;
}

bool
validHeaderStructure(const CheckpointHeader &h)
{
    if (h.magic != checkpointMagic ||
        h.version != checkpointFormatVersion)
        return false;
    if (h.nNodes == 0 || h.nNodes > maxNodes)
        return false;
    if (h.kernel > static_cast<std::uint32_t>(SweepKernel::Reference))
        return false;
    if (h.nTraces == 0 || h.nTraces > maxCheckpointTraces)
        return false;
    for (std::uint8_t b : h.reserved)
        if (b != 0)
            return false;
    if (h.entryCount > h.schemeCount)
        return false;
    const std::uint64_t entry_bytes = checkpointEntryBytes(h.nTraces);
    if (h.entryCount > ~std::uint64_t(0) / entry_bytes)
        return false;
    return h.payloadBytes == h.entryCount * entry_bytes;
}

void
putWord(std::vector<char> &out, std::uint64_t v)
{
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.insert(out.end(), buf, buf + 8);
}

std::uint64_t
getWord(const char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/** fsync @p fd, accounting the call (or its fault-armed skip) under
 *  checkpoint.fsyncs / checkpoint.fsyncs_skipped so tests can prove
 *  the durability barrier actually ran.  @return false on I/O error. */
bool
syncFd(int fd, bool skip_fsync)
{
    auto &reg = obs::StatsRegistry::current();
    if (skip_fsync) {
        ++reg.counter("checkpoint.fsyncs_skipped");
        return true;
    }
    if (!io::fsyncRetry(fd))
        return false;
    ++reg.counter("checkpoint.fsyncs");
    return true;
}

/**
 * Write the first @p write_bytes of @p image to @p path with crash
 * durability: a unique temp file in the same directory (so rename()
 * never crosses filesystems), fsync of the file *before* rename, the
 * atomic rename, then fsync of the parent directory so the new
 * directory entry itself survives power loss.  Without both barriers
 * a "committed" file can come back empty or torn after a crash —
 * rename() orders nothing against the page cache.
 *
 * Fault points (CCP_FAULT_INJECT): "checkpoint.skip_fsync" suppresses
 * both fsyncs (non-consuming, so one arming covers every write of the
 * run), reproducing the pre-fix behaviour for tests.
 *
 * @return false on any I/O failure; the temp file is removed and any
 * previous file at @p path survives untouched.
 */
bool
durableWriteFile(const std::string &path, const char *image,
                 std::size_t write_bytes)
{
    const bool skip_fsync =
        fault::enabled() &&
        fault::armed("checkpoint.skip_fsync").has_value();

    static std::atomic<unsigned> seq{0};
    std::string tmp = path + ".tmp." +
                      std::to_string(static_cast<long>(::getpid())) +
                      "." +
                      std::to_string(seq.fetch_add(
                          1, std::memory_order_relaxed));

    int fd = io::openRetry(tmp.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644);
    if (fd < 0)
        return false;
    if (!io::writeFull(fd, image, write_bytes)) {
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
    }
    if (!syncFd(fd, skip_fsync)) {
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }

    // Durability of the *name*: the rename is only on disk once the
    // containing directory's entry block is.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir =
        parent.empty() ? std::string(".") : parent.string();
    int dfd = io::openRetry(dir.c_str(),
                            O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0) {
        ccp_warn("cannot open ", dir, " to fsync checkpoint entry");
        return true; // data file itself is durable and in place
    }
    if (!syncFd(dfd, skip_fsync))
        ccp_warn("directory fsync failed for ", dir);
    ::close(dfd);
    return true;
}

} // namespace

CheckpointKey
makeCheckpointKey(const std::vector<trace::SharingTrace> &traces,
                  const std::vector<predict::SchemeSpec> &schemes,
                  predict::UpdateMode mode, SweepKernel kernel)
{
    ccp_assert(!traces.empty(), "checkpoint key over empty suite");

    CheckpointKey key;
    key.nNodes = traces.front().nNodes();
    key.kernel = static_cast<std::uint32_t>(kernel);
    key.nTraces = static_cast<std::uint32_t>(traces.size());
    key.schemeCount = schemes.size();

    // Trace identity: name, geometry, and the canonical packed form
    // of every event (the same 64-byte records the v4 trace file
    // stores), so any change to the evaluated inputs changes the key.
    Fnv1a th;
    hashWord(th, traces.size());
    for (const auto &tr : traces) {
        hashString(th, tr.name());
        hashWord(th, tr.nNodes());
        hashWord(th, tr.events().size());
        for (const auto &ev : tr.events()) {
            trace::PackedEvent p = trace::packEvent(ev);
            th.update(&p, sizeof(p));
        }
    }
    key.traceSetHash = th.digest();

    // Scheme-set identity: the canonical notation of every scheme in
    // order, plus the update mode.  Order matters — checkpoint
    // entries are keyed by position in this list.
    Fnv1a sh;
    hashWord(sh, schemes.size());
    for (const auto &s : schemes)
        hashString(sh, formatScheme(s));
    hashString(sh, predict::updateModeName(mode));
    key.schemeSetHash = sh.digest();
    key.extensionKinds = extensionKindsOf(schemes);
    return key;
}

std::uint32_t
extensionKindsOf(const std::vector<predict::SchemeSpec> &schemes)
{
    std::uint32_t mask = 0;
    for (const auto &s : schemes)
        if (s.kind == predict::FunctionKind::Perceptron)
            mask |= checkpointKindPerceptron;
    return mask;
}

std::string
checkpointFileName(const std::string &base, const CheckpointKey &key)
{
    Fnv1a h;
    auto word = [&h](std::uint64_t v) { h.update(&v, sizeof(v)); };
    word(key.traceSetHash);
    word(key.schemeSetHash);
    word(key.schemeCount);
    word(key.nNodes);
    word(key.kernel);
    word(key.nTraces);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h.digest()));
    return base + "." + hex + ".ckpt";
}

predict::SuiteResult
restoreSuiteResult(const predict::SchemeSpec &scheme,
                   predict::UpdateMode mode,
                   const std::vector<trace::SharingTrace> &traces,
                   const std::vector<predict::Confusion> &per_trace)
{
    ccp_assert(per_trace.size() == traces.size(),
               "restoreSuiteResult trace-count mismatch");
    predict::SuiteResult r;
    r.scheme = scheme;
    r.mode = mode;
    r.perTrace.reserve(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        r.pooled.merge(per_trace[t]);
        r.perTrace.push_back({traces[t].name(), per_trace[t]});
    }
    return r;
}

const char *
checkpointLoadName(CheckpointLoad status)
{
    switch (status) {
      case CheckpointLoad::Ok:
        return "ok";
      case CheckpointLoad::Missing:
        return "missing";
      case CheckpointLoad::Invalid:
        return "invalid";
      case CheckpointLoad::KeyMismatch:
        return "key-mismatch";
      case CheckpointLoad::UnsupportedKind:
        return "unsupported-kind";
    }
    ccp_panic("bad CheckpointLoad");
}

bool
saveCheckpoint(const std::string &path, const CheckpointKey &key,
               std::vector<CheckpointEntry> entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const CheckpointEntry &a, const CheckpointEntry &b) {
                  return a.schemeIndex < b.schemeIndex;
              });

    CheckpointHeader header;
    header.nNodes = key.nNodes;
    header.kernel = key.kernel;
    header.traceSetHash = key.traceSetHash;
    header.schemeSetHash = key.schemeSetHash;
    header.schemeCount = key.schemeCount;
    header.nTraces = key.nTraces;
    header.extensionKinds = key.extensionKinds;
    header.entryCount = entries.size();
    header.payloadBytes =
        entries.size() * checkpointEntryBytes(key.nTraces);

    std::vector<char> payload;
    payload.reserve(header.payloadBytes);
    for (const auto &e : entries) {
        ccp_assert(e.schemeIndex < key.schemeCount,
                   "checkpoint entry out of scheme range");
        ccp_assert(e.perTrace.size() == key.nTraces,
                   "checkpoint entry trace-count mismatch");
        putWord(payload, e.schemeIndex);
        for (const auto &c : e.perTrace) {
            putWord(payload, c.tp);
            putWord(payload, c.fp);
            putWord(payload, c.tn);
            putWord(payload, c.fn);
        }
    }

    Fnv1a sum = headerChecksumSeed(header);
    sum.update(payload.data(), payload.size());
    header.checksum = sum.digest();

    // Full file image, so a torn write can be simulated as a byte
    // prefix regardless of where header/payload boundaries fall.
    std::vector<char> image(sizeof(header) + payload.size());
    std::memcpy(image.data(), &header, sizeof(header));
    // An empty vector's data() may be null, and memcpy from null is
    // UB even for zero bytes.
    if (!payload.empty())
        std::memcpy(image.data() + sizeof(header), payload.data(),
                    payload.size());

    std::size_t write_bytes = image.size();
    if (fault::enabled()) {
        if (auto torn = fault::consume("checkpoint.torn_write"))
            write_bytes = std::min<std::size_t>(write_bytes, *torn);
    }

    return durableWriteFile(path, image.data(), write_bytes);
}

CheckpointLoad
loadCheckpoint(const std::string &path, const CheckpointKey &key,
               std::vector<CheckpointEntry> &entries)
{
    entries.clear();

    std::ifstream is(path, std::ios::binary);
    if (!is)
        return CheckpointLoad::Missing;

    CheckpointHeader header;
    if (!is.read(reinterpret_cast<char *>(&header), sizeof(header)))
        return CheckpointLoad::Invalid;
    if (!validHeaderStructure(header))
        return CheckpointLoad::Invalid;

    // Bound by the real file size before allocating anything.
    std::error_code ec;
    const std::uint64_t file_size =
        std::filesystem::file_size(path, ec);
    if (ec || file_size != sizeof(header) + header.payloadBytes)
        return CheckpointLoad::Invalid;

    std::vector<char> payload(header.payloadBytes);
    if (header.payloadBytes > 0 &&
        !is.read(payload.data(),
                 static_cast<std::streamsize>(payload.size())))
        return CheckpointLoad::Invalid;

    Fnv1a sum = headerChecksumSeed(header);
    sum.update(payload.data(), payload.size());
    if (sum.digest() != header.checksum)
        return CheckpointLoad::Invalid;

    // The container is intact.  Before any key comparison, refuse
    // extension kinds this binary does not implement — a structured
    // "written by a newer binary" failure, not a crash or a silent
    // key mismatch.
    if (header.extensionKinds & ~checkpointSupportedExtensionKinds)
        return CheckpointLoad::UnsupportedKind;

    // Now check it belongs to *this* sweep.
    CheckpointKey file_key;
    file_key.traceSetHash = header.traceSetHash;
    file_key.schemeSetHash = header.schemeSetHash;
    file_key.schemeCount = header.schemeCount;
    file_key.nNodes = header.nNodes;
    file_key.kernel = header.kernel;
    file_key.nTraces = header.nTraces;
    file_key.extensionKinds = header.extensionKinds;
    if (!(file_key == key))
        return CheckpointLoad::KeyMismatch;

    const std::uint64_t entry_bytes =
        checkpointEntryBytes(header.nTraces);
    std::vector<CheckpointEntry> loaded;
    loaded.reserve(header.entryCount);
    const char *p = payload.data();
    std::uint64_t prev_index = 0;
    for (std::uint64_t i = 0; i < header.entryCount;
         ++i, p += entry_bytes) {
        CheckpointEntry e;
        e.schemeIndex = getWord(p);
        if (e.schemeIndex >= header.schemeCount)
            return CheckpointLoad::Invalid;
        // Strictly increasing: rejects duplicates and non-canonical
        // orderings a hand-edited file could smuggle in.
        if (i > 0 && e.schemeIndex <= prev_index)
            return CheckpointLoad::Invalid;
        prev_index = e.schemeIndex;
        e.perTrace.resize(header.nTraces);
        for (std::uint32_t t = 0; t < header.nTraces; ++t) {
            const char *q = p + 8 + std::uint64_t(t) * 32;
            e.perTrace[t].tp = getWord(q);
            e.perTrace[t].fp = getWord(q + 8);
            e.perTrace[t].tn = getWord(q + 16);
            e.perTrace[t].fn = getWord(q + 24);
        }
        loaded.push_back(std::move(e));
    }
    entries = std::move(loaded);
    return CheckpointLoad::Ok;
}

namespace {

/** Blob header checksum seed: the header with its checksum zeroed. */
Fnv1a
blobChecksumSeed(const StateBlobHeader &h)
{
    StateBlobHeader zeroed = h;
    zeroed.checksum = 0;
    Fnv1a sum;
    sum.update(&zeroed, sizeof(zeroed));
    return sum;
}

bool
validBlobHeader(const StateBlobHeader &h)
{
    if (h.magic != stateBlobMagic ||
        h.version != stateBlobFormatVersion)
        return false;
    for (std::uint8_t b : h.reserved)
        if (b != 0)
            return false;
    return true;
}

} // namespace

bool
saveStateBlob(const std::string &path, std::uint64_t key_hash,
              const std::vector<char> &payload,
              std::uint32_t features)
{
    StateBlobHeader header;
    header.keyHash = key_hash;
    header.payloadBytes = payload.size();
    header.features = features;

    Fnv1a sum = blobChecksumSeed(header);
    sum.update(payload.data(), payload.size());
    header.checksum = sum.digest();

    std::vector<char> image(sizeof(header) + payload.size());
    std::memcpy(image.data(), &header, sizeof(header));
    // An empty vector's data() may be null, and memcpy from null is
    // UB even for zero bytes.
    if (!payload.empty())
        std::memcpy(image.data() + sizeof(header), payload.data(),
                    payload.size());

    std::size_t write_bytes = image.size();
    if (fault::enabled()) {
        if (auto torn = fault::consume("checkpoint.torn_write"))
            write_bytes = std::min<std::size_t>(write_bytes, *torn);
    }

    return durableWriteFile(path, image.data(), write_bytes);
}

CheckpointLoad
loadStateBlob(const std::string &path, std::uint64_t key_hash,
              std::vector<char> &payload,
              std::uint32_t supported_features)
{
    payload.clear();

    std::ifstream is(path, std::ios::binary);
    if (!is)
        return CheckpointLoad::Missing;

    StateBlobHeader header;
    if (!is.read(reinterpret_cast<char *>(&header), sizeof(header)))
        return CheckpointLoad::Invalid;
    if (!validBlobHeader(header))
        return CheckpointLoad::Invalid;

    // Bound by the real file size before allocating anything (the
    // trace-v4 / CCPC discipline).
    std::error_code ec;
    const std::uint64_t file_size =
        std::filesystem::file_size(path, ec);
    if (ec || file_size != sizeof(header) + header.payloadBytes)
        return CheckpointLoad::Invalid;

    std::vector<char> loaded(header.payloadBytes);
    if (header.payloadBytes > 0 &&
        !is.read(loaded.data(),
                 static_cast<std::streamsize>(loaded.size())))
        return CheckpointLoad::Invalid;

    Fnv1a sum = blobChecksumSeed(header);
    sum.update(loaded.data(), loaded.size());
    if (sum.digest() != header.checksum)
        return CheckpointLoad::Invalid;

    // Intact blob; refuse features this caller cannot decode before
    // comparing keys, so the failure names its real cause.
    if (header.features & ~supported_features)
        return CheckpointLoad::UnsupportedKind;

    if (header.keyHash != key_hash)
        return CheckpointLoad::KeyMismatch;

    payload = std::move(loaded);
    return CheckpointLoad::Ok;
}

} // namespace ccp::sweep
