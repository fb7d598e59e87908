#include "obs/trace.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"

namespace ccp::obs {

std::atomic<bool> Tracer::enabled_{false};
std::atomic<bool> Tracer::perfSampling_{false};

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

namespace {

thread_local Tracer::ThreadBuf *tls_buf = nullptr;

/** Per-thread record capacity under @p opts (0 = the default). */
std::size_t
bufferCapacity(const Tracer::Options &opts)
{
    return opts.bufferRecords ? opts.bufferRecords
                              : (std::size_t(1) << 16);
}

/** ThreadPool instrumentation (common/thread_pool.hh hooks): the pool
 *  itself cannot depend on obs, so the tracer installs these when
 *  enabled.  Chunk spans are live; idle waits are recorded
 *  retroactively at wake (the thread pushes nothing while parked, so
 *  per-thread timestamp order is preserved). */
/** The buffer whose pool.chunk begin was admitted (chunks never nest
 *  on a thread, so one slot suffices); null = nothing to close. */
thread_local Tracer::ThreadBuf *tls_chunk_buf = nullptr;

void
hookChunkBegin(std::size_t first, std::size_t count)
{
    (void)first;
    if (!Tracer::enabled())
        return;
    Tracer::ThreadBuf *buf = Tracer::instance().threadBuf();
    if (buf->beginSpan("pool", "pool.chunk", count, Tracer::nowNs()))
        tls_chunk_buf = buf;
}

void
hookChunkEnd()
{
    // Close only what chunkBegin admitted — a dropped begin has no
    // matching end, and the close happens even if tracing was just
    // disabled (flush synthesizes ends only for parked threads).
    if (!tls_chunk_buf)
        return;
    tls_chunk_buf->endSpan("pool", "pool.chunk", Tracer::nowNs(),
                           PerfSample{});
    tls_chunk_buf = nullptr;
}

std::uint64_t
hookNowNs()
{
    return Tracer::nowNs();
}

void
hookIdle(std::uint64_t beginNs, std::uint64_t endNs)
{
    traceCompleteSpan("pool", "pool.idle", beginNs, endNs);
}

constexpr PoolTraceHooks poolHooks = {hookChunkBegin, hookChunkEnd,
                                      hookIdle, hookNowNs};

/** Minimal JSON string escaping for span names/categories. */
std::string
escapeJson(const char *s)
{
    std::string out;
    for (; s && *s; ++s) {
        if (*s == '"' || *s == '\\')
            out.push_back('\\');
        out.push_back(*s);
    }
    return out;
}

} // namespace

Tracer::ThreadBuf *
Tracer::threadBuf()
{
    if (tls_buf)
        return tls_buf;
    std::lock_guard<std::mutex> lock(mutex_);
    unsigned tid = static_cast<unsigned>(buffers_.size());
    buffers_.push_back(
        std::make_unique<ThreadBuf>(tid, bufferCapacity(opts_)));
    tls_buf = buffers_.back().get();
    return tls_buf;
}

void
Tracer::enable(Options opts)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        opts_ = std::move(opts);
        // A buffer made under an earlier enable() keeps its thread
        // but takes this run's capacity.
        for (auto &buf : buffers_)
            buf->reset(bufferCapacity(opts_));
    }
    perfSampling_.store(opts_.perfCounters,
                        std::memory_order_relaxed);
    setPoolTraceHooks(&poolHooks);
    // Pin the epoch before the first span so timestamps are small.
    nowNs();
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
    perfSampling_.store(false, std::memory_order_relaxed);
    setPoolTraceHooks(nullptr);
}

std::uint64_t
Tracer::droppedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &buf : buffers_)
        total += buf->dropped();
    return total;
}

std::string
Tracer::serialize()
{
    std::lock_guard<std::mutex> lock(mutex_);

    std::string out;
    out.reserve(1 << 20);
    out += "{\"traceEvents\":[\n";

    char line[512];
    bool first = true;
    auto emit = [&](const char *text) {
        if (!first)
            out += ",\n";
        first = false;
        out += text;
    };

    std::snprintf(line, sizeof(line),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":0,\"args\":{\"name\":\"ccp\"}}");
    emit(line);

    std::uint64_t dropped = 0;
    for (const auto &buf : buffers_) {
        const unsigned tid = buf->tid();
        dropped += buf->dropped();
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":1,\"tid\":%u,\"args\":{\"name\":"
                      "\"%s\"}}",
                      tid, tid == 0 ? "main" : "worker");
        emit(line);

        const std::size_t n = buf->visibleSize();
        // Spans still open at flush (a worker parked in its pool
        // loop): close them LIFO at the thread's last timestamp so
        // every 'B' has its 'E' and timestamps stay monotone.
        std::vector<const Record *> open;
        std::uint64_t last_ts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Record &r = buf->record(i);
            last_ts = r.tsNs;
            const double us = double(r.tsNs) / 1e3;
            if (r.phase == 'B') {
                open.push_back(&r);
                if (r.arg != ~std::uint64_t(0)) {
                    std::snprintf(
                        line, sizeof(line),
                        "{\"name\":\"%s\",\"cat\":\"%s\","
                        "\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,"
                        "\"tid\":%u,\"args\":{\"items\":%llu}}",
                        escapeJson(r.name).c_str(),
                        escapeJson(r.cat).c_str(), us, tid,
                        static_cast<unsigned long long>(r.arg));
                } else {
                    std::snprintf(line, sizeof(line),
                                  "{\"name\":\"%s\",\"cat\":\"%s\","
                                  "\"ph\":\"B\",\"ts\":%.3f,"
                                  "\"pid\":1,\"tid\":%u}",
                                  escapeJson(r.name).c_str(),
                                  escapeJson(r.cat).c_str(), us, tid);
                }
            } else {
                if (!open.empty())
                    open.pop_back();
                if (r.perf.valid) {
                    std::snprintf(
                        line, sizeof(line),
                        "{\"name\":\"%s\",\"cat\":\"%s\","
                        "\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,"
                        "\"tid\":%u,\"args\":{\"cycles\":%llu,"
                        "\"instructions\":%llu,\"cache_misses\":"
                        "%llu,\"branch_misses\":%llu,"
                        "\"ipc\":%.3f}}",
                        escapeJson(r.name).c_str(),
                        escapeJson(r.cat).c_str(), us, tid,
                        static_cast<unsigned long long>(
                            r.perf.cycles),
                        static_cast<unsigned long long>(
                            r.perf.instructions),
                        static_cast<unsigned long long>(
                            r.perf.cacheMisses),
                        static_cast<unsigned long long>(
                            r.perf.branchMisses),
                        r.perf.ipc());
                } else {
                    std::snprintf(line, sizeof(line),
                                  "{\"name\":\"%s\",\"cat\":\"%s\","
                                  "\"ph\":\"E\",\"ts\":%.3f,"
                                  "\"pid\":1,\"tid\":%u}",
                                  escapeJson(r.name).c_str(),
                                  escapeJson(r.cat).c_str(), us, tid);
                }
            }
            emit(line);
        }
        while (!open.empty()) {
            const Record *r = open.back();
            open.pop_back();
            std::snprintf(line, sizeof(line),
                          "{\"name\":\"%s\",\"cat\":\"%s\","
                          "\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,"
                          "\"tid\":%u}",
                          escapeJson(r->name).c_str(),
                          escapeJson(r->cat).c_str(),
                          double(last_ts) / 1e3, tid);
            emit(line);
        }
    }

    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
    std::snprintf(line, sizeof(line),
                  "\"dropped_spans\":%llu,\"perf_counters\":%s}}\n",
                  static_cast<unsigned long long>(dropped),
                  opts_.perfCounters ? "true" : "false");
    out += line;
    return out;
}

bool
Tracer::flush()
{
    disable();

    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = opts_.path;
    }
    if (path.empty())
        return false;

    const std::uint64_t dropped = droppedTotal();
    if (dropped > 0) {
        StatsRegistry::root().counter("trace.events_dropped") +=
            dropped;
        ccp_warn("tracer: ", dropped,
                 " span(s) dropped to full thread buffers (raise "
                 "Options::bufferRecords)");
    }

    // Atomic temp + rename, the trace-v4 discipline: a crashed or
    // concurrent run never leaves a partial trace file behind.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os << serialize();
        if (!os.good())
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

void
traceCompleteSpan(const char *cat, const char *name,
                  std::uint64_t beginNs, std::uint64_t endNs)
{
    if (!Tracer::enabled())
        return;
    Tracer::ThreadBuf *buf = Tracer::instance().threadBuf();
    if (!buf->beginSpan(cat, name, ~std::uint64_t(0), beginNs))
        return;
    buf->endSpan(cat, name, endNs < beginNs ? beginNs : endNs,
                 PerfSample{});
}

} // namespace ccp::obs
