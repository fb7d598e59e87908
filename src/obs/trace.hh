/**
 * @file
 * Execution tracing: low-overhead, thread-safe span recording that
 * flushes to Chrome trace-event JSON (loadable in chrome://tracing
 * and Perfetto).
 *
 * Design — the same shard-then-merge discipline as StatsRegistry:
 *
 *  - Each thread records into its own fixed-capacity buffer (single
 *    producer, no locks, no allocation on the hot path); the global
 *    Tracer only takes a mutex to register a new thread's buffer and
 *    to drain all buffers at flush().
 *  - Spans are RAII (TraceSpan / the CCP_TRACE_SPAN macros): a 'B'
 *    record is pushed at construction, the matching 'E' at
 *    destruction.  Admission reserves one slot per open span, so an
 *    accepted begin always has room for its end — a flushed trace
 *    never contains an orphaned 'B', and per-thread timestamps are
 *    monotone by construction.  When a buffer is full new spans are
 *    dropped (counted, reported in the trace metadata and under the
 *    `trace.events_dropped` stat), never torn.
 *  - When tracing is disabled (the default) a span is one relaxed
 *    atomic load; with CCP_TRACE_DISABLED defined the macros compile
 *    to nothing at all.
 *  - With perf sampling on (Tracer::Options::perfCounters, bench flag
 *    --perf-counters), each span's 'E' event carries the span's
 *    cycles / instructions / cache-miss / branch-miss deltas from the
 *    thread's perf_event_open group (obs/perf.hh) as event args —
 *    no-op where counters are unavailable.
 *
 * Span names and categories must be string literals (or otherwise
 * outlive the Tracer): records store the pointers, not copies.
 */

#ifndef CCP_OBS_TRACE_HH
#define CCP_OBS_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/perf.hh"

namespace ccp::obs {

class Tracer
{
  public:
    struct Options
    {
        /** Output file for flush(); the Chrome-trace JSON document. */
        std::string path;
        /** Per-thread record capacity (two records per span). */
        std::size_t bufferRecords = 1 << 16;
        /** Sample hardware counters per span (obs/perf.hh). */
        bool perfCounters = false;
    };

    /** One recorded begin/end; name/cat are unowned static strings. */
    struct Record
    {
        const char *name = nullptr;
        const char *cat = nullptr;
        std::uint64_t tsNs = 0;
        char phase = 'B';
        /** 'B' only: optional "items" arg (~0 = absent). */
        std::uint64_t arg = ~std::uint64_t(0);
        /** 'E' only: span perf deltas (valid flag gates emission). */
        PerfSample perf;
    };

    /** Per-thread record buffer: bounded append, owner-only writes,
     *  published to the flusher with release/acquire on size_. */
    class ThreadBuf
    {
      public:
        explicit ThreadBuf(unsigned tid, std::size_t capacity)
            : tid_(tid), records_(capacity)
        {
        }

        unsigned tid() const { return tid_; }

        /** Try to admit a span begin: requires room for this 'B',
         *  the 'E' of every open span, and this span's own 'E'. */
        bool
        beginSpan(const char *cat, const char *name, std::uint64_t arg,
                  std::uint64_t tsNs)
        {
            std::size_t size =
                size_.load(std::memory_order_relaxed);
            if (size + open_ + 2 > records_.size()) {
                dropped_.fetch_add(1, std::memory_order_relaxed);
                return false;
            }
            Record &r = records_[size];
            r.name = name;
            r.cat = cat;
            r.tsNs = tsNs;
            r.phase = 'B';
            r.arg = arg;
            r.perf = PerfSample{};
            ++open_;
            size_.store(size + 1, std::memory_order_release);
            return true;
        }

        /** Close the innermost accepted span (room is reserved). */
        void
        endSpan(const char *cat, const char *name, std::uint64_t tsNs,
                const PerfSample &perf)
        {
            std::size_t size =
                size_.load(std::memory_order_relaxed);
            Record &r = records_[size];
            r.name = name;
            r.cat = cat;
            r.tsNs = tsNs;
            r.phase = 'E';
            r.arg = ~std::uint64_t(0);
            r.perf = perf;
            --open_;
            size_.store(size + 1, std::memory_order_release);
        }

        /** Records visible to a concurrent reader (acquire). */
        std::size_t
        visibleSize() const
        {
            return size_.load(std::memory_order_acquire);
        }

        const Record &record(std::size_t i) const { return records_[i]; }

        std::uint64_t
        dropped() const
        {
            return dropped_.load(std::memory_order_relaxed);
        }

        /** Drop every record and hold @p capacity records from now
         *  on (no recording may be in flight on the owner thread). */
        void
        reset(std::size_t capacity)
        {
            if (records_.size() != capacity)
                records_.assign(capacity, Record{});
            size_.store(0, std::memory_order_relaxed);
            dropped_.store(0, std::memory_order_relaxed);
            open_ = 0;
        }

      private:
        unsigned tid_;
        std::vector<Record> records_;
        std::atomic<std::size_t> size_{0};
        std::atomic<std::uint64_t> dropped_{0};
        /** Accepted-but-unclosed spans (owner thread only). */
        std::size_t open_ = 0;
    };

    static Tracer &instance();

    /** Whether spans record anything right now (one relaxed load —
     *  the entire cost of an instrumented site when tracing is off). */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Whether spans sample perf counters (checked after enabled()). */
    static bool
    perfSampling()
    {
        return perfSampling_.load(std::memory_order_relaxed);
    }

    /** Start recording (clears any previously recorded spans and
     *  gives every thread's buffer the new bufferRecords). */
    void enable(Options opts);

    /**
     * Stop recording, serialize everything recorded to the configured
     * path (atomic temp + rename), and report drop counts.  @return
     * false on I/O failure.  Safe to call with spans still open on
     * other threads: their 'B' records are closed with a synthetic
     * 'E' at the thread's last timestamp so the output is always
     * well-formed.
     */
    bool flush();

    /** Stop recording without writing (tests). */
    void disable();

    /** Total spans dropped to full buffers since enable(). */
    std::uint64_t droppedTotal() const;

    /** Nanoseconds since the tracer epoch (steady clock). */
    static std::uint64_t nowNs();

    /** The calling thread's buffer, created and registered on first
     *  use (tid assigned in registration order; 0 = first/main). */
    ThreadBuf *threadBuf();

    /** Serialize to a string (tests; same document flush() writes). */
    std::string serialize();

  private:
    Tracer() = default;

    static std::atomic<bool> enabled_;
    static std::atomic<bool> perfSampling_;

    std::mutex mutex_;
    Options opts_;
    /** Buffers live for the process lifetime: worker threads may die
     *  (pool teardown) before flush reads their records. */
    std::vector<std::unique_ptr<ThreadBuf>> buffers_;
};

/**
 * RAII span: records 'B' on construction and the matching 'E' on
 * destruction into the calling thread's buffer.  Free of any cost
 * except one atomic load when tracing is disabled.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *cat, const char *name)
        : TraceSpan(cat, name, ~std::uint64_t(0))
    {
    }

    /** @param arg an "items" count attached to the begin event. */
    TraceSpan(const char *cat, const char *name, std::uint64_t arg)
    {
        if (!Tracer::enabled())
            return;
        Tracer::ThreadBuf *buf = Tracer::instance().threadBuf();
        if (!buf->beginSpan(cat, name, arg, Tracer::nowNs()))
            return;
        buf_ = buf;
        cat_ = cat;
        name_ = name;
        if (Tracer::perfSampling())
            beginPerf_ = PerfCounters::thread().read();
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (!buf_)
            return;
        PerfSample delta;
        if (beginPerf_.valid)
            delta = PerfCounters::thread().read() - beginPerf_;
        buf_->endSpan(cat_, name_, Tracer::nowNs(), delta);
    }

    /** True when the begin event was admitted (tests). */
    bool armed() const { return buf_ != nullptr; }

  private:
    Tracer::ThreadBuf *buf_ = nullptr;
    const char *cat_ = nullptr;
    const char *name_ = nullptr;
    PerfSample beginPerf_;
};

/**
 * Record a complete span [beginNs, endNs] after the fact — for
 * periods the instrumented code only knows retroactively (a worker's
 * idle wait ends when it wakes).  Both records are pushed now, so the
 * caller must not have pushed anything since @p beginNs.
 */
void traceCompleteSpan(const char *cat, const char *name,
                       std::uint64_t beginNs, std::uint64_t endNs);

} // namespace ccp::obs

// Span macros: zero-cost when CCP_TRACE_DISABLED is defined, one
// relaxed atomic load when tracing is off at runtime.
#define CCP_TRACE_CONCAT2(a, b) a##b
#define CCP_TRACE_CONCAT(a, b) CCP_TRACE_CONCAT2(a, b)

#ifndef CCP_TRACE_DISABLED
#define CCP_TRACE_SPAN(cat, name)                                      \
    ccp::obs::TraceSpan CCP_TRACE_CONCAT(ccp_trace_span_,              \
                                         __LINE__)(cat, name)
#define CCP_TRACE_SPAN_N(cat, name, n)                                 \
    ccp::obs::TraceSpan CCP_TRACE_CONCAT(ccp_trace_span_,              \
                                         __LINE__)(cat, name,          \
                                                   std::uint64_t(n))
#else
#define CCP_TRACE_SPAN(cat, name) ((void)0)
#define CCP_TRACE_SPAN_N(cat, name, n) ((void)0)
#endif

#endif // CCP_OBS_TRACE_HH
