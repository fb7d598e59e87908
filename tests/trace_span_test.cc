/**
 * @file
 * Tests for the execution tracer (obs/trace.hh): Chrome-trace JSON
 * well-formedness (every 'B' has its matching 'E', per-thread
 * timestamps are monotone), multi-threaded emission through the
 * ThreadPool hooks, bounded-buffer drop behaviour, retroactive
 * complete spans, flush atomicity, and the perf-counter no-op path.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "obs/json.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"

namespace {

using namespace ccp;
using obs::Json;
using obs::PerfCounters;
using obs::PerfSample;
using obs::Tracer;
using obs::TraceSpan;

/** Enable the singleton tracer with test-friendly options. */
void
enableTracer(std::size_t buffer_records = 1 << 12,
             const std::string &path = "")
{
    Tracer::Options opts;
    opts.path = path;
    opts.bufferRecords = buffer_records;
    Tracer::instance().enable(std::move(opts));
}

/** Parsed and structurally validated trace document. */
struct ValidatedTrace
{
    /** Begin-event counts per span name (across threads). */
    std::map<std::string, unsigned> begins;
    /** Thread names from metadata events. */
    std::vector<std::string> threadNames;
    std::uint64_t droppedSpans = 0;
};

/**
 * Assert the Chrome-trace contract on @p text: a traceEvents array
 * where, per tid, every 'B' is closed by a matching 'E' in LIFO
 * order and timestamps never move backwards.  (Out-param because
 * gtest ASSERTs require a void function.)
 */
void
validateTrace(const std::string &text, ValidatedTrace &out)
{
    auto doc = Json::parse(text);
    ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";

    const Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr) << "no traceEvents array";
    ASSERT_TRUE(events->isArray());

    std::map<std::uint64_t, std::vector<std::string>> stacks;
    std::map<std::uint64_t, double> lastTs;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        ASSERT_TRUE(ev.isObject()) << "event " << i;
        const Json *ph = ev.find("ph");
        const Json *name = ev.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(name, nullptr);
        const std::string &phase = ph->asString();
        if (phase == "M") {
            if (name->asString() == "thread_name")
                out.threadNames.push_back(
                    ev.find("args")->find("name")->asString());
            continue;
        }
        const Json *tid = ev.find("tid");
        const Json *ts = ev.find("ts");
        ASSERT_NE(tid, nullptr) << "event " << i << " missing tid";
        ASSERT_NE(ts, nullptr) << "event " << i << " missing ts";
        const std::uint64_t t = tid->asUInt();
        const double us = ts->asDouble();
        auto [it, fresh] = lastTs.try_emplace(t, us);
        ASSERT_GE(us, it->second)
            << "tid " << t << ": timestamp moved backwards at event "
            << i;
        it->second = us;
        if (phase == "B") {
            stacks[t].push_back(name->asString());
            ++out.begins[name->asString()];
        } else if (phase == "E") {
            ASSERT_FALSE(stacks[t].empty())
                << "tid " << t << ": 'E' for " << name->asString()
                << " with no open span";
            EXPECT_EQ(stacks[t].back(), name->asString())
                << "tid " << t << ": mismatched close at event " << i;
            stacks[t].pop_back();
        } else {
            FAIL() << "unexpected phase '" << phase << "'";
        }
    }
    for (const auto &[t, stack] : stacks)
        EXPECT_TRUE(stack.empty())
            << "tid " << t << ": " << stack.size()
            << " span(s) never closed";

    if (const Json *other = doc->find("otherData"))
        if (const Json *d = other->find("dropped_spans"))
            out.droppedSpans = d->asUInt();
}

TEST(TraceSpan, DisabledTracerMakesSpansNoops)
{
    ASSERT_FALSE(Tracer::enabled());
    TraceSpan span("test", "test.noop");
    EXPECT_FALSE(span.armed());
    CCP_TRACE_SPAN("test", "test.macro_noop"); // must compile + no-op
}

TEST(TraceSpan, NestedSpansSerializeBalanced)
{
    enableTracer();
    {
        TraceSpan outer("test", "test.outer");
        EXPECT_TRUE(outer.armed());
        {
            TraceSpan inner("test", "test.inner", 42);
            EXPECT_TRUE(inner.armed());
        }
        TraceSpan sibling("test", "test.sibling");
    }
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.outer"], 1u);
    EXPECT_EQ(v.begins["test.inner"], 1u);
    EXPECT_EQ(v.begins["test.sibling"], 1u);
    EXPECT_EQ(v.droppedSpans, 0u);
    // The items arg rides on the begin event.
    EXPECT_NE(text.find("\"items\":42"), std::string::npos);
}

TEST(TraceSpan, ThreadPoolEmissionIsWellFormedAcrossThreads)
{
    enableTracer();
    {
        ThreadPool pool(4);
        pool.forEach(
            64,
            [](std::size_t job, unsigned) {
                CCP_TRACE_SPAN_N("test", "test.job", job);
                // A little nesting inside worker threads.
                TraceSpan inner("test", "test.job_inner");
            },
            4);
    }
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.job"], 64u);
    EXPECT_EQ(v.begins["test.job_inner"], 64u);
    // The pool hooks record every dispatched chunk (64 jobs / 4 per
    // chunk = 16 chunks).
    EXPECT_EQ(v.begins["pool.chunk"], 16u);
    // Thread metadata names main + the workers that recorded spans.
    EXPECT_GE(v.threadNames.size(), 2u);
    EXPECT_EQ(v.threadNames[0], "main");
    EXPECT_EQ(v.droppedSpans, 0u);
}

TEST(TraceSpan, FullBufferDropsSpansButNeverTearsThem)
{
    // Capacity 8 records = 4 sequential spans; the rest must drop
    // whole (no orphaned 'B'), and the drop must be counted.
    enableTracer(8);
    for (int i = 0; i < 20; ++i) {
        TraceSpan span("test", "test.seq");
        (void)span;
    }
    EXPECT_GT(Tracer::instance().droppedTotal(), 0u);
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.seq"], 4u);
    EXPECT_EQ(v.droppedSpans, 16u);
}

TEST(TraceSpan, AdmissionReservesRoomForOpenSpanEnds)
{
    // Deep nesting: admission must stop while every already-open
    // span can still write its 'E' (capacity 8 -> 4 open spans max).
    enableTracer(8);
    {
        TraceSpan a("test", "test.n1");
        TraceSpan b("test", "test.n2");
        TraceSpan c("test", "test.n3");
        TraceSpan d("test", "test.n4");
        TraceSpan e("test", "test.n5"); // must be refused
        EXPECT_TRUE(a.armed());
        EXPECT_TRUE(d.armed());
        EXPECT_FALSE(e.armed());
    }
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.n4"], 1u);
    EXPECT_EQ(v.begins["test.n5"], 0u);
    EXPECT_EQ(v.droppedSpans, 1u);
}

TEST(TraceSpan, ReenableAppliesTheNewBufferCapacity)
{
    // The first enable sizes this thread's buffer; a later enable
    // with a smaller capacity must bound it, not keep the old size.
    enableTracer(1 << 12);
    {
        TraceSpan span("test", "test.roomy");
    }
    enableTracer(8);
    for (int i = 0; i < 6; ++i) {
        TraceSpan span("test", "test.tight");
        (void)span;
    }
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.roomy"], 0u);
    EXPECT_EQ(v.begins["test.tight"], 4u);
    EXPECT_EQ(v.droppedSpans, 2u);
}

TEST(TraceSpan, SerializeClosesSpansStillOpen)
{
    enableTracer();
    TraceSpan open("test", "test.still_open");
    ASSERT_TRUE(open.armed());
    std::string text = Tracer::instance().serialize();
    // Balanced even though the span has not destructed yet: a
    // synthetic 'E' at the thread's last timestamp closes it.
    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.still_open"], 1u);
    Tracer::instance().disable();
}

TEST(TraceSpan, CompleteSpanRecordsRetroactively)
{
    enableTracer();
    const std::uint64_t now = Tracer::nowNs();
    obs::traceCompleteSpan("test", "test.retro", now, now + 5000);
    // An end before the begin must clamp, not corrupt ordering.
    obs::traceCompleteSpan("test", "test.clamped", now + 6000,
                           now + 5500);
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.retro"], 1u);
    EXPECT_EQ(v.begins["test.clamped"], 1u);
}

TEST(TraceSpan, FlushWritesParseableFileAtomically)
{
    const std::string path =
        "/tmp/ccp_trace_span_test_" +
        std::to_string(static_cast<long>(::getpid())) + ".json";
    enableTracer(1 << 12, path);
    {
        TraceSpan span("test", "test.flushed");
    }
    EXPECT_TRUE(Tracer::instance().flush());
    EXPECT_FALSE(Tracer::enabled()) << "flush must stop recording";

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::ostringstream ss;
    ss << is.rdbuf();
    ValidatedTrace v;
    validateTrace(ss.str(), v);
    EXPECT_EQ(v.begins["test.flushed"], 1u);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(TraceSpan, ReenableClearsPriorRecords)
{
    enableTracer();
    {
        TraceSpan span("test", "test.first_run");
    }
    enableTracer(); // re-enable must clear, not accumulate
    {
        TraceSpan span("test", "test.second_run");
    }
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.first_run"], 0u);
    EXPECT_EQ(v.begins["test.second_run"], 1u);
}

TEST(PerfCounters, ReadIsAlwaysSafe)
{
    // perf_event_open may be denied (containers, hardened kernels) or
    // absent (non-Linux); the wrapper must degrade to invalid samples
    // without crashing, and valid samples must subtract cleanly.
    PerfCounters &pc = PerfCounters::thread();
    PerfSample a = pc.read();
    PerfSample b = pc.read();
    if (pc.ok()) {
        EXPECT_TRUE(a.valid);
        PerfSample d = b - a;
        EXPECT_GE(b.cycles, a.cycles);
        EXPECT_GE(d.ipc(), 0.0);
    } else {
        EXPECT_FALSE(a.valid);
        EXPECT_FALSE(b.valid);
        PerfSample d = b - a;
        EXPECT_FALSE(d.valid);
        EXPECT_EQ(d.ipc(), 0.0); // no division by zero
    }
}

TEST(PerfCounters, SpansRecordWithPerfSamplingEnabled)
{
    // Whether or not the kernel grants counters, perf-sampled spans
    // must serialize well-formed.
    Tracer::Options opts;
    opts.perfCounters = true;
    Tracer::instance().enable(std::move(opts));
    {
        TraceSpan span("test", "test.perf_span");
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 10000; ++i)
            sink = sink + std::uint64_t(i) * 3;
    }
    std::string text = Tracer::instance().serialize();
    Tracer::instance().disable();

    ValidatedTrace v;
    validateTrace(text, v);
    EXPECT_EQ(v.begins["test.perf_span"], 1u);
    if (PerfCounters::available()) {
        EXPECT_NE(text.find("\"cycles\":"), std::string::npos);
    }
}

} // namespace
