/**
 * @file
 * Tests for the predictd serve layer: the SPSC ring (including a
 * threaded producer/consumer run meant for the TSan CI leg), Session
 * parity against predict::evaluateTrace (the offline oracle the
 * online path must match bit for bit), the sliding-window stats,
 * session and server snapshot round-trips — in particular that a
 * server killed mid-stream restores byte-identical predictor state at
 * ANY agent count — and the full submit/drain/poll pipeline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/registry.hh"
#include "predict/evaluator.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "serve/spsc.hh"
#include "sweep/checkpoint.hh"
#include "sweep/name.hh"
#include "trace/format.hh"
#include "trace/trace.hh"

namespace {

using namespace ccp;
using predict::UpdateMode;
using serve::PredictServer;
using serve::Prediction;
using serve::ServeOptions;
using serve::Session;
using serve::SessionConfig;
using serve::SessionStats;
using serve::SpscRing;

constexpr unsigned kNodes = 8;

/**
 * A small but honest stream: per-block writer history so
 * hasPrevWriter / prevWriter* / invalidated chain the way real traces
 * do, with readers drawn from a mixing hash.  @p salt decorrelates
 * the per-session streams.
 */
trace::SharingTrace
makeTrace(const char *name, unsigned salt, unsigned n_events = 400)
{
    trace::SharingTrace tr(name, kNodes);
    struct Last
    {
        NodeId pid;
        Pc pc;
        SharingBitmap readers;
    };
    std::unordered_map<Addr, Last> last;
    std::uint64_t x = 0x9e3779b97f4a7c15ull * (salt + 1);
    for (unsigned i = 0; i < n_events; ++i) {
        x ^= x >> 27;
        x *= 0x2545f4914f6cdd1dull;
        trace::CoherenceEvent ev;
        ev.pid = static_cast<NodeId>(x % kNodes);
        ev.pc = 0x400 + 4 * ((x >> 8) % 6);
        ev.block = (x >> 16) % 12;
        ev.dir = static_cast<NodeId>(ev.block % kNodes);
        for (unsigned b = 0; b < kNodes; ++b)
            if ((x >> (24 + b)) & 1 && b != ev.pid)
                ev.readers.set(b);
        auto it = last.find(ev.block);
        if (it != last.end()) {
            ev.hasPrevWriter = true;
            ev.prevWriterPid = it->second.pid;
            ev.prevWriterPc = it->second.pc;
            ev.invalidated = it->second.readers;
        }
        last[ev.block] = {ev.pid, ev.pc, ev.readers};
        tr.append(ev);
    }
    return tr;
}

SessionConfig
makeConfig(const char *scheme_text, std::size_t window = 4096)
{
    auto parsed = sweep::parseScheme(scheme_text);
    SessionConfig cfg;
    cfg.scheme = parsed.value().scheme; // throws on a bad literal
    cfg.mode = parsed->mode.value_or(UpdateMode::Direct);
    cfg.windowEvents = window;
    return cfg;
}

bool
sameConfusion(const predict::Confusion &a, const predict::Confusion &b)
{
    return a.tp == b.tp && a.fp == b.fp && a.tn == b.tn &&
           a.fn == b.fn;
}

// ---------------------------------------------------------------------
// SPSC ring

TEST(SpscRing, PushPopPreservesFifoOrder)
{
    SpscRing<int> ring(4);
    int v = -1;
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.pop(v));
    EXPECT_TRUE(ring.push(10));
    EXPECT_TRUE(ring.push(11));
    EXPECT_TRUE(ring.push(12));
    ASSERT_TRUE(ring.pop(v));
    EXPECT_EQ(v, 10);
    EXPECT_TRUE(ring.push(13));
    for (int want : {11, 12, 13}) {
        ASSERT_TRUE(ring.pop(v));
        EXPECT_EQ(v, want);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, CapacityRoundsToPowerOfTwoMinusOne)
{
    // One slot is sacrificed to distinguish full from empty.
    EXPECT_EQ(SpscRing<int>(4).capacity(), 3u);
    EXPECT_EQ(SpscRing<int>(5).capacity(), 7u);
    EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
    EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
}

TEST(SpscRing, FullRingRefusesWithoutOverwriting)
{
    SpscRing<int> ring(4); // capacity 3
    EXPECT_TRUE(ring.push(1));
    EXPECT_TRUE(ring.push(2));
    EXPECT_TRUE(ring.push(3));
    EXPECT_FALSE(ring.push(4));
    int v = -1;
    ASSERT_TRUE(ring.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(ring.push(4));
    for (int want : {2, 3, 4}) {
        ASSERT_TRUE(ring.pop(v));
        EXPECT_EQ(v, want);
    }
}

/** The concurrency contract, sized for the TSan CI leg: one producer,
 *  one consumer, a deliberately tiny ring so both full and empty
 *  transitions are exercised constantly. */
TEST(SpscRing, ConcurrentProducerConsumerDeliversEverythingInOrder)
{
    constexpr std::uint64_t kItems = 200000;
    SpscRing<std::uint64_t> ring(8);
    std::thread producer([&ring] {
        for (std::uint64_t i = 0; i < kItems; ++i)
            while (!ring.push(i))
                std::this_thread::yield();
    });
    std::uint64_t next = 0;
    while (next < kItems) {
        std::uint64_t v = 0;
        if (!ring.pop(v)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(v, next);
        ++next;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ConsumeKeepsOrderAcrossWrapAround)
{
    SpscRing<int> ring(8); // capacity 7
    int next_in = 0;
    int next_out = 0;
    // Each round leaves the ring partly full, so the consumed runs
    // straddle the end of the slot array many times over.
    for (int round = 0; round < 20; ++round) {
        while (ring.push(next_in))
            ++next_in;
        const std::size_t n =
            ring.consume(5, [&next_out](int v) {
                EXPECT_EQ(v, next_out);
                ++next_out;
            });
        EXPECT_EQ(n, 5u);
    }
    ring.consume(~std::size_t(0), [&next_out](int v) {
        EXPECT_EQ(v, next_out);
        ++next_out;
    });
    EXPECT_EQ(next_out, next_in);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ConsumeStopsAtMaxAndReturnsZeroWhenEmpty)
{
    SpscRing<int> ring(16);
    std::vector<int> got;
    auto take = [&got](int v) { got.push_back(v); };
    EXPECT_EQ(ring.consume(4, take), 0u);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(ring.push(i));
    EXPECT_EQ(ring.consume(4, take), 4u);
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(ring.size(), 6u);
    EXPECT_EQ(ring.consume(0, take), 0u);
    EXPECT_EQ(ring.consume(100, take), 6u);
    EXPECT_EQ(got.size(), 10u);
    EXPECT_EQ(got.back(), 9);
    EXPECT_EQ(ring.consume(100, take), 0u);
    int v = -1;
    EXPECT_FALSE(ring.pop(v));
}

/** A full ring's producer holds a stale copy of the consumer's index:
 *  push must refresh it and admit exactly the slots consume() gave
 *  back, no more. */
TEST(SpscRing, FullRingAcceptsExactlyTheSlotsConsumeReleased)
{
    SpscRing<int> ring(8); // capacity 7
    int next_in = 0;
    while (ring.push(next_in))
        ++next_in;
    EXPECT_EQ(next_in, 7);
    EXPECT_FALSE(ring.push(next_in)) << "still full";
    int next_out = 0;
    auto check = [&next_out](int v) {
        EXPECT_EQ(v, next_out);
        ++next_out;
    };
    EXPECT_EQ(ring.consume(3, check), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(ring.push(next_in++)) << "released slot " << i;
    EXPECT_FALSE(ring.push(next_in)) << "only 3 slots were released";
    EXPECT_EQ(ring.consume(1, check), 1u);
    EXPECT_TRUE(ring.push(next_in++));
    EXPECT_FALSE(ring.push(next_in));
    EXPECT_EQ(ring.consume(~std::size_t(0), check), 7u);
    EXPECT_EQ(next_out, next_in);
}

/** The same contract driven by consume(): bursts of varying length
 *  release slots in one store each (a TSan race check as well). */
TEST(SpscRing, ConcurrentConsumeDeliversEverythingInOrder)
{
    constexpr std::uint64_t kItems = 200000;
    SpscRing<std::uint64_t> ring(8);
    std::thread producer([&ring] {
        for (std::uint64_t i = 0; i < kItems; ++i)
            while (!ring.push(i))
                std::this_thread::yield();
    });
    std::uint64_t next = 0;
    bool in_order = true;
    std::size_t max = 1;
    while (next < kItems) {
        const std::size_t n =
            ring.consume(max, [&](std::uint64_t v) {
                in_order = in_order && v == next;
                ++next;
            });
        ASSERT_TRUE(in_order) << "out of order before item " << next;
        ASSERT_LE(n, max);
        max = max % 5 + 1;
        if (n == 0)
            std::this_thread::yield();
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------
// Session vs the offline oracle

TEST(Session, MatchesEvaluateTraceDirect)
{
    const auto tr = makeTrace("direct", 3);
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2");

    Session session(0, cfg, kNodes);
    for (const auto &ev : tr.events())
        session.onEvent(ev);

    const predict::Confusion oracle =
        evaluateTrace(tr, cfg.scheme, UpdateMode::Direct);
    const SessionStats s = session.stats();
    EXPECT_EQ(s.events, tr.events().size());
    EXPECT_TRUE(sameConfusion(s.total, oracle));
    // Window >= stream length: the window IS the whole run.
    EXPECT_TRUE(sameConfusion(s.window, oracle));
}

TEST(Session, MatchesEvaluateTraceForwarded)
{
    const auto tr = makeTrace("fwd", 11);
    const SessionConfig cfg = makeConfig("last(pid+pc4)1[forwarded]");
    ASSERT_EQ(cfg.mode, UpdateMode::Forwarded);

    Session session(0, cfg, kNodes);
    for (const auto &ev : tr.events())
        session.onEvent(ev);

    const predict::Confusion oracle =
        evaluateTrace(tr, cfg.scheme, UpdateMode::Forwarded);
    EXPECT_TRUE(sameConfusion(session.stats().total, oracle));
}

TEST(Session, OutOfRangeBitsScoreTheSameInWindowAndTotal)
{
    // The server does not check submitted bitmaps against nNodes, so
    // bits at or above it reach the session both as readers and (via
    // the table) as predictions.  Both counts must ignore them alike.
    const SessionConfig cfg = makeConfig("last(addr4)1");
    Session session(0, cfg, kNodes);
    trace::CoherenceEvent ev;
    ev.block = 3;
    ev.readers = SharingBitmap(0x3ull | 1ull << kNodes | 1ull << 40);
    session.onEvent(ev);
    ev.hasPrevWriter = true;
    ev.invalidated = ev.readers;
    session.onEvent(ev);
    session.onEvent(ev);

    const SessionStats s = session.stats();
    ASSERT_EQ(s.events, 3u);
    EXPECT_EQ(s.total.tp, 4u);
    EXPECT_TRUE(sameConfusion(s.window, s.total));
}

TEST(Session, SlidingWindowCoversExactlyTheLastNEvents)
{
    const auto tr = makeTrace("window", 7);
    constexpr std::size_t kWindow = 64;
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", kWindow);

    // Oracle: replay the same online loop against the raw table and
    // keep every per-event confusion, then sum the last kWindow.
    predict::PredictorTable table = cfg.scheme.makeTable(kNodes);
    std::vector<predict::Confusion> per_event;
    for (const auto &ev : tr.events()) {
        if (ev.hasPrevWriter)
            table.update(ev.pid, ev.pc, ev.dir, ev.block,
                         ev.invalidated);
        const SharingBitmap pred =
            table.predict(ev.pid, ev.pc, ev.dir, ev.block);
        predict::Confusion c;
        c.add(pred, ev.readers, kNodes);
        per_event.push_back(c);
    }

    Session session(0, cfg, kNodes);
    for (std::size_t i = 0; i < tr.events().size(); ++i) {
        session.onEvent(tr.events()[i]);
        if (i % 97 != 0 && i + 1 != tr.events().size())
            continue;
        predict::Confusion want;
        const std::size_t n = i + 1;
        for (std::size_t j = n - std::min(n, kWindow); j < n; ++j)
            want.merge(per_event[j]);
        EXPECT_TRUE(sameConfusion(session.stats().window, want))
            << "after event " << i;
    }
}

// ---------------------------------------------------------------------
// Session snapshot encode/decode

TEST(Session, EncodeDecodeRoundTripsAndResumesIdentically)
{
    const auto tr = makeTrace("snap", 19);
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    const std::size_t cut = tr.events().size() / 2;

    Session a(5, cfg, kNodes);
    for (std::size_t i = 0; i < cut; ++i)
        a.onEvent(tr.events()[i]);

    std::vector<char> blob;
    a.encode(blob);

    Session b(5, cfg, kNodes);
    const char *p = blob.data();
    ASSERT_TRUE(b.decode(p, blob.data() + blob.size()));
    EXPECT_EQ(p, blob.data() + blob.size());
    EXPECT_EQ(b.table().rawState(), a.table().rawState());

    // The restored session is not merely equal now — it stays equal
    // through the rest of the stream (window ring position included).
    for (std::size_t i = cut; i < tr.events().size(); ++i) {
        a.onEvent(tr.events()[i]);
        b.onEvent(tr.events()[i]);
    }
    EXPECT_EQ(b.table().rawState(), a.table().rawState());
    const SessionStats sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sb.events, sa.events);
    EXPECT_TRUE(sameConfusion(sb.total, sa.total));
    EXPECT_TRUE(sameConfusion(sb.window, sa.window));
}

TEST(Session, DecodeRejectsMismatchedOrDamagedState)
{
    const auto tr = makeTrace("reject", 23);
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    Session a(1, cfg, kNodes);
    for (const auto &ev : tr.events())
        a.onEvent(ev);
    std::vector<char> blob;
    a.encode(blob);

    // Wrong session id.
    {
        Session b(2, cfg, kNodes);
        const char *p = blob.data();
        EXPECT_FALSE(b.decode(p, blob.data() + blob.size()));
    }
    // Wrong geometry: a different scheme has a different state size.
    {
        Session b(1, makeConfig("last(pid+pc2)1", 32), kNodes);
        const char *p = blob.data();
        EXPECT_FALSE(b.decode(p, blob.data() + blob.size()));
    }
    // Wrong window capacity.
    {
        Session b(1, makeConfig("inter(pid+pc4)2", 16), kNodes);
        const char *p = blob.data();
        EXPECT_FALSE(b.decode(p, blob.data() + blob.size()));
    }
    // Truncation anywhere must fail, never read past end.
    for (std::size_t len :
         {std::size_t(0), std::size_t(7), std::size_t(40),
          blob.size() - 1}) {
        Session b(1, cfg, kNodes);
        const char *p = blob.data();
        EXPECT_FALSE(b.decode(p, blob.data() + len)) << len;
    }
}

// ---------------------------------------------------------------------
// PredictServer pipeline

std::vector<trace::SharingTrace>
makeStreams(unsigned n)
{
    std::vector<trace::SharingTrace> streams;
    for (unsigned i = 0; i < n; ++i) {
        char name[16];
        std::snprintf(name, sizeof(name), "s%u", i);
        streams.push_back(makeTrace(name, 31 + i));
    }
    return streams;
}

/** Inline oracle sessions for @p streams. */
std::vector<Session>
inlineSessions(const std::vector<trace::SharingTrace> &streams,
               const SessionConfig &cfg)
{
    std::vector<Session> sessions;
    for (unsigned i = 0; i < streams.size(); ++i) {
        sessions.emplace_back(i, cfg, kNodes);
        for (const auto &ev : streams[i].events())
            sessions[i].onEvent(ev);
    }
    return sessions;
}

/** Feed every stream through @p server from one producer thread per
 *  session, polling responses; @return per-session response count. */
std::vector<std::uint64_t>
driveServer(PredictServer &server,
            const std::vector<trace::SharingTrace> &streams,
            std::size_t from = 0, std::size_t to = ~std::size_t(0))
{
    std::vector<std::uint64_t> received(streams.size(), 0);
    std::vector<std::thread> producers;
    for (unsigned c = 0; c < streams.size(); ++c) {
        producers.emplace_back([&, c] {
            const auto &events = streams[c].events();
            const std::size_t hi = std::min(to, events.size());
            std::vector<Prediction> preds;
            for (std::size_t i = from; i < hi; ++i) {
                while (!server.submit(c, events[i]))
                    std::this_thread::yield();
                preds.clear();
                received[c] += server.pollPredictions(c, preds, 64);
            }
        });
    }
    for (auto &t : producers)
        t.join();
    return received;
}

TEST(PredictServer, ServesEveryStreamIdenticallyToInlineAtAnyAgentCount)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 64);
    const auto streams = makeStreams(5);
    const auto oracle = inlineSessions(streams, cfg);

    for (unsigned agents : {1u, 2u, 4u, 8u}) {
        ServeOptions opts;
        opts.session = cfg;
        opts.nNodes = kNodes;
        opts.sessions = 5;
        opts.agents = agents;
        opts.ringCapacity = 64; // small: exercise backpressure
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        driveServer(server, streams);
        server.stop();

        for (unsigned c = 0; c < streams.size(); ++c) {
            const SessionStats got = server.stats(c);
            const SessionStats want = oracle[c].stats();
            EXPECT_EQ(got.events, want.events) << agents << "/" << c;
            EXPECT_TRUE(sameConfusion(got.total, want.total))
                << agents << "/" << c;
            EXPECT_TRUE(sameConfusion(got.window, want.window))
                << agents << "/" << c;
        }
    }
}

TEST(PredictServer, DeliversOnePredictionPerEventInSubmitOrder)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 64);
    const auto streams = makeStreams(2);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 2;
    opts.agents = 2;
    // Response ring >= stream length: nothing can be dropped, so the
    // full seq sequence must come back 0,1,2,...
    opts.responseCapacity = 1024;
    PredictServer server(opts);
    ASSERT_TRUE(server.start());

    std::vector<Prediction> all;
    const auto &events = streams[0].events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        while (!server.submit(0, events[i]))
            std::this_thread::yield();
        server.pollPredictions(0, all, 16);
    }
    server.stop();
    server.pollPredictions(0, all, ~std::size_t(0));

    EXPECT_EQ(server.responsesDropped(), 0u);
    ASSERT_EQ(all.size(), events.size());
    Session oracle(0, cfg, kNodes);
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].seq, i);
        EXPECT_EQ(all[i].predicted, oracle.onEvent(events[i]))
            << "event " << i;
    }
}

TEST(PredictServer, RefusesSubmitsWhenNotRunning)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2");
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 1;
    PredictServer server(opts);
    trace::CoherenceEvent ev;
    EXPECT_FALSE(server.submit(0, ev));
    ASSERT_TRUE(server.start());
    EXPECT_FALSE(server.start()) << "double start";
    server.stop();
    EXPECT_FALSE(server.submit(0, ev));
}

TEST(PredictServer, StatsAreMonotoneWhileServing)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    const auto streams = makeStreams(1);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 1;
    opts.agents = 1;
    PredictServer server(opts);
    ASSERT_TRUE(server.start());

    std::uint64_t last_events = 0;
    const auto &events = streams[0].events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        while (!server.submit(0, events[i]))
            std::this_thread::yield();
        if (i % 37 != 0)
            continue;
        const SessionStats s = server.stats(0);
        EXPECT_GE(s.events, last_events);
        // Every processed event scores exactly nNodes decisions.
        EXPECT_EQ(s.total.decisions(), s.events * kNodes);
        last_events = s.events;
    }
    server.stop();
    EXPECT_EQ(server.stats(0).events, events.size());
    EXPECT_EQ(server.submitted(0), events.size());
}

/** Sampled latency stamps: both latency stats hold exactly the
 *  events at submit ordinals 0, 64, 128, ... of each session. */
std::uint64_t
sampledEvents(std::uint64_t submitted)
{
    return (submitted + serve::latencySampleEvery - 1) /
           serve::latencySampleEvery;
}

/** The wait/service split: one queue-wait sample per sampled event,
 *  no larger on average than ingest-to-predict, and each agent
 *  reports one busy fraction in [0, 1]. */
TEST(PredictServer, QueueWaitCoversEveryServedEventAndBusyIsAFraction)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 64);
    const auto streams = makeStreams(3);
    obs::StatsRegistry reg;
    obs::ScopedRegistry route(reg);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 3;
    opts.agents = 2;
    opts.ringCapacity = 64;
    PredictServer server(opts);
    ASSERT_TRUE(server.start());
    driveServer(server, streams);
    server.stop();

    std::uint64_t events = 0;
    std::uint64_t sampled = 0;
    for (const auto &s : streams) {
        events += s.events().size();
        sampled += sampledEvents(s.events().size());
    }
    const auto *served = reg.findCounter("serve.events_served");
    const auto *wait = reg.findLatency("serve.queue_wait_ns");
    const auto *total = reg.findLatency("serve.ingest_to_predict_ns");
    const auto *busy = reg.findSummary("serve.agent_busy_frac");
    const auto *every = reg.findSummary("serve.latency_sample_every");
    ASSERT_NE(served, nullptr);
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(total, nullptr);
    ASSERT_NE(busy, nullptr);
    ASSERT_NE(every, nullptr);
    EXPECT_EQ(served->value, events);
    EXPECT_EQ(wait->count(), sampled);
    EXPECT_EQ(total->count(), sampled);
    EXPECT_LE(wait->mean(), total->mean());
    EXPECT_EQ(every->count(), 1u) << "one sample per start/stop";
    EXPECT_EQ(every->mean(), serve::latencySampleEvery);
    EXPECT_EQ(busy->count(), 2u) << "one sample per agent";
    EXPECT_GE(busy->min(), 0.0);
    EXPECT_LE(busy->max(), 1.0);
}

/** A refused submit moves no count, so its retry makes the same
 *  sampling choice: a sampled ordinal refused for a full ring is
 *  still sampled exactly once. */
TEST(PredictServer, RingFullRetryNeitherSkipsNorDuplicatesASample)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 64);
    const auto streams = makeStreams(1);
    const auto &events = streams[0].events();
    obs::StatsRegistry reg;
    obs::ScopedRegistry route(reg);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 1;
    opts.agents = 1;
    opts.ringCapacity = 4; // fills after three submits
    PredictServer server(opts);
    ASSERT_TRUE(server.start());

    // Replay the stream until some sampled ordinal has been refused,
    // polling responses only now and then (most of them drop).
    std::uint64_t n = 0;
    std::uint64_t sampled_refused = 0;
    std::vector<Prediction> preds;
    while (n < 8 * serve::latencySampleEvery ||
           (sampled_refused == 0 && n < (1u << 20))) {
        bool refused = false;
        while (!server.submit(0, events[n % events.size()])) {
            refused = true;
            std::this_thread::yield();
        }
        if (refused && n % serve::latencySampleEvery == 0)
            ++sampled_refused;
        if (++n % 50 == 0) {
            preds.clear();
            server.pollPredictions(0, preds, 4);
        }
    }
    server.stop();

    ASSERT_GT(sampled_refused, 0u) << "no sampled submit was refused";
    EXPECT_EQ(server.submitted(0), n);
    EXPECT_EQ(server.stats(0).events, n);
    const auto *wait = reg.findLatency("serve.queue_wait_ns");
    const auto *total = reg.findLatency("serve.ingest_to_predict_ns");
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(wait->count(), sampledEvents(n));
    EXPECT_EQ(total->count(), sampledEvents(n));
}

// ---------------------------------------------------------------------
// Kill-and-restore

class ServerSnapshotTest : public ::testing::Test
{
  protected:
    std::string
    snapPath() const
    {
        // One file per test: ctest runs each case in its own process,
        // concurrently, so a shared name would race.
        return ::testing::TempDir() + "serve_snapshot." +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".ccps";
    }

    std::vector<char>
    snapBytes() const
    {
        std::ifstream is(snapPath(), std::ios::binary);
        EXPECT_TRUE(is.good());
        return std::vector<char>(std::istreambuf_iterator<char>(is),
                                 std::istreambuf_iterator<char>());
    }

    void
    SetUp() override
    {
        std::remove(snapPath().c_str());
    }
};

TEST_F(ServerSnapshotTest, KilledMidStreamRestoresByteIdentical)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    const auto streams = makeStreams(3);
    const std::size_t cut = streams[0].events().size() / 2;

    // Inline oracle over the first half.
    std::vector<Session> half;
    for (unsigned i = 0; i < streams.size(); ++i) {
        half.emplace_back(i, cfg, kNodes);
        for (std::size_t j = 0; j < cut; ++j)
            half[i].onEvent(streams[i].events()[j]);
    }

    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 3;
    opts.agents = 2;
    opts.snapshotPath = snapPath();
    opts.snapshotIntervalSec = 0; // only stop()'s final snapshot
    {
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        driveServer(server, streams, 0, cut);
        server.stop(); // the "kill": nothing after the snapshot
    }
    const std::vector<char> first_image = snapBytes();

    // A restore followed by an event-free stop must re-emit the
    // snapshot byte for byte — the strongest restore-fidelity check
    // the container offers (key, payload, checksum all identical).
    {
        PredictServer copy(opts);
        ASSERT_EQ(copy.restore(), sweep::CheckpointLoad::Ok);
        ASSERT_TRUE(copy.start());
        copy.stop();
        EXPECT_EQ(snapBytes(), first_image);
    }

    // Restart at a DIFFERENT agent count; restored state must equal
    // the inline oracle word for word.
    opts.agents = 7;
    PredictServer revived(opts);
    ASSERT_EQ(revived.restore(), sweep::CheckpointLoad::Ok);
    ASSERT_TRUE(revived.start());
    // (restore state checked after the full stream below; stats()
    // equality here already pins the confusion counts.)
    for (unsigned c = 0; c < streams.size(); ++c) {
        const SessionStats got = revived.stats(c);
        const SessionStats want = half[c].stats();
        EXPECT_EQ(got.events, want.events);
        EXPECT_TRUE(sameConfusion(got.total, want.total));
        EXPECT_TRUE(sameConfusion(got.window, want.window));
    }

    // Serve the second half on the revived server: the final state
    // must equal an uninterrupted inline run of the whole stream.
    driveServer(revived, streams, cut);
    revived.stop();
    const auto full = inlineSessions(streams, cfg);
    for (unsigned c = 0; c < streams.size(); ++c) {
        const SessionStats got = revived.stats(c);
        const SessionStats want = full[c].stats();
        EXPECT_EQ(got.events, want.events) << c;
        EXPECT_TRUE(sameConfusion(got.total, want.total)) << c;
        EXPECT_TRUE(sameConfusion(got.window, want.window)) << c;
    }
}

/** Sampling follows the revived server's own submit count, not the
 *  restored sessions' event count: the first event submitted after
 *  restore() is sampled. */
TEST_F(ServerSnapshotTest, SamplingCountsFromTheFirstSubmitAfterRestore)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    const auto streams = makeStreams(3);
    // 200 restored events: by session count the second half would
    // sample ordinals 256, 320, 384 (3); by submit count, 4.
    const std::size_t cut = 200;

    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 3;
    opts.agents = 2;
    opts.snapshotPath = snapPath();
    opts.snapshotIntervalSec = 0;
    {
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        driveServer(server, streams, 0, cut);
        server.stop();
    }

    obs::StatsRegistry reg;
    obs::ScopedRegistry route(reg);
    PredictServer revived(opts);
    ASSERT_EQ(revived.restore(), sweep::CheckpointLoad::Ok);
    ASSERT_TRUE(revived.start());
    driveServer(revived, streams, cut);
    revived.stop();

    std::uint64_t sampled = 0;
    for (unsigned c = 0; c < streams.size(); ++c) {
        const std::uint64_t rest = streams[c].events().size() - cut;
        EXPECT_EQ(revived.submitted(c), rest) << c;
        EXPECT_EQ(revived.stats(c).events, cut + rest) << c;
        sampled += sampledEvents(rest);
    }
    const auto *wait = reg.findLatency("serve.queue_wait_ns");
    const auto *total = reg.findLatency("serve.ingest_to_predict_ns");
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(wait->count(), sampled);
    EXPECT_EQ(total->count(), sampled);
}

TEST_F(ServerSnapshotTest, PerceptronRestoresByteIdenticalAtAnyAgentCount)
{
    // The perceptron's packed state — histories, int8 weight lanes,
    // the Bloom word — rides the same CCPS snapshot as every other
    // family, and must restore byte-identically at a different agent
    // count; the blob additionally carries the perceptron feature
    // bit, so a legacy-feature decoder refuses it with structure.
    const SessionConfig cfg =
        makeConfig("perceptron(hash:pid+pc4)2w5t2b16", 32);
    const auto streams = makeStreams(3);
    const std::size_t cut = streams[0].events().size() / 2;

    std::vector<Session> half;
    for (unsigned i = 0; i < streams.size(); ++i) {
        half.emplace_back(i, cfg, kNodes);
        for (std::size_t j = 0; j < cut; ++j)
            half[i].onEvent(streams[i].events()[j]);
    }

    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 3;
    opts.agents = 2;
    opts.snapshotPath = snapPath();
    opts.snapshotIntervalSec = 0;
    {
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        driveServer(server, streams, 0, cut);
        server.stop();
    }
    const std::vector<char> first_image = snapBytes();

    // The snapshot must be marked as carrying perceptron state: a
    // decoder restricted to the legacy feature set rejects it with
    // UnsupportedKind (not a crash, not a silent mis-decode).
    {
        std::vector<char> payload;
        EXPECT_EQ(sweep::loadStateBlob(snapPath(), 0, payload,
                                       /*supported_features=*/0),
                  sweep::CheckpointLoad::UnsupportedKind);
        EXPECT_TRUE(payload.empty());
    }

    // Restore + event-free stop re-emits the snapshot byte for byte.
    {
        PredictServer copy(opts);
        ASSERT_EQ(copy.restore(), sweep::CheckpointLoad::Ok);
        ASSERT_TRUE(copy.start());
        copy.stop();
        EXPECT_EQ(snapBytes(), first_image);
    }

    // Restart at a DIFFERENT agent count; the restored sessions must
    // match the inline oracle, and the full stream must land exactly
    // where an uninterrupted run does.
    opts.agents = 5;
    PredictServer revived(opts);
    ASSERT_EQ(revived.restore(), sweep::CheckpointLoad::Ok);
    ASSERT_TRUE(revived.start());
    for (unsigned c = 0; c < streams.size(); ++c) {
        const SessionStats got = revived.stats(c);
        const SessionStats want = half[c].stats();
        EXPECT_EQ(got.events, want.events);
        EXPECT_TRUE(sameConfusion(got.total, want.total));
        EXPECT_TRUE(sameConfusion(got.window, want.window));
    }
    driveServer(revived, streams, cut);
    revived.stop();
    const auto full = inlineSessions(streams, cfg);
    for (unsigned c = 0; c < streams.size(); ++c) {
        const SessionStats got = revived.stats(c);
        const SessionStats want = full[c].stats();
        EXPECT_EQ(got.events, want.events) << c;
        EXPECT_TRUE(sameConfusion(got.total, want.total)) << c;
        EXPECT_TRUE(sameConfusion(got.window, want.window)) << c;
    }
}

TEST_F(ServerSnapshotTest, PAsRefusesPerNodeLayoutBlobAndRoundTripsPlanes)
{
    // A blob written before the PAs/perceptron state became bit-planes
    // carries the same words per entry at 16 nodes and would decode
    // into wrong counters.  Its key lacks the layout revision, so
    // restore must refuse it as KeyMismatch, while a blob in the
    // current layout restores and re-emits byte for byte.
    const SessionConfig cfg = makeConfig("pas(pid+pc4)2", 32);
    const auto streams = makeStreams(2);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 2;
    opts.agents = 2;
    opts.snapshotPath = snapPath();
    opts.snapshotIntervalSec = 0;
    {
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        driveServer(server, streams);
        server.stop();
    }
    const std::vector<char> image = snapBytes();
    {
        PredictServer copy(opts);
        ASSERT_EQ(copy.restore(), sweep::CheckpointLoad::Ok);
        ASSERT_TRUE(copy.start());
        copy.stop();
        EXPECT_EQ(snapBytes(), image);
    }

    // Re-key the same payload the way the per-node layout keyed it:
    // scheme, mode, nodes, sessions and window, no layout revision.
    // Window families still key that way, which pins the replica.
    auto legacy_key = [](const SessionConfig &c) {
        trace::Fnv1a h;
        auto word = [&h](std::uint64_t v) { h.update(&v, sizeof(v)); };
        auto str = [&h](const std::string &s) {
            h.update(s.data(), s.size());
            h.update("\0", 1);
        };
        str("ccp.serve.v1");
        str(sweep::formatScheme(c.scheme));
        str(predict::updateModeName(c.mode));
        word(kNodes);
        word(2);
        word(c.windowEvents);
        return h.digest();
    };
    {
        ServeOptions window = opts;
        window.session = makeConfig("inter(pid+pc4)2", 32);
        EXPECT_EQ(PredictServer(window).snapshotKey(),
                  legacy_key(window.session));
    }
    std::vector<char> payload;
    {
        PredictServer server(opts);
        ASSERT_EQ(sweep::loadStateBlob(snapPath(), server.snapshotKey(),
                                       payload),
                  sweep::CheckpointLoad::Ok);
    }
    ASSERT_TRUE(
        sweep::saveStateBlob(snapPath(), legacy_key(cfg), payload));
    PredictServer server(opts);
    EXPECT_EQ(server.restore(), sweep::CheckpointLoad::KeyMismatch);
}

TEST_F(ServerSnapshotTest, SnapshotNowWhileServingIsRestorable)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    const auto streams = makeStreams(2);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 2;
    opts.agents = 2;
    opts.snapshotPath = snapPath();
    opts.snapshotIntervalSec = 0;
    PredictServer server(opts);
    ASSERT_TRUE(server.start());
    std::thread snapshotter([&server] {
        for (int i = 0; i < 20; ++i)
            EXPECT_TRUE(server.snapshotNow());
    });
    driveServer(server, streams);
    snapshotter.join();
    server.stop();

    // Whatever instant the last snapshot caught, it must restore into
    // a server whose event counts are consistent (decode succeeded).
    PredictServer revived(opts);
    ASSERT_EQ(revived.restore(), sweep::CheckpointLoad::Ok);
    for (unsigned c = 0; c < 2; ++c) {
        const SessionStats s = revived.stats(c);
        EXPECT_EQ(s.total.decisions(), s.events * kNodes);
    }
}

/** A snapshot whose table words the function's update() could not
 *  have produced — a ring position past its depth, a weight past its
 *  clamp, a set padding bit, a Bloom count past capacity — is refused
 *  as a decode failure (Invalid), even under a valid key and
 *  checksum: predict and update index and add with what they read. */
TEST_F(ServerSnapshotTest, RestoreRejectsEntryStateUpdateCannotReach)
{
    struct Case
    {
        const char *scheme;
        unsigned nodes;
        std::size_t word; ///< of session 0's table state
        std::uint64_t value;
        const char *what;
    };
    const Case cases[] = {
        {"inter(pid+pc4)2", 8, 0, std::uint64_t(2) << 32,
         "ring position == depth"},
        {"inter(pid+pc4)2", 8, 3, 0xffffffffull << 32,
         "ring position far past depth"},
        {"union(pid+pc4)3", 8, 0, 4, "ring count > depth"},
        {"overlap-last(pid+pc4)1", 8, 0, 3, "overlap-last count > 2"},
        {"pas(pid+pc4)2", 8, 0, std::uint64_t(1) << 16,
         "bit past the history planes"},
        {"pas(pid+pc4)2", 6, 1, std::uint64_t(1) << 7,
         "padding node of a counter plane"},
        {"perceptron(pid+pc4)2w5t2b16", 8, 1, 0x10,
         "weight above weightMax"},
        {"perceptron(pid+pc4)2w5t2b16", 8, 2, 0xef00,
         "weight below weightMin"},
        {"perceptron(pid+pc4)2w5t2b16", 8, 0, std::uint64_t(1) << 20,
         "bit past the history planes"},
        {"perceptron(pid+pc4)2w5t2b16", 6, 3, std::uint64_t(1) << 48,
         "padding weight lane"},
        {"perceptron(pid+pc4)2w5t2b16", 8, 4, std::uint64_t(5) << 32,
         "Bloom count > capacity"},
        {"perceptron(pid+pc4)2w5t2b16", 8, 4, std::uint64_t(1) << 16,
         "Bloom bit past the filter"},
    };
    // The session's table state follows the session count and six
    // header words (id, events, tp, fp, tn, fn) and its word count.
    constexpr std::size_t state_at = 8 * 8;
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << c.scheme << " at " << c.nodes
                                        << " nodes: " << c.what);
        ServeOptions opts;
        opts.session = makeConfig(c.scheme, 32);
        opts.nNodes = c.nodes;
        opts.sessions = 1;
        opts.snapshotPath = snapPath();
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        server.stop(); // an empty-stream snapshot: every entry zero

        std::vector<char> payload;
        ASSERT_EQ(sweep::loadStateBlob(snapPath(), server.snapshotKey(),
                                       payload),
                  sweep::CheckpointLoad::Ok);
        std::uint64_t words = 0;
        std::memcpy(&words, payload.data() + state_at - 8, 8);
        ASSERT_LT(c.word, words);
        std::memcpy(payload.data() + state_at + 8 * c.word, &c.value, 8);
        ASSERT_TRUE(sweep::saveStateBlob(snapPath(), server.snapshotKey(),
                                         payload));
        PredictServer revived(opts);
        EXPECT_EQ(revived.restore(), sweep::CheckpointLoad::Invalid);
        // The same blob with the word zeroed again restores.
        const std::uint64_t zero = 0;
        std::memcpy(payload.data() + state_at + 8 * c.word, &zero, 8);
        ASSERT_TRUE(sweep::saveStateBlob(snapPath(), server.snapshotKey(),
                                         payload));
        PredictServer control(opts);
        EXPECT_EQ(control.restore(), sweep::CheckpointLoad::Ok);
    }
}

TEST_F(ServerSnapshotTest, RestoreRejectsForeignLayout)
{
    const SessionConfig cfg = makeConfig("inter(pid+pc4)2", 32);
    ServeOptions opts;
    opts.session = cfg;
    opts.nNodes = kNodes;
    opts.sessions = 2;
    opts.snapshotPath = snapPath();
    {
        PredictServer server(opts);
        ASSERT_TRUE(server.start());
        server.stop(); // writes an (empty-stream) snapshot
    }

    // Missing file on a fresh path: a fresh start, not an error.
    {
        ServeOptions fresh = opts;
        fresh.snapshotPath = snapPath() + ".absent";
        PredictServer server(fresh);
        EXPECT_EQ(server.restore(), sweep::CheckpointLoad::Missing);
    }
    // A server with a different layout must refuse the blob: session
    // count, scheme, and window all feed the snapshot key.
    {
        ServeOptions other = opts;
        other.sessions = 3;
        PredictServer server(other);
        EXPECT_EQ(server.restore(),
                  sweep::CheckpointLoad::KeyMismatch);
    }
    {
        ServeOptions other = opts;
        other.session = makeConfig("last(pid+pc2)1", 32);
        PredictServer server(other);
        EXPECT_EQ(server.restore(),
                  sweep::CheckpointLoad::KeyMismatch);
    }
    {
        ServeOptions other = opts;
        other.session.windowEvents = 64;
        PredictServer server(other);
        EXPECT_EQ(server.restore(),
                  sweep::CheckpointLoad::KeyMismatch);
    }
}

} // namespace
