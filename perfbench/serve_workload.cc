/**
 * @file
 * serve_stream: predictd replaying the suite.
 *
 * One generator thread (this one) feeds one session per trace,
 * round-robin, into a PredictServer with two agents, and pops every
 * Prediction itself.  Untraced runs time closed-loop saturation
 * passes: the generator submits as fast as the server accepts and the
 * pass ends when the last prediction is popped.  Traced runs add the
 * inline Session oracle's own rate (the service cost alone) and
 * open-loop steps on a fixed ladder of offered rates, each event
 * timed from its due time to the moment the generator pops its
 * prediction.
 *
 * Every pass is checked outside the timed region: each session's
 * served stats must equal the inline oracle's, and every submitted
 * event must be delivered or counted as a dropped response.
 */

#include <memory>
#include <optional>

#include "obs/registry.hh"
#include "perfbench.hh"
#include "serve/server.hh"
#include "sweep/name.hh"

namespace perfbench {

namespace {

using ccp::serve::PredictServer;
using ccp::serve::SessionStats;
using ccp::trace::SharingTrace;

constexpr const char *serveScheme = "inter(pid+pc8)2";
constexpr unsigned serveAgents = 2;
constexpr std::size_t ringCapacity = 4096;
/** Offered rates of the open-loop ladder (events/s). */
constexpr double ladder[] = {0.5e6, 1e6,   1.5e6, 2e6, 2.5e6,
                             3e6,   3.5e6, 4e6,   5e6, 6e6};
/** The rate, well below saturation, whose latency is reported. */
constexpr double pinnedRate = 1e6;
/** A step is sustained only under this due-to-response p99: loose
 *  enough that only a growing backlog breaks it. */
constexpr double p99LimitUs = 20000.0;
/** Predictions popped per session per poll: at least what the
 *  generator submits between two polls. */
constexpr std::size_t pollMax = 1024;
/** Open loop: the generator polls after at most this many submits. */
constexpr std::size_t burstMax = 256;
/** A pass with no delivery for this long has lost events. */
constexpr double stallSec = 5.0;

/** The generator's event order: trace c feeds session c, one event of
 *  each live trace per round. */
struct Stream
{
    std::vector<std::pair<unsigned, std::uint32_t>> order;
    /** Per session: submit ordinal -> position in order. */
    std::vector<std::vector<std::uint32_t>> position;
};

Stream
roundRobin(const std::vector<SharingTrace> &suite)
{
    Stream s;
    s.position.resize(suite.size());
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (unsigned c = 0; c < suite.size(); ++c) {
            if (i >= suite[c].events().size())
                continue;
            any = true;
            s.position[c].push_back(
                static_cast<std::uint32_t>(s.order.size()));
            s.order.emplace_back(c, static_cast<std::uint32_t>(i));
        }
        if (!any)
            return s;
    }
}

bool
sameStats(const SessionStats &a, const SessionStats &b)
{
    return a.events == b.events && sameConfusion(a.total, b.total) &&
           sameConfusion(a.window, b.window);
}

struct Pass
{
    double sec = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t backpressure = 0;
    bool statsMatch = true;
    /** Open loop only: due-to-pop latency of each delivered event. */
    std::vector<double> latencyUs;
    double lateMaxUs = 0.0;
};

/** The server every pass builds: one session per trace. */
ccp::serve::ServeOptions
serveOptions(const Options &opts, const std::vector<SharingTrace> &suite)
{
    ccp::serve::ServeOptions so;
    so.session.scheme = ccp::sweep::parseScheme(serveScheme)->scheme;
    so.session.mode = ccp::predict::UpdateMode::Direct;
    so.nNodes = suite.front().nNodes();
    so.sessions = static_cast<unsigned>(suite.size());
    so.agents = serveAgents;
    so.ringCapacity = ringCapacity;
    so.responseCapacity = opts.responseCapacity != 0
                              ? opts.responseCapacity
                              : 2 * ringCapacity;
    return so;
}

class ServeBench
{
  public:
    ServeBench(const Options &opts, const std::vector<SharingTrace> &suite)
        : suite_(suite), stream_(roundRobin(suite)),
          so_(serveOptions(opts, suite))
    {
    }

    std::uint64_t events() const { return stream_.order.size(); }

    /** Step one Session per trace inline; @return seconds. */
    double
    runOracle(LayerClock &clock)
    {
        std::vector<ccp::serve::Session> sessions;
        sessions.reserve(suite_.size());
        for (unsigned c = 0; c < suite_.size(); ++c)
            sessions.emplace_back(c, so_.session, so_.nNodes);
        const auto t0 = Clock::now();
        {
            LayerClock::Span span(clock, Layer::Serve);
            for (unsigned c = 0; c < suite_.size(); ++c)
                for (const auto &ev : suite_[c].events())
                    sessions[c].onEvent(ev);
        }
        const double sec = secondsSince(t0);
        oracle_.clear();
        for (const auto &s : sessions)
            oracle_.push_back(s.stats());
        return sec;
    }

    /**
     * One pass over the stream.  @p rate 0 is closed loop; otherwise
     * event k is due at start + k / rate.  @p reg (if set) receives
     * the server's own counters.
     */
    Pass
    run(double rate, LayerClock &clock, ccp::obs::StatsRegistry *reg)
    {
        Pass p;
        std::optional<ccp::obs::ScopedRegistry> route;
        if (reg)
            route.emplace(*reg);
        PredictServer server(so_);
        server.start();
        const std::uint64_t total = events();
        const bool open = rate > 0;
        const double ns_per_event = open ? 1e9 / rate : 0.0;
        if (open)
            p.latencyUs.reserve(total);
        std::vector<ccp::serve::Prediction> buf;
        buf.reserve(pollMax);

        const auto t0 = Clock::now();
        auto due = [&](std::uint64_t k) {
            return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                            static_cast<double>(k) * ns_per_event));
        };
        auto poll = [&] {
            for (unsigned c = 0; c < so_.sessions; ++c) {
                buf.clear();
                std::size_t n = 0;
                {
                    LayerClock::Span span(clock, Layer::Serve);
                    n = server.pollPredictions(c, buf, pollMax);
                }
                p.delivered += n;
                if (!open || n == 0)
                    continue;
                const auto now = Clock::now();
                for (const auto &pred : buf) {
                    const auto k = stream_.position[c][pred.seq];
                    p.latencyUs.push_back(
                        std::chrono::duration<double, std::micro>(now -
                                                                  due(k))
                            .count());
                }
            }
        };
        auto submit = [&](std::uint64_t k) {
            const auto [c, i] = stream_.order[k];
            LayerClock::Span span(clock, Layer::Serve);
            return server.submit(c, suite_[c].events()[i]);
        };

        std::uint64_t next = 0, first_try = 0;
        while (next < total) {
            if (!open) {
                while (!submit(next))
                    poll();
                if ((++next & 63) == 0)
                    poll();
                continue;
            }
            const auto now = Clock::now();
            for (std::size_t burst = 0;
                 burst < burstMax && next < total && due(next) <= now;
                 ++burst) {
                if (next >= first_try) {
                    first_try = next + 1;
                    p.lateMaxUs = std::max(
                        p.lateMaxUs,
                        std::chrono::duration<double, std::micro>(
                            now - due(next))
                            .count());
                }
                if (!submit(next))
                    break;
                ++next;
            }
            poll();
        }
        auto progress = Clock::now();
        while (p.delivered + server.responsesDropped() < total) {
            const std::uint64_t before = p.delivered;
            poll();
            if (p.delivered != before)
                progress = Clock::now();
            else if (secondsSince(progress) > stallSec)
                break;
        }
        p.sec = secondsSince(t0);
        server.stop();
        poll();
        p.dropped = server.responsesDropped();
        p.backpressure = server.backpressure();
        for (unsigned c = 0; c < so_.sessions; ++c)
            p.statsMatch = p.statsMatch && sameStats(server.stats(c),
                                                     oracle_[c]);
        return p;
    }

  private:
    const std::vector<SharingTrace> &suite_;
    Stream stream_;
    ccp::serve::ServeOptions so_;
    std::vector<SessionStats> oracle_;
};

} // namespace

void
runServeStream(const Options &opts, Result &res)
{
    LayerClock clock(opts.trace);
    const std::string &dir = opts.suiteDir;
    std::vector<SharingTrace> suite;
    bool loaded = true;
    std::vector<double> load_times;
    const double setup = medianSetup([&] {
        const auto t0 = Clock::now();
        loaded = loadSuite(dir, suite, clock) && loaded;
        load_times.push_back(secondsSince(t0));
        if (!loaded)
            return secondsSince(t0);
        std::unique_ptr<PredictServer> server;
        {
            LayerClock::Span span(clock, Layer::Serve);
            server = std::make_unique<PredictServer>(
                serveOptions(opts, suite));
        }
        const double sec = secondsSince(t0);
        server.reset();
        return sec;
    });
    res.check(loaded, "the seed's suite is not in " + dir +
                          " (run --prepare first)");
    if (!loaded)
        return;

    ServeBench bench(opts, suite);
    const double inline_sec = bench.runOracle(clock);
    const auto total = static_cast<double>(bench.events());
    auto account = [&](const Pass &p) {
        res.attempted += bench.events();
        res.failed += bench.events() - p.delivered;
        res.check(p.delivered + p.dropped == bench.events(),
                  "submitted events neither delivered nor dropped");
        res.check(p.statsMatch,
                  "served session stats differ from the inline oracle");
        return p.sec;
    };

    LayerClock off(false);
    if (!opts.trace) {
        const auto times = repeatFor(opts.seconds, 3, [&] {
            return account(bench.run(0, off, nullptr));
        });
        res.set("setup_s", setup);
        res.set("job_s", jobSeconds(times));
        res.note("serve_events_per_s", total / jobSeconds(times), "1/s");
        res.note("passes_timed", static_cast<double>(times.size()),
                 "count");
    } else {
        const double inline_eps = total / inline_sec;
        res.set("serve.inline_events_per_s", inline_eps);

        // Closed loop, alternating untraced and traced passes.
        ccp::obs::StatsRegistry reg;
        std::vector<double> plain, traced;
        double refused = 0, accepted = 0;
        const auto t0 = Clock::now();
        while (plain.size() < 3 || secondsSince(t0) < opts.seconds / 2) {
            const Pass p = bench.run(0, off, nullptr);
            refused += static_cast<double>(p.backpressure);
            accepted += total;
            plain.push_back(account(p));
            LayerClock::Span job(clock, Layer::Bench);
            traced.push_back(account(bench.run(0, clock, &reg)));
        }
        const double eps = total / median(plain);
        res.set("serve.events_per_s", eps);
        res.set("serve.pipeline_ratio", eps / inline_eps);
        res.set("serve.backpressure_frac", refused / (refused + accepted));
        res.set("obs.trace_overhead_frac",
                median(traced) / median(plain) - 1.0);
        if (const auto *lat = reg.findLatency("serve.ingest_to_predict_ns")) {
            res.set("serve.ingest_to_predict_p50_us", lat->p50() * 1e-3);
            res.set("serve.ingest_to_predict_p99_us", lat->p99() * 1e-3);
        }

        // Open-loop ladder, up to the first rate not sustained.
        for (double rate : ladder) {
            const Pass p = bench.run(rate, off, nullptr);
            account(p);
            const double achieved = total / p.sec;
            const double p99 = quantile(p.latencyUs, 0.99);
            const bool sustained = p.delivered == bench.events() &&
                                   achieved >= 0.98 * rate &&
                                   p99 < p99LimitUs;
            std::fprintf(stderr,
                         "[perfbench] offered %.2fM ev/s: achieved "
                         "%.2fM, p50 %.1f us, p99 %.1f us, generator "
                         "late max %.1f us, %llu dropped%s\n",
                         rate / 1e6, achieved / 1e6,
                         median(p.latencyUs), p99, p.lateMaxUs,
                         static_cast<unsigned long long>(p.dropped),
                         sustained ? "" : " (not sustained)");
            if (rate == pinnedRate) {
                res.set("serve.p50_us", median(p.latencyUs));
                res.set("serve.p99_us", p99);
                res.set("serve.generator_late_max_us", p.lateMaxUs);
            }
            if (!sustained)
                break;
            res.set("serve.max_rate_eps", rate);
        }
        reportLoads(load_times, suiteBytes(dir), res);
        reportLayers(clock, res);
    }
    res.set("peak_rss_mb", peakRssMb());
}

} // namespace perfbench
