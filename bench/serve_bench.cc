/**
 * @file
 * serve_bench: the predictd throughput/latency gate (docs/SERVING.md).
 *
 * Replays the cached benchmark suite as M concurrent clients against
 * a PredictServer: each client thread streams one trace's events
 * through submit() (spinning on backpressure) while draining its
 * response ring.  Two legs are timed, in 7 alternating pairs in one
 * process (one served pass with --snapshot):
 *
 *   inline   one thread stepping M sessions sequentially — the
 *            no-pipeline oracle, and the ground truth the served
 *            per-session confusion counts must match exactly;
 *   serve    the full submit -> SPSC ring -> agent -> response
 *            pipeline at the requested agent count, on a fresh server
 *            per pass.
 *
 * Each leg's seconds is its median pass; pipeline_ratio is the median
 * of the per-pair served/inline throughput ratios.
 *
 * Writes BENCH_serve.json (events/sec for both paths, their ratio,
 * and the server-side ingest-to-predict p50/p99 latency over one
 * event in meta.latency_sample_every) for
 * tools/bench_compare, which gates `pipeline_ratio` against the
 * committed baseline.  Stdout is a deterministic per-session stats
 * table (no timings), so CI can `cmp` runs at different agent counts;
 * timings go to stderr and the JSON.
 *
 * Flags (numbers parse strictly; see common/parse.hh):
 *   --clients N            client sessions (default 4)
 *   --agents N | --threads N   agent threads (default 2; 0 = all hw)
 *   --events N             cap events per client (0 = whole trace)
 *   --scheme S             scheme notation, e.g. "inter(pid+pc8)2" or
 *                          "last(pid+pc8)1[forwarded]"
 *   --window N             sliding-window length (default 4096)
 *   --ring N               ingest/response ring capacity (default 4096)
 *   --snapshot <path>      CCPS snapshot file (periodic + final)
 *   --snapshot-interval S  seconds between periodic snapshots
 *   --resume               restore from --snapshot before serving
 *   --out <path>           JSON output (default BENCH_serve.json)
 *   --log L                log level
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/parse.hh"
#include "obs/json.hh"
#include "serve/server.hh"
#include "sweep/name.hh"

using namespace ccp;

namespace {

std::string
rstrip(std::string s)
{
    while (!s.empty() &&
           (s.back() == '\n' || s.back() == '\r' || s.back() == ' '))
        s.pop_back();
    return s;
}

std::string
gitSha()
{
    if (const char *env = std::getenv("CCP_GIT_SHA"))
        return rstrip(env);
    std::string sha;
    if (FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof(buf), p))
            sha = rstrip(buf);
        ::pclose(p);
    }
    return sha.empty() ? "unknown" : sha;
}

std::string
isoUtcNow()
{
    std::time_t now = std::time(nullptr);
    std::tm tm = {};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start == std::string::npos)
            break;
        return rstrip(line.substr(start));
    }
    return "unknown";
}

struct Args
{
    unsigned clients = 4;
    unsigned agents = 2;
    std::uint64_t eventsPerClient = 0;
    std::string scheme = "inter(pid+pc8)2";
    std::size_t window = 4096;
    std::size_t ring = 4096;
    std::string snapshotPath;
    double snapshotIntervalSec = 0.0;
    bool resume = false;
    std::string outPath = "BENCH_serve.json";
};

bool
takesValue(const std::string &arg, const std::string &flag, int &i,
           int argc, char **argv, std::string &value)
{
    if (arg == flag) {
        if (i + 1 >= argc)
            ccp_fatal(flag, " needs a value");
        value = argv[++i];
        return true;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
        value = arg.substr(flag.size() + 1);
        return true;
    }
    return false;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        std::uint64_t n = 0;
        if (takesValue(arg, "--clients", i, argc, argv, value)) {
            if (!parseU64InRange(value, n, 4096) || n == 0)
                ccp_fatal("bad --clients value '", value,
                          "' (want 1..4096)");
            args.clients = static_cast<unsigned>(n);
        } else if (takesValue(arg, "--agents", i, argc, argv, value) ||
                   takesValue(arg, "--threads", i, argc, argv,
                              value)) {
            if (!parseU64InRange(value, n, 4096))
                ccp_fatal("bad --agents value '", value,
                          "' (want 0..4096; 0 = all hardware "
                          "threads)");
            args.agents = static_cast<unsigned>(n);
        } else if (takesValue(arg, "--events", i, argc, argv,
                              value)) {
            if (!parseU64(value, n))
                ccp_fatal("bad --events value '", value,
                          "' (want an event count; 0 = all)");
            args.eventsPerClient = n;
        } else if (takesValue(arg, "--scheme", i, argc, argv,
                              value)) {
            args.scheme = value;
        } else if (takesValue(arg, "--window", i, argc, argv,
                              value)) {
            if (!parseU64InRange(value, n, 1u << 20) || n == 0)
                ccp_fatal("bad --window value '", value,
                          "' (want 1..1048576 events)");
            args.window = static_cast<std::size_t>(n);
        } else if (takesValue(arg, "--ring", i, argc, argv, value)) {
            if (!parseU64InRange(value, n, 1u << 24) || n < 2)
                ccp_fatal("bad --ring value '", value,
                          "' (want 2..16777216 slots)");
            args.ring = static_cast<std::size_t>(n);
        } else if (takesValue(arg, "--snapshot", i, argc, argv,
                              value)) {
            if (value.empty())
                ccp_fatal("--snapshot needs a non-empty path");
            args.snapshotPath = value;
        } else if (takesValue(arg, "--snapshot-interval", i, argc,
                              argv, value)) {
            double sec = 0.0;
            if (!parseDouble(value, sec) || sec < 0)
                ccp_fatal("bad --snapshot-interval '", value,
                          "' (want seconds >= 0)");
            args.snapshotIntervalSec = sec;
        } else if (arg == "--resume") {
            args.resume = true;
        } else if (takesValue(arg, "--out", i, argc, argv, value)) {
            if (value.empty())
                ccp_fatal("--out needs a non-empty path");
            args.outPath = value;
        } else if (takesValue(arg, "--log", i, argc, argv, value)) {
            LogLevel level = LogLevel::Info;
            if (!parseLogLevel(value, level))
                ccp_fatal("bad --log level '", value,
                          "' (want quiet|warn|info|debug)");
            setLogLevel(level);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: serve_bench [--clients <n>] [--agents <n>] "
                "[--events <n>] [--scheme <notation>] [--window <n>] "
                "[--ring <n>] [--snapshot <path>] "
                "[--snapshot-interval <sec>] [--resume] "
                "[--out <bench.json>] [--log <level>]\n");
            std::exit(0);
        } else {
            ccp_fatal("unknown argument '", arg, "' (try --help)");
        }
    }
    if (args.resume && args.snapshotPath.empty())
        ccp_fatal("--resume needs --snapshot <path>");
    return args;
}

/** Inline/served timing pairs per run (odd, so the median is one
 *  pair's ratio). */
constexpr int timingPairs = 7;

double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

double
elapsedSec(std::chrono::steady_clock::time_point t0)
{
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    auto parsed = sweep::parseScheme(args.scheme);
    if (!parsed)
        ccp_fatal("bad --scheme notation '", args.scheme, "'");
    serve::SessionConfig session_cfg;
    session_cfg.scheme = parsed->scheme;
    session_cfg.mode =
        parsed->mode.value_or(predict::UpdateMode::Direct);
    session_cfg.windowEvents = args.window;
    if (session_cfg.mode == predict::UpdateMode::Ordered)
        ccp_fatal("ordered update cannot be served online; use "
                  "direct or forwarded");

    const auto suite = benchutil::loadOrGenerateSuite();
    const unsigned n_nodes = suite.front().nNodes();

    // Client i replays trace i mod |suite| (optionally truncated).
    std::vector<std::span<const trace::CoherenceEvent>> streams;
    std::vector<std::uint64_t> stream_len(args.clients);
    std::uint64_t total_events = 0;
    for (unsigned c = 0; c < args.clients; ++c) {
        streams.push_back(suite[c % suite.size()].events());
        stream_len[c] = streams[c].size();
        if (args.eventsPerClient > 0)
            stream_len[c] =
                std::min<std::uint64_t>(stream_len[c],
                                        args.eventsPerClient);
        total_events += stream_len[c];
    }

    // ---- Inline oracle: one thread, M sessions, no pipeline.  The
    // stats come from the first pass; every later pass must reproduce
    // them. ----
    std::vector<serve::SessionStats> inline_stats;
    auto inline_pass = [&] {
        std::vector<serve::Session> sessions;
        sessions.reserve(args.clients);
        for (unsigned c = 0; c < args.clients; ++c)
            sessions.emplace_back(c, session_cfg, n_nodes);
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned c = 0; c < args.clients; ++c)
            for (std::uint64_t i = 0; i < stream_len[c]; ++i)
                sessions[c].onEvent(streams[c][i]);
        const double sec = elapsedSec(t0);
        const bool first = inline_stats.empty();
        for (unsigned c = 0; c < args.clients; ++c) {
            const serve::SessionStats s = sessions[c].stats();
            if (first)
                inline_stats.push_back(s);
            else if (s != inline_stats[c])
                ccp_fatal("inline session ", c,
                          " differs from the first inline pass");
        }
        return sec;
    };

    // ---- Served pipeline: a fresh server per pass. ----
    serve::ServeOptions opts;
    opts.session = session_cfg;
    opts.nNodes = n_nodes;
    opts.sessions = args.clients;
    opts.agents = args.agents;
    opts.ringCapacity = args.ring;
    opts.snapshotPath = args.snapshotPath;
    opts.snapshotIntervalSec = args.snapshotIntervalSec;
    struct Served
    {
        double sec = 0.0;
        unsigned agents = 0;
        std::uint64_t received = 0;
        std::uint64_t dropped = 0;
        std::uint64_t backpressure = 0;
    };
    auto served_pass = [&] {
        Served out;
        serve::PredictServer server(opts);
        if (args.resume) {
            auto status = server.restore();
            std::fprintf(stderr, "[serve] restore: %s\n",
                         sweep::checkpointLoadName(status));
            if (status == sweep::CheckpointLoad::Invalid ||
                status == sweep::CheckpointLoad::KeyMismatch ||
                status == sweep::CheckpointLoad::UnsupportedKind)
                std::exit(1);
        }
        std::vector<std::uint64_t> received(args.clients, 0);
        const auto t0 = std::chrono::steady_clock::now();
        if (!server.start())
            ccp_fatal("server failed to start");
        {
            std::vector<std::thread> clients;
            clients.reserve(args.clients);
            for (unsigned c = 0; c < args.clients; ++c) {
                clients.emplace_back([&, c] {
                    std::vector<serve::Prediction> preds;
                    preds.reserve(256);
                    for (std::uint64_t i = 0; i < stream_len[c]; ++i) {
                        while (!server.submit(c, streams[c][i]))
                            std::this_thread::yield();
                        if ((i & 63) == 0) {
                            preds.clear();
                            received[c] +=
                                server.pollPredictions(c, preds, 256);
                        }
                    }
                    // Drain what the agents have served so far;
                    // stop() finishes the rest (drops are counted, not
                    // lost silently).
                    std::size_t n;
                    do {
                        preds.clear();
                        n = server.pollPredictions(c, preds, 256);
                        received[c] += n;
                    } while (n > 0);
                });
            }
            for (auto &t : clients)
                t.join();
        }
        server.stop();
        out.sec = elapsedSec(t0);
        for (unsigned c = 0; c < args.clients; ++c) {
            std::vector<serve::Prediction> preds;
            out.received +=
                server.pollPredictions(c, preds, ~std::size_t(0));
            out.received += received[c];
        }
        // Correctness: served state must equal the inline oracle
        // (same events, same order, same update rule).
        for (unsigned c = 0; !args.resume && c < args.clients; ++c) {
            serve::SessionStats got = server.stats(c);
            const serve::SessionStats &want = inline_stats[c];
            if (got != want)
                ccp_fatal("served session ", c,
                          " diverged from the inline oracle (events ",
                          got.events, " vs ", want.events, ")");
        }
        out.agents = server.agents();
        out.dropped = server.responsesDropped();
        out.backpressure = server.backpressure();
        return out;
    };

    // ---- Timing: inline and served passes in alternating pairs.  A
    // process's legs drift together (one pass is only ~10-40 ms at
    // CCP_SCALE=0.05), so each pair's ratio is steadier than either
    // leg, and the gated ratio is the median over the pairs.  Odd
    // pairs run the served leg first.  A snapshot run is a durability
    // check, so it serves once. ----
    const int pairs = args.snapshotPath.empty() ? timingPairs : 1;
    std::vector<double> inline_secs, serve_secs, ratios;
    Served served;
    for (int pair = 0; pair < pairs; ++pair) {
        double inline_sec = 0.0;
        if (pair % 2 == 0)
            inline_sec = inline_pass();
        served = served_pass();
        if (pair % 2 == 1)
            inline_sec = inline_pass();
        inline_secs.push_back(inline_sec);
        serve_secs.push_back(served.sec);
        ratios.push_back(served.sec > 0 ? inline_sec / served.sec : 0.0);
    }
    const double inline_sec = median(inline_secs);
    const double serve_sec = median(serve_secs);
    const double pipeline_ratio = median(ratios);
    const std::uint64_t received_total = served.received;

    // Deterministic stdout: per-session screening stats, no timings,
    // so runs at different agent counts must compare byte-identical.
    benchutil::Table table({"session", "trace", "events", "sens",
                            "pvp", "win_sens", "win_pvp"});
    for (unsigned c = 0; c < args.clients; ++c) {
        const serve::SessionStats &s = inline_stats[c];
        table.addRow({std::to_string(c),
                      suite[c % suite.size()].name(),
                      std::to_string(s.events),
                      benchutil::fmt(s.total.sensitivity()),
                      benchutil::fmt(s.total.pvp()),
                      benchutil::fmt(s.window.sensitivity()),
                      benchutil::fmt(s.window.pvp())});
    }
    table.print();

    const auto &root = obs::StatsRegistry::root();
    const LogHistogram *lat =
        root.findLatency("serve.ingest_to_predict_ns");
    const double p50 = lat ? lat->p50() : 0.0;
    const double p99 = lat ? lat->p99() : 0.0;
    // The wait/service split: queue wait is the part of p50/p99 spent
    // before an agent's drain reached the event.
    const LogHistogram *wait = root.findLatency("serve.queue_wait_ns");
    const Summary *busy = root.findSummary("serve.agent_busy_frac");
    const std::uint64_t snapshots =
        root.findCounter("serve.snapshots")
            ? root.findCounter("serve.snapshots")->value
            : 0;

    const double serve_eps =
        serve_sec > 0 ? static_cast<double>(total_events) / serve_sec
                      : 0.0;
    const double inline_eps =
        inline_sec > 0
            ? static_cast<double>(total_events) / inline_sec
            : 0.0;

    obs::Json doc = obs::Json::object();
    obs::Json meta = obs::Json::object();
    meta["kind"] = obs::Json("serve");
    meta["git_sha"] = obs::Json(gitSha());
    meta["date_utc"] = obs::Json(isoUtcNow());
    meta["cpu_model"] = obs::Json(cpuModel());
    meta["clients"] = obs::Json(args.clients);
    meta["agents"] = obs::Json(served.agents);
    meta["scheme"] = obs::Json(sweep::formatScheme(
        session_cfg.scheme, session_cfg.mode));
    meta["window_events"] =
        obs::Json(std::uint64_t(session_cfg.windowEvents));
    meta["ring_capacity"] = obs::Json(std::uint64_t(args.ring));
    // serve.p50_ns/p99_ns and the queue-wait quantiles are over one
    // event in this many.
    meta["latency_sample_every"] =
        obs::Json(std::uint64_t(serve::latencySampleEvery));
    // pipeline_ratio is the median over this many inline/served pairs.
    meta["timing_pairs"] = obs::Json(std::uint64_t(pairs));
    doc["meta"] = std::move(meta);

    obs::Json serve_j = obs::Json::object();
    serve_j["events"] = obs::Json(total_events);
    serve_j["seconds"] = obs::Json(serve_sec);
    serve_j["events_per_sec"] = obs::Json(serve_eps);
    serve_j["p50_ns"] = obs::Json(p50);
    serve_j["p99_ns"] = obs::Json(p99);
    serve_j["queue_wait_p50_ns"] = obs::Json(wait ? wait->p50() : 0.0);
    serve_j["queue_wait_p99_ns"] = obs::Json(wait ? wait->p99() : 0.0);
    serve_j["agent_busy_frac"] = obs::Json(busy ? busy->mean() : 0.0);
    serve_j["backpressure"] = obs::Json(served.backpressure);
    serve_j["responses_received"] = obs::Json(received_total);
    serve_j["responses_dropped"] = obs::Json(served.dropped);
    serve_j["snapshots"] = obs::Json(snapshots);
    doc["serve"] = std::move(serve_j);

    obs::Json inline_j = obs::Json::object();
    inline_j["events"] = obs::Json(total_events);
    inline_j["seconds"] = obs::Json(inline_sec);
    inline_j["events_per_sec"] = obs::Json(inline_eps);
    doc["inline"] = std::move(inline_j);

    doc["pipeline_ratio"] = obs::Json(pipeline_ratio);

    std::ofstream os(args.outPath, std::ios::binary);
    os << doc.dump(2) << "\n";
    if (!os.good()) {
        std::fprintf(stderr, "[serve] FAIL: cannot write %s\n",
                     args.outPath.c_str());
        return 1;
    }

    std::fprintf(stderr,
                 "[serve] %llu events: inline %.3fs (%.2fM ev/s), "
                 "served %.3fs (%.2fM ev/s, ratio %.2fx), "
                 "latency p50 %.0fns p99 %.0fns, %u agents\n",
                 static_cast<unsigned long long>(total_events),
                 inline_sec, inline_eps / 1e6, serve_sec,
                 serve_eps / 1e6,
                 pipeline_ratio, p50, p99, served.agents);
    return 0;
}
