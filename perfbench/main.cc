/**
 * @file
 * perfbench: the repository's end-to-end benchmark on the real
 * seven-trace suite (see README.md beside this file).
 *
 *   perfbench --prepare [--seed <n>] [--suite-dir <dir>]
 *   perfbench --workload <name> [--seed <n>] [--seconds <s>]
 *             [--trace 0|1] [--suite-dir <dir>]
 *             [--scratch-dir <dir>] [--digest-file <path>]
 *             [--response-capacity <n>]
 *
 * Workloads: sweep_paper_direct, sweep_window_forwarded, serve_stream,
 * simulate_suite.  --prepare generates the seed's suite into the suite
 * directory; a measured run expects it there.  Sweeps use the host's
 * cores, at most 4.  --trace 0 measures the end-to-end metrics, --trace 1
 * the per-layer ones.  Human-readable metric lines go to stdout; the
 * last stdout line is one JSON object
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * A failed output check prints what failed on stderr, reports no
 * metrics and exits 1.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/logging.hh"
#include "common/parse.hh"
#include "perfbench.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"job_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"trace.load_s", "s"},
        {"trace.load_mb_per_s", "MB/s"},
        {"trace.save_s", "s"},
        {"sim.ops_per_s", "1/s"},
        {"sim.barnes.s", "s"},
        {"sim.em3d.s", "s"},
        {"sim.gauss.s", "s"},
        {"sim.mp3d.s", "s"},
        {"sim.ocean.s", "s"},
        {"sim.unstruct.s", "s"},
        {"sim.water.s", "s"},
        {"sim.ops", "count"},
        {"sim.store_misses", "count"},
        {"sweep.last.s", "s"},
        {"sweep.last.scheme_events_per_s", "1/s"},
        {"sweep.union.s", "s"},
        {"sweep.union.scheme_events_per_s", "1/s"},
        {"sweep.inter.s", "s"},
        {"sweep.inter.scheme_events_per_s", "1/s"},
        {"sweep.pas.s", "s"},
        {"sweep.pas.scheme_events_per_s", "1/s"},
        {"sweep.perceptron.s", "s"},
        {"sweep.perceptron.scheme_events_per_s", "1/s"},
        {"sweep.last.simd_over_batched", "ratio"},
        {"sweep.union.simd_over_batched", "ratio"},
        {"sweep.inter.simd_over_batched", "ratio"},
        {"sweep.batch_s.p50", "s"},
        {"sweep.batch_s.p90", "s"},
        {"sweep.batch_s.max", "s"},
        {"sweep.batches", "count"},
        {"sweep.worker_busy_frac", "ratio"},
        {"sweep.scheme_events", "count"},
        {"rank.s", "s"},
        {"predict.reference.scheme_events_per_s", "1/s"},
        {"serve.events_per_s", "1/s"},
        {"serve.max_rate_eps", "1/s"},
        {"serve.p50_us", "us"},
        {"serve.p99_us", "us"},
        {"serve.inline_events_per_s", "1/s"},
        {"serve.pipeline_ratio", "ratio"},
        {"serve.backpressure_frac", "ratio"},
        {"serve.ingest_to_predict_p50_us", "us"},
        {"serve.ingest_to_predict_p99_us", "us"},
        {"serve.generator_late_max_us", "us"},
        {"obs.trace_overhead_frac", "ratio"},
        {"bench.self_s", "s"},
        {"bench.calls", "count"},
        {"trace.self_s", "s"},
        {"trace.calls", "count"},
        {"sim.self_s", "s"},
        {"sim.calls", "count"},
        {"sweep.self_s", "s"},
        {"sweep.calls", "count"},
        {"rank.self_s", "s"},
        {"rank.calls", "count"},
        {"predict.self_s", "s"},
        {"predict.calls", "count"},
        {"serve.self_s", "s"},
        {"serve.calls", "count"},
    };
    return defs;
}

namespace {

const MetricDef *
findDef(const std::string &name)
{
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const auto &d : *list)
            if (name == d.name)
                return &d;
    return nullptr;
}

/** JSON number with every digit kept (finite values only). */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

void
Result::set(const std::string &name, double value)
{
    const MetricDef *def = findDef(name);
    if (!def)
        ccp_fatal("perfbench: unknown metric '", name, "'");
    for (auto &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    metrics_.push_back({name, value, def->unit});
}

void
Result::note(const std::string &name, double value, const char *unit)
{
    notes_.push_back({name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    if (!ok)
        errors_.push_back(what);
}

int
Result::finish(const Options &opts) const
{
    // The reported set is exactly the list for this run's mode: the
    // per-layer list starts at 0 (layer not run on this workload).
    const auto &defs = opts.trace ? perLayerMetrics() : endToEndMetrics();
    std::map<std::string, double> values;
    for (const auto &d : defs)
        values[d.name] = 0.0;
    for (const auto &m : metrics_)
        if (values.count(m.name))
            values[m.name] = m.value;

    for (const auto &n : notes_)
        std::printf("%-40s %.6g %s\n", n.name.c_str(), n.value,
                    n.unit.c_str());
    for (const auto &e : errors_)
        std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", e.c_str());

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &d : defs) {
        if (!correct())
            break;
        std::printf("%-40s %.6g %s\n", d.name, values[d.name], d.unit);
        json += first ? "" : ", ";
        first = false;
        json += std::string("\"") + d.name + "\": {\"value\": " +
                number(values[d.name]) + ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
}

void
reportLayers(const LayerClock &clock, Result &res)
{
    for (unsigned i = 0; i < nLayers; ++i) {
        const auto layer = static_cast<Layer>(i);
        const std::string name = layerName(layer);
        res.set(name + ".self_s", clock.selfSec(layer));
        res.set(name + ".calls", static_cast<double>(clock.calls(layer)));
    }
}

void
reportLoads(const std::vector<double> &seconds, std::uint64_t bytes,
            Result &res)
{
    const double sec = median(seconds);
    res.set("trace.load_s", sec);
    res.set("trace.load_mb_per_s", static_cast<double>(bytes) / 1e6 / sec);
}

} // namespace perfbench

namespace {

using perfbench::Options;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --prepare [--seed <n>] "
                 "[--suite-dir <dir>]\n"
                 "       perfbench --workload <sweep_paper_direct|"
                 "sweep_window_forwarded|serve_stream|simulate_suite>\n"
                 "                 [--seed <n>] [--seconds <s>] "
                 "[--trace 0|1]\n"
                 "                 [--suite-dir <dir>] "
                 "[--scratch-dir <dir>] [--digest-file <path>]\n"
                 "                 [--response-capacity <n>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--prepare") {
            opts.prepare = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            if (!ccp::parseU64(value, n, 0))
                usage("bad --seed");
            opts.seed = n;
        } else if (flag == "--seconds") {
            if (!ccp::parseDouble(value, opts.seconds) ||
                !(opts.seconds > 0))
                usage("bad --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace (want 0 or 1)");
            opts.trace = value == "1";
        } else if (flag == "--suite-dir") {
            opts.suiteDir = value;
        } else if (flag == "--scratch-dir") {
            opts.scratchDir = value;
        } else if (flag == "--digest-file") {
            opts.digestFile = value;
        } else if (flag == "--response-capacity") {
            if (!ccp::parseU64InRange(value, n, 1u << 24) || n == 1)
                usage("bad --response-capacity");
            opts.responseCapacity = n;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (opts.workload.empty() && !opts.prepare)
        usage("--workload is required");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    ccp::setLogLevel(ccp::LogLevel::Warn);
    if (opts.prepare) {
        if (perfbench::prepareSuite(opts))
            return 0;
        std::fprintf(stderr, "perfbench: cannot write the suite to %s\n",
                     opts.suiteDir.c_str());
        return 1;
    }

    perfbench::Result res;
    if (opts.workload == "sweep_paper_direct")
        perfbench::runSweepPaperDirect(opts, res);
    else if (opts.workload == "sweep_window_forwarded")
        perfbench::runSweepWindowForwarded(opts, res);
    else if (opts.workload == "serve_stream")
        perfbench::runServeStream(opts, res);
    else if (opts.workload == "simulate_suite")
        perfbench::runSimulateSuite(opts, res);
    else
        usage(("unknown workload " + opts.workload).c_str());
    return res.finish(opts);
}
