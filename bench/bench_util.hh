/**
 * @file
 * Shared plumbing for the reproduction benches: one-time trace
 * generation with on-disk caching (generate once, sweep many times —
 * the paper's own methodology), a fixed-width table printer, and the
 * paper's published numbers for side-by-side comparison.
 *
 * Also here: BenchContext, the shared command-line front end of every
 * bench/figure binary.  It understands
 *
 *   --report <path>   write a structured JSON run report (machine
 *                     config, suite + protocol counters, screening
 *                     metrics, per-phase timings) on exit
 *   --log <level>     override CCP_LOG (quiet|warn|info|debug)
 *   --threads <n>     worker threads for scheme sweeps and cold trace
 *                     generation (default: all hardware threads; 1 =
 *                     the sequential path; 0 is the same as the
 *                     default)
 *   --kernel <k>      sweep evaluation kernel: "batched" (the
 *                     event-major default, docs/KERNELS.md) or
 *                     "reference" (the per-scheme oracle); output is
 *                     byte-identical either way
 *
 * Tracing flags (docs/OBSERVABILITY.md, "Tracing & profiling"):
 *   --trace-out <path>  record execution spans (thread-pool chunks,
 *                       batch kernels, checkpoint I/O, trace-cache
 *                       load) and write Chrome trace-event JSON there
 *                       on exit — load it in Perfetto or
 *                       chrome://tracing
 *   --perf-counters     additionally sample hardware counters
 *                       (cycles, instructions, cache & branch misses)
 *                       per span; needs --trace-out and a kernel that
 *                       allows perf_event_open (silently no-op
 *                       otherwise)
 *
 * Resilience flags (any of them routes the sweep through
 * sweep::ResilientRunner — see docs/RESILIENCE.md):
 *   --checkpoint <base>        periodic atomic checkpoints; the file
 *                              written is <base>.<key>.ckpt, keyed on
 *                              trace/scheme/kernel identity
 *   --resume                   skip scheme batches already covered by
 *                              a valid checkpoint
 *   --checkpoint-interval <s>  seconds between checkpoint writes
 *                              (default 30; 0 = after every batch)
 *   --mem-budget <bytes>       cap on total predictor state per batch;
 *                              accepts suffixes K/M/G (e.g. 512M);
 *                              oversized schemes are skipped and
 *                              reported, never silently dropped
 *   --batch-deadline <s>       advisory per-batch wall-clock deadline;
 *                              overruns are recorded, results kept
 *
 * Distributed-sweep flags (top-10 benches only — docs/RESILIENCE.md,
 * "Distributed sweeps"):
 *   --shards <K>           partition the scheme list into K shards by
 *                          canonical-name hash (sweep/shard.hh)
 *   --shard-id <i>         worker mode: evaluate only shard i's
 *                          schemes, checkpoint them, print no table
 *                          (needs --shards and --checkpoint)
 *   --orchestrate <W>      supervisor mode: spawn W concurrent worker
 *                          processes over the K shards, retry/
 *                          quarantine failures, merge, and print the
 *                          same table a single-process run prints —
 *                          byte-identical wherever shards completed
 *   --worker-deadline <s>  per-worker liveness deadline: a worker
 *                          whose shard checkpoint stops advancing for
 *                          s seconds is SIGTERMed, then SIGKILLed
 *   --worker-retries <n>   launches per shard before quarantine
 *                          (default 3)
 *
 * Environment knobs:
 *   CCP_TRACE_DIR  cache directory (default ./ccp_traces)
 *   CCP_SCALE      workload iteration scale (default 1.0)
 *   CCP_SEED       workload seed (default 0x5eed)
 *   CCP_LOG        log level (quiet|warn|info|debug, default info)
 */

#ifndef CCP_BENCH_BENCH_UTIL_HH
#define CCP_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/mem_budget.hh"
#include "common/parse.hh"
#include "common/thread_pool.hh"
#include "mem/protocol.hh"
#include "obs/perf.hh"
#include "obs/report.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "predict/evaluator.hh"
#include "sweep/name.hh"
#include "sweep/orchestrator.hh"
#include "sweep/parallel.hh"
#include "sweep/runner.hh"
#include "sweep/search.hh"
#include "sweep/shard.hh"
#include "trace/format.hh"
#include "trace/trace.hh"
#include "workloads/registry.hh"

namespace ccp::benchutil {

inline double
envScale()
{
    const char *s = std::getenv("CCP_SCALE");
    if (!s)
        return 1.0;
    double v = 0.0;
    if (!parseDouble(s, v) || v <= 0.0)
        ccp_fatal("bad CCP_SCALE value '", s,
                  "' (want a positive number)");
    return v;
}

inline std::uint64_t
envSeed()
{
    const char *s = std::getenv("CCP_SEED");
    if (!s)
        return 0x5eed;
    // Base 0: plain decimal, 0x hex, or leading-0 octal — but the
    // whole string must parse.  atoi-style "take the prefix, map
    // garbage to 0" would silently collapse distinct-looking seeds
    // onto one trace cache key and defeat deterministic repro.
    std::uint64_t v = 0;
    if (!parseU64(s, v, 0))
        ccp_fatal("bad CCP_SEED value '", s,
                  "' (want an unsigned integer; 0x hex ok)");
    return v;
}

inline std::string
traceDir()
{
    const char *d = std::getenv("CCP_TRACE_DIR");
    return d ? d : "ccp_traces";
}

/**
 * Cache key of one suite trace: an FNV-1a hash over everything that
 * determines the generated events — trace format version, workload
 * name, seed, exact scale bits, and the default machine geometry the
 * suite is generated with.  Any parameter change (or a format bump)
 * changes the filename, so stale-parameter traces are never served;
 * they are simply regenerated under the new key.
 */
inline std::uint64_t
traceCacheKey(const std::string &name, std::uint64_t seed,
              double scale)
{
    trace::Fnv1a h;
    auto word = [&h](std::uint64_t v) { h.update(&v, sizeof(v)); };
    // Bump alongside traceFormatVersion when the *generator* changes
    // behaviour without a format change.
    constexpr std::uint64_t cacheKeySchema = 1;
    word(cacheKeySchema);
    word(trace::traceFormatVersion);
    h.update(name.data(), name.size());
    h.update("\0", 1);
    word(seed);
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t scale_bits = 0;
    std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
    word(scale_bits);
    const mem::MachineConfig c;
    word(c.nNodes);
    word(static_cast<std::uint64_t>(c.protocol));
    word(static_cast<std::uint64_t>(c.placement));
    word(c.l1.sizeBytes);
    word(c.l1.assoc);
    word(c.l2.sizeBytes);
    word(c.l2.assoc);
    word(c.torusWidth);
    word(blockShift);
    return h.digest();
}

/** Cache filename for one suite trace: `<name>_<key16>.trace`. */
inline std::string
traceCachePath(const std::string &dir, const std::string &name,
               std::uint64_t seed, double scale)
{
    char key[17];
    std::snprintf(key, sizeof(key), "%016llx",
                  static_cast<unsigned long long>(
                      traceCacheKey(name, seed, scale)));
    return dir + "/" + name + "_" + key + ".trace";
}

/**
 * Load the seven-benchmark suite from the trace cache, generating and
 * saving any missing traces.  All benches share the cache, so the
 * suite is generated exactly once per configuration (the filename is
 * keyed on a workload-config hash, see traceCacheKey()).  Missing
 * traces are generated and saved at the same time on up to
 * @p threads workers (0 = one per hardware thread), each under its
 * own stats shard merged in suite order (workloads::runSharded()), so
 * files and counters do not depend on the thread count.
 *
 * Robustness: a cached file that fails validation (truncated, bad
 * checksum, old format version) is counted under
 * `bench.traces_corrupt_rejected`, deleted, and regenerated; saves go
 * through SharingTrace::saveFile's atomic temp-file + rename(), so
 * concurrent benches sharing CCP_TRACE_DIR never read partial files.
 */
inline std::vector<trace::SharingTrace>
loadOrGenerateSuite(unsigned threads = 0)
{
    const double scale = envScale();
    const std::uint64_t seed = envSeed();
    const std::string dir = traceDir();
    std::filesystem::create_directories(dir);

    auto &reg = obs::StatsRegistry::current();
    CCP_TRACE_SPAN("bench", "bench.suite_load");
    obs::ScopedTimer suite_timer(reg, "bench.suite_load_seconds");

    const auto &names = workloads::workloadNames();
    std::vector<trace::SharingTrace> suite(names.size());
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string file =
            traceCachePath(dir, names[i], seed, scale);
        obs::Stopwatch load_watch;
        if (suite[i].loadFile(file)) {
            reg.summary("bench.trace_load_seconds")
                .add(load_watch.elapsedSec());
            ++reg.counter("bench.traces_cached");
            continue;
        }
        if (std::filesystem::exists(file)) {
            // Present but unloadable: torn write, bit rot, or a stale
            // format version.  Drop it and regenerate.
            ++reg.counter("bench.traces_corrupt_rejected");
            ccp_warn("trace cache: rejecting invalid file ", file,
                     " (regenerating)");
            std::error_code ec;
            std::filesystem::remove(file, ec);
        }
        // Progress goes to stderr so stdout stays a clean table.
        if (logLevel() >= LogLevel::Info)
            std::fprintf(stderr, "[bench] generating %s (scale %.2f)"
                         "...\n", names[i].c_str(), scale);
        missing.push_back(i);
    }

    workloads::runSharded(missing.size(), threads, [&](std::size_t k) {
        const std::size_t i = missing[k];
        auto &shard = obs::StatsRegistry::current();
        obs::ScopedTimer gen_timer(shard, "bench.trace_gen_seconds");
        workloads::WorkloadParams params;
        params.seed = seed;
        params.scale = scale;
        suite[i] = workloads::generateTrace(names[i], params);
        gen_timer.stop();
        ++shard.counter("bench.traces_generated");
        const std::string file =
            traceCachePath(dir, names[i], seed, scale);
        if (!suite[i].saveFile(file))
            ccp_warn("cannot cache trace at ", file);
    });
    return suite;
}

/** Minimal fixed-width column table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &row : rows_)
            for (std::size_t c = 0; c < row.size(); ++c)
                width[c] = std::max(width[c], row[c].size());

        auto line = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s%s", static_cast<int>(width[c]),
                            cells[c].c_str(),
                            c + 1 == cells.size() ? "\n" : "  ");
        };
        line(headers_);
        std::size_t total = headers_.size() * 2;
        for (auto w : width)
            total += w;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &row : rows_)
            line(row);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(double v, int prec = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

inline std::string
fmtU(std::uint64_t v)
{
    return std::to_string(v);
}

/** Machine geometry as a run-report JSON object. */
inline obs::Json
machineConfigJson(const mem::MachineConfig &c)
{
    obs::Json j = obs::Json::object();
    j["nodes"] = obs::Json(c.nNodes);
    j["protocol"] =
        obs::Json(c.protocol == mem::ProtocolKind::MESI ? "MESI"
                                                        : "MSI");
    j["placement"] = obs::Json(
        c.placement == mem::PlacementPolicy::FirstTouch
            ? "first-touch"
            : "interleaved");
    j["l1_bytes"] = obs::Json(c.l1.sizeBytes);
    j["l1_assoc"] = obs::Json(c.l1.assoc);
    j["l2_bytes"] = obs::Json(c.l2.sizeBytes);
    j["l2_assoc"] = obs::Json(c.l2.assoc);
    j["torus_width"] = obs::Json(c.torusWidth);
    return j;
}

/** One trace's run-level metadata (Table 5/6 + protocol counters). */
inline obs::Json
traceMetaJson(const trace::SharingTrace &tr)
{
    const trace::TraceMeta &m = tr.meta();
    obs::Json j = obs::Json::object();
    j["name"] = obs::Json(tr.name());
    j["nodes"] = obs::Json(tr.nNodes());
    j["store_misses"] = obs::Json(tr.storeMisses());
    j["decisions"] = obs::Json(tr.decisions());
    j["sharing_events"] = obs::Json(tr.sharingEvents());
    j["prevalence"] = obs::Json(tr.prevalence());
    j["total_ops"] = obs::Json(m.totalOps);
    j["blocks_touched"] = obs::Json(m.blocksTouched);
    j["max_static_stores"] = obs::Json(m.maxStaticStoresPerNode);
    j["max_predicted_stores"] = obs::Json(m.maxPredictedStoresPerNode);
    j["reads"] = obs::Json(m.reads);
    j["writes"] = obs::Json(m.writes);
    j["read_misses"] = obs::Json(m.readMisses);
    j["write_misses"] = obs::Json(m.writeMisses);
    j["write_faults"] = obs::Json(m.writeFaults);
    j["silent_upgrades"] = obs::Json(m.silentUpgrades);
    j["invalidations"] = obs::Json(m.invalidationsSent);
    j["downgrades"] = obs::Json(m.downgrades);
    j["interventions"] = obs::Json(m.interventions);
    return j;
}

/** Confusion counts + the derived screening ratios. */
inline obs::Json
confusionJson(const predict::Confusion &c)
{
    obs::Json j = obs::Json::object();
    j["tp"] = obs::Json(c.tp);
    j["fp"] = obs::Json(c.fp);
    j["tn"] = obs::Json(c.tn);
    j["fn"] = obs::Json(c.fn);
    j["prevalence"] = obs::Json(c.prevalence());
    j["sensitivity"] = obs::Json(c.sensitivity());
    j["pvp"] = obs::Json(c.pvp());
    j["specificity"] = obs::Json(c.specificity());
    return j;
}

/** One scheme's suite evaluation: spec, cost, and metrics. */
inline obs::Json
suiteResultJson(const predict::SuiteResult &res, unsigned n_nodes = 16)
{
    obs::Json j = obs::Json::object();
    j["scheme"] = obs::Json(sweep::formatScheme(res.scheme));
    j["update"] = obs::Json(predict::updateModeName(res.mode));
    j["size_bits"] = obs::Json(res.scheme.sizeBits(n_nodes));
    j["depth"] = obs::Json(res.scheme.depth);
    j["avg_sensitivity"] = obs::Json(res.avgSensitivity());
    j["avg_pvp"] = obs::Json(res.avgPvp());
    j["avg_prevalence"] = obs::Json(res.avgPrevalence());
    j["pooled"] = confusionJson(res.pooled);
    obs::Json &per = j["per_trace"];
    per = obs::Json::array();
    for (const auto &tr : res.perTrace) {
        obs::Json row = obs::Json::object();
        row["trace"] = obs::Json(tr.traceName);
        row["confusion"] = confusionJson(tr.confusion);
        per.append(std::move(row));
    }
    return j;
}

/**
 * Whether a bench can run as a shard worker / shard supervisor.  Only
 * drivers whose sweep is a pure function of (suite, scheme list) can
 * — the top-10 tables opt in; everything else rejects the shard flags
 * loudly instead of silently sweeping the wrong space.
 */
enum class Sharding : bool
{
    Unsupported,
    Supported,
};

/**
 * Shared front end of the bench/figure binaries: parses the common
 * flags, stamps the config section, and writes the run report (if
 * requested) in finish().
 */
class BenchContext
{
  public:
    BenchContext(std::string tool, int argc, char **argv,
                 Sharding sharding = Sharding::Unsupported)
        : report_(std::move(tool))
    {
        if (argc > 0 && argv[0] && argv[0][0] != '\0')
            argv0_ = argv[0];
        // Surface a bad CCP_LOG now; the lazy init would otherwise
        // only warn the first time something logs.
        logLevel();
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            std::string value;
            if (takesValue(arg, "--report", i, argc, argv, value)) {
                reportPath_ = value;
            } else if (takesValue(arg, "--log", i, argc, argv,
                                  value)) {
                LogLevel level = LogLevel::Info;
                if (!parseLogLevel(value, level))
                    ccp_fatal("bad --log level '", value,
                              "' (want quiet|warn|info|debug)");
                setLogLevel(level);
            } else if (takesValue(arg, "--threads", i, argc, argv,
                                  value)) {
                std::uint64_t n = 0;
                if (!parseU64InRange(value, n, 4096))
                    ccp_fatal("bad --threads value '", value,
                              "' (want 0..4096; 0 = all hardware "
                              "threads)");
                threads_ = static_cast<unsigned>(n);
            } else if (takesValue(arg, "--kernel", i, argc, argv,
                                  value)) {
                if (!sweep::parseSweepKernel(value, kernel_))
                    ccp_fatal("bad --kernel value '", value,
                              "' (want batched|reference)");
            } else if (takesValue(arg, "--checkpoint", i, argc, argv,
                                  value)) {
                if (value.empty())
                    ccp_fatal("--checkpoint needs a non-empty path");
                checkpointPath_ = value;
            } else if (arg == "--resume") {
                resume_ = true;
            } else if (takesValue(arg, "--checkpoint-interval", i,
                                  argc, argv, value)) {
                double sec = 0.0;
                if (!parseDouble(value, sec) || sec < 0)
                    ccp_fatal("bad --checkpoint-interval '", value,
                              "' (want seconds >= 0)");
                checkpointIntervalSec_ = sec;
            } else if (takesValue(arg, "--mem-budget", i, argc, argv,
                                  value)) {
                std::uint64_t bytes = 0;
                if (!parseByteSize(value, bytes) || bytes == 0)
                    ccp_fatal("bad --mem-budget '", value,
                              "' (want bytes, suffixes K/M/G ok)");
                memBudgetBytes_ = bytes;
            } else if (takesValue(arg, "--batch-deadline", i, argc,
                                  argv, value)) {
                double sec = 0.0;
                if (!parseDouble(value, sec) || sec < 0)
                    ccp_fatal("bad --batch-deadline '", value,
                              "' (want seconds >= 0)");
                batchDeadlineSec_ = sec;
            } else if (takesValue(arg, "--shards", i, argc, argv,
                                  value)) {
                std::uint64_t n = 0;
                if (!parseU64InRange(value, n, 4096) || n == 0)
                    ccp_fatal("bad --shards value '", value,
                              "' (want 1..4096)");
                shards_ = static_cast<unsigned>(n);
            } else if (takesValue(arg, "--shard-id", i, argc, argv,
                                  value)) {
                std::uint64_t n = 0;
                if (!parseU64InRange(value, n, 4095))
                    ccp_fatal("bad --shard-id value '", value,
                              "' (want 0..4095)");
                shardId_ = static_cast<unsigned>(n);
                shardWorker_ = true;
            } else if (takesValue(arg, "--orchestrate", i, argc, argv,
                                  value)) {
                std::uint64_t n = 0;
                if (!parseU64InRange(value, n, 4096) || n == 0)
                    ccp_fatal("bad --orchestrate value '", value,
                              "' (want 1..4096 concurrent workers)");
                orchestrateWorkers_ = static_cast<unsigned>(n);
            } else if (takesValue(arg, "--worker-deadline", i, argc,
                                  argv, value)) {
                double sec = 0.0;
                if (!parseDouble(value, sec) || sec < 0)
                    ccp_fatal("bad --worker-deadline '", value,
                              "' (want seconds >= 0)");
                workerDeadlineSec_ = sec;
            } else if (takesValue(arg, "--worker-retries", i, argc,
                                  argv, value)) {
                std::uint64_t n = 0;
                if (!parseU64InRange(value, n, 1000) || n == 0)
                    ccp_fatal("bad --worker-retries '", value,
                              "' (want 1..1000 attempts per shard)");
                workerRetries_ = static_cast<unsigned>(n);
            } else if (takesValue(arg, "--trace-out", i, argc, argv,
                                  value)) {
                if (value.empty())
                    ccp_fatal("--trace-out needs a non-empty path");
                traceOutPath_ = value;
            } else if (arg == "--perf-counters") {
                perfCounters_ = true;
            } else if (arg == "--help" || arg == "-h") {
                std::printf(
                    "usage: %s [--report <out.json>] "
                    "[--log quiet|warn|info|debug] [--threads <n>] "
                    "[--kernel batched|reference] "
                    "[--checkpoint <base>] [--resume] "
                    "[--checkpoint-interval <sec>] "
                    "[--mem-budget <bytes>] "
                    "[--batch-deadline <sec>] "
                    "[--trace-out <trace.json>] [--perf-counters] "
                    "[--shards <K> (--shard-id <i> | "
                    "--orchestrate <W>)] [--worker-deadline <sec>] "
                    "[--worker-retries <n>]\n",
                    report_.tool().c_str());
                std::exit(0);
            } else {
                ccp_fatal("unknown argument '", arg,
                          "' (try --help)");
            }
        }

        if ((shards_ > 0 || shardWorker_ || orchestrateWorkers_ > 0) &&
            sharding == Sharding::Unsupported)
            ccp_fatal("this bench does not support sharded sweeps "
                      "(--shards/--shard-id/--orchestrate are for the "
                      "top-10 tables)");
        if ((shardWorker_ || orchestrateWorkers_ > 0) && shards_ == 0)
            ccp_fatal("--shard-id/--orchestrate need --shards <K>");
        if (shardWorker_ && orchestrateWorkers_ > 0)
            ccp_fatal("--shard-id (worker) and --orchestrate "
                      "(supervisor) are mutually exclusive");
        if (shardWorker_ && shardId_ >= shards_)
            ccp_fatal("--shard-id ", shardId_, " out of range for "
                      "--shards ", shards_);
        if ((shardWorker_ || orchestrateWorkers_ > 0) &&
            checkpointPath_.empty())
            ccp_fatal("sharded sweeps need --checkpoint <base>: shard "
                      "CCPC checkpoints are the merge exchange "
                      "format");
        if (shards_ > 0 && !shardWorker_ && orchestrateWorkers_ == 0)
            ccp_fatal("--shards needs --shard-id <i> (worker) or "
                      "--orchestrate <W> (supervisor)");

        if (resume_ && checkpointPath_.empty())
            ccp_fatal("--resume needs --checkpoint <base> so there is "
                      "a checkpoint to resume from");
        if (perfCounters_ && traceOutPath_.empty())
            ccp_fatal("--perf-counters samples per-span deltas, so it "
                      "needs --trace-out <path>");

        if (!traceOutPath_.empty()) {
            if (perfCounters_ && !obs::PerfCounters::available())
                ccp_warn("hardware perf counters unavailable "
                         "(perf_event_open denied or unsupported); "
                         "spans record timestamps only");
            obs::Tracer::Options topts;
            topts.path = traceOutPath_;
            topts.perfCounters = perfCounters_;
            obs::Tracer::instance().enable(std::move(topts));
        }

        obs::Json &config = report_.section("config");
        config["machine"] = machineConfigJson(mem::MachineConfig{});
        config["seed"] = obs::Json(envSeed());
        config["scale"] = obs::Json(envScale());
        config["trace_dir"] = obs::Json(traceDir());
        config["threads"] = obs::Json(std::uint64_t(
            threads_ > 0 ? threads_ : ThreadPool::defaultThreads()));
        config["kernel"] = obs::Json(sweep::sweepKernelName(kernel_));
        if (!traceOutPath_.empty()) {
            obs::Json &t = config["tracing"];
            t = obs::Json::object();
            t["trace_out"] = obs::Json(traceOutPath_);
            t["perf_counters"] = obs::Json(perfCounters_);
        }
        if (usesResilience()) {
            obs::Json &r = config["resilience"];
            r = obs::Json::object();
            r["checkpoint"] = obs::Json(checkpointPath_);
            r["resume"] = obs::Json(resume_);
            r["checkpoint_interval_sec"] =
                obs::Json(checkpointIntervalSec_);
            r["mem_budget_bytes"] = obs::Json(memBudgetBytes_);
            r["batch_deadline_sec"] = obs::Json(batchDeadlineSec_);
        }
        if (shards_ > 0) {
            obs::Json &s = config["sharding"];
            s = obs::Json::object();
            s["shards"] = obs::Json(std::uint64_t(shards_));
            s["role"] = obs::Json(shardWorker_ ? "worker"
                                               : "supervisor");
            if (shardWorker_)
                s["shard_id"] = obs::Json(std::uint64_t(shardId_));
            else {
                s["workers"] =
                    obs::Json(std::uint64_t(orchestrateWorkers_));
                s["worker_deadline_sec"] =
                    obs::Json(workerDeadlineSec_);
                s["worker_retries"] =
                    obs::Json(std::uint64_t(workerRetries_));
            }
        }
    }

    obs::RunReport &report() { return report_; }

    /** Sweep worker count from --threads (0 = hardware concurrency,
     *  the value the sweep layer resolves itself). */
    unsigned threads() const { return threads_; }

    /** Sweep evaluation kernel from --kernel (default batched). */
    sweep::SweepKernel kernel() const { return kernel_; }

    /**
     * True when any resilience flag was given, i.e. the sweep should
     * run through sweep::ResilientRunner instead of the plain
     * ParallelSweep path.  The plain path stays the default so runs
     * without these flags are byte-identical to earlier releases.
     */
    bool
    usesResilience() const
    {
        return !checkpointPath_.empty() || resume_ ||
               memBudgetBytes_ > 0 || batchDeadlineSec_ > 0;
    }

    /** True when running as a shard worker (--shard-id). */
    bool shardWorker() const { return shardWorker_; }

    /** Worker mode's shard index. */
    unsigned shardId() const { return shardId_; }

    /** Shard count K (0 when sharding is off). */
    unsigned shards() const { return shards_; }

    /** True when running as the shard supervisor (--orchestrate). */
    bool orchestrating() const { return orchestrateWorkers_ > 0; }

    /**
     * The supervisor's options: the worker command re-invokes *this*
     * binary with every shared sweep flag forwarded, so a worker's
     * ResilientRunner sees exactly the configuration the supervisor
     * was given (same kernel, threads, budget — and therefore the
     * same shard checkpoint keys).
     */
    sweep::OrchestratorOptions
    orchestratorOptions() const
    {
        // The liveness deadline watches the shard checkpoint file, so
        // a healthy worker is only as alive as its flush cadence: cap
        // the forwarded interval well under the deadline, or a worker
        // that checkpoints every 30 s would be shot as "hung" by any
        // tighter --worker-deadline while working fine.
        double interval = checkpointIntervalSec_;
        if (workerDeadlineSec_ > 0)
            interval = std::min(interval, workerDeadlineSec_ / 4.0);
        sweep::OrchestratorOptions opts;
        opts.workerArgv = {selfBinary(), "--checkpoint",
                           checkpointPath_, "--kernel",
                           sweep::sweepKernelName(kernel_),
                           "--checkpoint-interval",
                           std::to_string(interval)};
        if (threads_ > 0) {
            opts.workerArgv.push_back("--threads");
            opts.workerArgv.push_back(std::to_string(threads_));
        }
        if (memBudgetBytes_ > 0) {
            opts.workerArgv.push_back("--mem-budget");
            opts.workerArgv.push_back(
                std::to_string(memBudgetBytes_));
        }
        if (batchDeadlineSec_ > 0) {
            opts.workerArgv.push_back("--batch-deadline");
            opts.workerArgv.push_back(
                std::to_string(batchDeadlineSec_));
        }
        opts.checkpointBase = checkpointPath_;
        opts.shards = shards_;
        opts.workers = orchestrateWorkers_;
        opts.maxAttempts = workerRetries_;
        opts.workerDeadlineSec = workerDeadlineSec_;
        return opts;
    }

    /** The resilience flags assembled into RunnerOptions. */
    sweep::RunnerOptions
    runnerOptions() const
    {
        sweep::RunnerOptions opts;
        opts.threads = threads_;
        opts.kernel = kernel_;
        opts.checkpointPath = checkpointPath_;
        opts.resume = resume_;
        opts.checkpointIntervalSec = checkpointIntervalSec_;
        opts.memBudgetBytes = memBudgetBytes_;
        opts.batchDeadlineSec = batchDeadlineSec_;
        // A supervised worker's checkpoint file doubles as its
        // liveness signal; create it before the first batch.
        opts.initialLivenessFlush = shardWorker_;
        return opts;
    }

    /**
     * Record a resilient run's outcome in the report: resumed scheme
     * counts, the checkpoint files used, whether any phase was
     * interrupted, and the structured failure list (empty array when
     * everything completed — its presence marks a resilient run).
     * Multi-phase benches call this once per evaluate(); the section
     * accumulates across calls.
     */
    void
    addOutcome(const sweep::ResilientOutcome &outcome)
    {
        schemesResumed_ += outcome.schemesResumed;
        anyInterrupted_ = anyInterrupted_ || outcome.interrupted;
        anyIncomplete_ = anyIncomplete_ || !outcome.allCompleted();
        failures_.insert(failures_.end(), outcome.failures.begin(),
                         outcome.failures.end());

        obs::Json &r = report_.section("resilience");
        obs::Json &files = r["checkpoint_files"];
        if (outcomes_++ == 0)
            files = obs::Json::array();
        if (!outcome.checkpointFile.empty())
            files.append(obs::Json(outcome.checkpointFile));
        r["schemes_resumed"] =
            obs::Json(std::uint64_t(schemesResumed_));
        r["interrupted"] = obs::Json(anyInterrupted_);
        r["all_completed"] = obs::Json(!anyIncomplete_);
        r["failures"] = sweep::failuresJson(failures_);
    }

    /** Shorthand for report().section("results"). */
    obs::Json &results() { return report_.section("results"); }

    /**
     * Record the benchmark suite: a per-trace "suite" array plus a
     * "protocol" section of suite-wide counter totals (duplicated
     * from the trace metadata so reports carry protocol behaviour
     * even when every trace came from the on-disk cache).
     */
    void
    addSuite(const std::vector<trace::SharingTrace> &suite)
    {
        obs::Json &arr = report_.section("suite");
        arr = obs::Json::array();
        trace::TraceMeta total;
        std::uint64_t store_misses = 0;
        for (const auto &tr : suite) {
            arr.append(traceMetaJson(tr));
            const trace::TraceMeta &m = tr.meta();
            total.reads += m.reads;
            total.writes += m.writes;
            total.readMisses += m.readMisses;
            total.writeMisses += m.writeMisses;
            total.writeFaults += m.writeFaults;
            total.silentUpgrades += m.silentUpgrades;
            total.invalidationsSent += m.invalidationsSent;
            total.downgrades += m.downgrades;
            total.interventions += m.interventions;
            total.blocksTouched += m.blocksTouched;
            total.totalOps += m.totalOps;
            store_misses += tr.storeMisses();
        }
        obs::Json &proto = report_.section("protocol");
        proto["store_misses"] = obs::Json(store_misses);
        proto["reads"] = obs::Json(total.reads);
        proto["writes"] = obs::Json(total.writes);
        proto["read_misses"] = obs::Json(total.readMisses);
        proto["write_misses"] = obs::Json(total.writeMisses);
        proto["write_faults"] = obs::Json(total.writeFaults);
        proto["silent_upgrades"] = obs::Json(total.silentUpgrades);
        proto["invalidations"] = obs::Json(total.invalidationsSent);
        proto["downgrades"] = obs::Json(total.downgrades);
        proto["interventions"] = obs::Json(total.interventions);
        proto["blocks_touched"] = obs::Json(total.blocksTouched);
        proto["total_ops"] = obs::Json(total.totalOps);
    }

    /**
     * Snapshot the root stats registry and the wall clock into the
     * report and write it if --report was given.  @return the
     * process exit code (0; I/O failure is fatal instead, so CI
     * can't silently lose reports).
     */
    int
    finish()
    {
        // Flush the execution trace before snapshotting stats so the
        // flush's drop accounting (trace.events_dropped) makes the
        // report.
        if (!traceOutPath_.empty()) {
            if (!obs::Tracer::instance().flush())
                ccp_fatal("cannot write execution trace to ",
                          traceOutPath_);
            if (logLevel() >= LogLevel::Info)
                std::fprintf(stderr,
                             "[bench] execution trace written to %s "
                             "(open in Perfetto / chrome://tracing)\n",
                             traceOutPath_.c_str());
        }
        report_.setWallSeconds(wall_.elapsedSec());
        report_.addRegistry(obs::StatsRegistry::root());
        if (!reportPath_.empty()) {
            if (!report_.writeFile(reportPath_))
                ccp_fatal("cannot write report to ", reportPath_);
            if (logLevel() >= LogLevel::Info)
                std::fprintf(stderr, "[bench] report written to %s\n",
                             reportPath_.c_str());
        }
        return 0;
    }

    /**
     * finish(), but exit with @p code — for resilient runs that were
     * interrupted (75) or saw scheme failures.  The report is still
     * written first, so a partial run always leaves its evidence.
     */
    int
    finishWith(int code)
    {
        finish();
        return code;
    }

  private:
    /**
     * The path the supervisor re-invokes for workers.  argv[0] is
     * authoritative when it names a path; a bare name (launched via
     * PATH) falls back to /proc/self/exe so re-invocation does not
     * depend on the caller's PATH surviving into the fleet.
     */
    std::string
    selfBinary() const
    {
        if (argv0_.find('/') != std::string::npos)
            return argv0_;
        std::error_code ec;
        auto exe =
            std::filesystem::read_symlink("/proc/self/exe", ec);
        if (!ec)
            return exe.string();
        if (!argv0_.empty())
            return argv0_;
        ccp_fatal("cannot determine own binary path for worker "
                  "re-invocation");
    }

    static bool
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

    obs::Stopwatch wall_;
    obs::RunReport report_;
    std::string reportPath_;
    /** --threads value; 0 = all hardware threads (the default). */
    unsigned threads_ = 0;
    /** --kernel value (sweep inner-loop implementation). */
    sweep::SweepKernel kernel_ = sweep::SweepKernel::Batched;
    /** --checkpoint base path; empty = no checkpointing. */
    std::string checkpointPath_;
    /** --resume: load a matching checkpoint before sweeping. */
    bool resume_ = false;
    /** --checkpoint-interval seconds (0 = after every batch). */
    double checkpointIntervalSec_ = 30.0;
    /** --mem-budget bytes (0 = unlimited). */
    std::uint64_t memBudgetBytes_ = 0;
    /** --batch-deadline seconds (0 = none). */
    double batchDeadlineSec_ = 0.0;
    /** --trace-out path; empty = tracing off. */
    std::string traceOutPath_;
    /** --perf-counters: sample hardware counters per span. */
    bool perfCounters_ = false;
    /** argv[0] as invoked (worker re-invocation). */
    std::string argv0_;
    /** --shards K; 0 = sharding off. */
    unsigned shards_ = 0;
    /** --shard-id (valid when shardWorker_). */
    unsigned shardId_ = 0;
    bool shardWorker_ = false;
    /** --orchestrate W; 0 = not supervising. */
    unsigned orchestrateWorkers_ = 0;
    /** --worker-deadline seconds (0 = none). */
    double workerDeadlineSec_ = 0.0;
    /** --worker-retries attempts per shard. */
    unsigned workerRetries_ = 3;
    /** addOutcome() accumulators (multi-phase benches). */
    std::size_t outcomes_ = 0;
    std::size_t schemesResumed_ = 0;
    bool anyInterrupted_ = false;
    bool anyIncomplete_ = false;
    std::vector<sweep::SchemeFailure> failures_;
};

/**
 * Evaluate @p schemes over @p suite the way the bench's flags ask:
 * the plain ParallelSweep path by default (byte-identical to earlier
 * releases), or sweep::ResilientRunner when any resilience flag was
 * given.  The runner's outcome (resume counts, failures, interrupt
 * state) is recorded in the report; @p outcome_out receives it so the
 * caller can rank around failed schemes and honour exit code 75.
 *
 * Returns the per-scheme SuiteResults in scheme order.  On the plain
 * path @p outcome_out is a fully-completed synthetic outcome, so
 * callers can treat both paths uniformly.
 */
inline std::vector<predict::SuiteResult>
evaluateSchemesResilient(BenchContext &ctx,
                         const std::vector<trace::SharingTrace> &suite,
                         const std::vector<predict::SchemeSpec>
                             &schemes,
                         predict::UpdateMode mode,
                         const obs::ProgressFn &progress,
                         sweep::ResilientOutcome &outcome_out)
{
    if (suite.empty())
        ccp_fatal("cannot sweep an empty trace suite");
    if (schemes.empty())
        ccp_fatal("cannot sweep an empty scheme list");
    if (ctx.usesResilience()) {
        sweep::ResilientRunner runner(ctx.runnerOptions());
        outcome_out = runner.evaluate(suite, schemes, mode, progress);
        ctx.addOutcome(outcome_out);
        return std::move(outcome_out.results);
    }
    sweep::ParallelSweep sweeper(ctx.threads(), ctx.kernel());
    auto results = sweeper.evaluate(suite, schemes, mode, progress);
    outcome_out = sweep::ResilientOutcome{};
    outcome_out.completed.assign(schemes.size(), 1);
    return results;
}

/**
 * Shard-worker mode (--shard-id i --shards K): evaluate only shard
 * i's schemes through the ResilientRunner, leaving the shard CCPC
 * checkpoint as the product.  Prints no table — the checkpoint IS the
 * output; the supervisor (or mergeShardCheckpoints) folds it into the
 * global result.  Exit codes follow the runner convention: 0 when the
 * shard's evaluation finished (even with per-scheme failures — the
 * supervisor verifies coverage from the checkpoint, not the exit
 * code), 75 when drained by a signal.
 *
 * Worker-side fault points (fired when the armed value equals this
 * worker's shard index, so one orchestration kills exactly one
 * worker):
 *   shard.worker_fail=i   exit 1 before evaluating (persistent — the
 *                         supervisor never strips it; quarantine)
 *   shard.worker_kill=i   SIGKILL self after the first fresh scheme
 *                         completes (a partial checkpoint exists)
 *   shard.worker_hang=i   wedge after the first fresh scheme (the
 *                         supervisor's liveness deadline must fire)
 *   shard.torn_checkpoint=i  truncate the final shard checkpoint to
 *                         half its size after a clean run (the
 *                         supervisor must reject and retry it)
 */
inline int
runShardWorker(BenchContext &ctx,
               const std::vector<trace::SharingTrace> &suite,
               const std::vector<predict::SchemeSpec> &schemes,
               predict::UpdateMode mode)
{
    const unsigned shard = ctx.shardId();
    const sweep::ShardPlan plan =
        sweep::planShards(schemes, ctx.shards());
    const auto mine = sweep::shardSchemes(schemes, plan, shard);

    obs::Json &results = ctx.results();
    results["shard"] = obs::Json(std::uint64_t(shard));
    results["shards"] = obs::Json(std::uint64_t(ctx.shards()));
    results["schemes_owned"] = obs::Json(mine.size());
    if (mine.empty())
        return ctx.finish(); // K > N leaves some shards empty

    if (fault::enabled() &&
        fault::fireAt("shard.worker_fail", shard)) {
        std::fprintf(stderr,
                     "[bench] shard %u: injected persistent worker "
                     "failure\n", shard);
        return ctx.finishWith(1);
    }

    if (logLevel() >= LogLevel::Info)
        std::fprintf(stderr,
                     "[bench] shard %u/%u: sweeping %zu of %zu "
                     "schemes...\n", shard, ctx.shards(), mine.size(),
                     schemes.size());
    obs::ProgressReporter reporter("shard " + std::to_string(shard));
    sweep::ResilientRunner runner(ctx.runnerOptions());
    sweep::ResilientOutcome outcome = runner.evaluate(
        suite, mine, mode, [&](const obs::Progress &p) {
            reporter(p);
            // Crash/hang faults fire only after fresh progress, so
            // the checkpoint the supervisor resumes from is never
            // empty (ticks happen after checkpoint writes when
            // --checkpoint-interval is 0).
            if (fault::enabled() && p.done > p.resumed) {
                if (fault::fireAt("shard.worker_kill", shard))
                    ::kill(::getpid(), SIGKILL);
                if (fault::fireAt("shard.worker_hang", shard))
                    for (;;)
                        ::sleep(3600);
            }
        });
    ctx.addOutcome(outcome);

    if (!outcome.interrupted && fault::enabled()) {
        if (fault::fireAt("shard.torn_checkpoint", shard)) {
            std::error_code ec;
            const auto size = std::filesystem::file_size(
                outcome.checkpointFile, ec);
            if (!ec)
                std::filesystem::resize_file(outcome.checkpointFile,
                                             size / 2, ec);
            std::fprintf(stderr,
                         "[bench] shard %u: tore checkpoint %s to "
                         "half size\n", shard,
                         outcome.checkpointFile.c_str());
        }
    }

    if (outcome.interrupted)
        return ctx.finishWith(outcome.exitCode());
    return ctx.finish();
}

/**
 * Supervisor mode (--orchestrate W --shards K): run the sweep as a
 * fleet of shard-worker processes (sweep/orchestrator.hh) and return
 * the merged results in the exact shape evaluateSchemesResilient
 * returns, so the caller's ranking and printing code is shared —
 * and its stdout byte-identical — between the two paths.
 */
inline std::vector<predict::SuiteResult>
orchestrateSchemes(BenchContext &ctx,
                   const std::vector<trace::SharingTrace> &suite,
                   const std::vector<predict::SchemeSpec> &schemes,
                   predict::UpdateMode mode,
                   const obs::ProgressFn &progress,
                   sweep::ResilientOutcome &outcome_out)
{
    sweep::OrchestratorOutcome oo = sweep::orchestrateSweep(
        ctx.orchestratorOptions(), suite, schemes, mode, ctx.kernel(),
        progress);
    ctx.addOutcome(oo.outcome);
    obs::Json &orch = ctx.report().section("orchestrator");
    orch["shards"] = obs::Json(std::uint64_t(ctx.shards()));
    orch["shard_reports"] = sweep::orchestratorJson(oo.shardReports);
    outcome_out = std::move(oo.outcome);
    return std::move(outcome_out.results);
}

/**
 * evaluateSchemesResilient for benches whose tables index results
 * positionally and therefore need every scheme to complete (Table 7,
 * the ablations).  An interrupted sweep exits 75 ("rerun with
 * --resume"); a scheme failure exits 1 — both after writing the
 * report, so the failure evidence is never lost.  Top-N style benches
 * that can rank around holes should use evaluateSchemesResilient and
 * the completed mask instead.
 */
inline std::vector<predict::SuiteResult>
evaluateAllOrExit(BenchContext &ctx,
                  const std::vector<trace::SharingTrace> &suite,
                  const std::vector<predict::SchemeSpec> &schemes,
                  predict::UpdateMode mode)
{
    sweep::ResilientOutcome outcome;
    auto results =
        evaluateSchemesResilient(ctx, suite, schemes, mode, {},
                                 outcome);
    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "[bench] sweep interrupted — rerun with "
                     "--resume to continue from %s\n",
                     outcome.checkpointFile.c_str());
        std::exit(ctx.finishWith(outcome.exitCode()));
    }
    if (!outcome.allCompleted()) {
        std::fprintf(stderr,
                     "[bench] %zu scheme(s) failed and this table "
                     "needs every row (see the report's resilience "
                     "section)\n", outcome.failures.size());
        std::exit(ctx.finishWith(1));
    }
    return results;
}

/** The paper's Table 5 rows (per benchmark). */
struct PaperTable5
{
    const char *name;
    std::uint64_t maxStaticStores;
    std::uint64_t maxPredictedStores;
    std::uint64_t blocksTouched;
    std::uint64_t storeMisses;
};

inline const std::vector<PaperTable5> &
paperTable5()
{
    static const std::vector<PaperTable5> rows = {
        {"barnes", 164, 61, 22241, 161911},
        {"em3d", 35, 23, 51889, 262451},
        {"gauss", 21, 13, 32946, 129528},
        {"mp3d", 160, 71, 30182, 212828},
        {"ocean", 380, 230, 239861, 2871656},
        {"unstruct", 69, 67, 2832, 633607},
        {"water", 69, 27, 2896, 172925},
    };
    return rows;
}

/** The paper's Table 6 rows. */
struct PaperTable6
{
    const char *name;
    std::uint64_t sharingEvents;
    std::uint64_t sharingDecisions;
    double prevalencePct;
};

inline const std::vector<PaperTable6> &
paperTable6()
{
    static const std::vector<PaperTable6> rows = {
        {"barnes", 391085, 2590576, 15.10},
        {"em3d", 133926, 4199216, 3.19},
        {"gauss", 205666, 2072448, 9.92},
        {"mp3d", 306990, 3405248, 9.02},
        {"ocean", 983085, 45946496, 2.14},
        {"unstruct", 1300764, 10137712, 12.83},
        {"water", 335482, 2766800, 12.13},
    };
    return rows;
}

/** The paper's Table 7 rows (prior schemes). */
struct PaperTable7
{
    const char *description;
    const char *scheme;
    const char *update;
    int sizeLog2;
    double sensitivity;
    double pvp;
};

inline const std::vector<PaperTable7> &
paperTable7()
{
    static const std::vector<PaperTable7> rows = {
        {"baseline-last", "last()1", "direct", 0, 0.57, 0.66},
        {"Kaxiras-instr.-last", "last(pid+pc8)1", "direct", 16, 0.57,
         0.66},
        {"Kaxiras-instr.-inter.", "inter(pid+pc8)2", "direct", 17, 0.45,
         0.80},
        {"Lai-address+pid-last", "last(pid+mem8)1", "direct", 16, 0.57,
         0.66},
        {"Kaxiras-instr.-last", "last(pid+pc8)1", "forwarded", 16, 0.51,
         0.61},
        {"Kaxiras-instr.-inter.", "inter(pid+pc8)2", "forwarded", 17,
         0.43, 0.80},
        {"Lai-address+pid-last", "last(pid+mem8)1", "forwarded", 16,
         0.55, 0.66},
    };
    return rows;
}

/** One row of the paper's top-10 Tables 8-11. */
struct PaperTopTen
{
    const char *scheme;
    int sizeLog2;
    double pvp;
    double sens;
};

inline const std::vector<PaperTopTen> &
paperTable8()
{
    static const std::vector<PaperTopTen> rows = {
        {"inter(pid+add6)4", 16, 0.93, 0.32},
        {"inter(pid+pc2+add6)4", 18, 0.92, 0.34},
        {"inter(pid+add8)4", 18, 0.92, 0.32},
        {"inter(pid+pc4+add6)4", 20, 0.91, 0.36},
        {"inter(pid+add10)4", 20, 0.91, 0.33},
        {"inter(pid+pc2+add8)4", 20, 0.91, 0.33},
        {"inter(pid+add4)4", 14, 0.90, 0.32},
        {"inter(pid+pc6+add6)4", 22, 0.90, 0.37},
        {"inter(pid+add8)3", 18, 0.90, 0.36},
        {"inter(pid+pc4+add4)4", 18, 0.90, 0.36},
    };
    return rows;
}

inline const std::vector<PaperTopTen> &
paperTable9()
{
    static const std::vector<PaperTopTen> rows = {
        {"inter(pid+pc8+add6)4", 24, 0.94, 0.36},
        {"inter(pid+pc6+add6)4", 22, 0.94, 0.36},
        {"inter(pid+pc6+dir+add4)4", 24, 0.94, 0.34},
        {"inter(pid+pc10+add4)4", 24, 0.93, 0.37},
        {"inter(pid+pc4+dir+add4)4", 22, 0.93, 0.34},
        {"inter(pid+pc4+add6)4", 20, 0.93, 0.35},
        {"inter(pid+pc6+add8)4", 24, 0.93, 0.35},
        {"inter(pid+pc8+add4)4", 22, 0.93, 0.36},
        {"inter(pid+pc4+dir+add6)4", 24, 0.93, 0.33},
        {"inter(pid+pc6+add4)4", 20, 0.93, 0.36},
    };
    return rows;
}

inline const std::vector<PaperTopTen> &
paperTable10()
{
    static const std::vector<PaperTopTen> rows = {
        {"union(dir+add14)4", 24, 0.47, 0.68},
        {"union(add16)4", 22, 0.45, 0.67},
        {"union(dir+add12)4", 22, 0.45, 0.67},
        {"union(dir+add10)4", 20, 0.42, 0.67},
        {"union(dir+add2)4", 12, 0.39, 0.67},
        {"union(dir+add8)4", 18, 0.41, 0.67},
        {"union(pc2+dir+add6)4", 18, 0.39, 0.67},
        {"union(add14)4", 20, 0.42, 0.67},
        {"union(pc4+dir)4", 14, 0.40, 0.66},
        {"union(pc2+dir+add2)4", 14, 0.40, 0.66},
    };
    return rows;
}

inline const std::vector<PaperTopTen> &
paperTable11()
{
    static const std::vector<PaperTopTen> rows = {
        {"union(dir+add14)4", 24, 0.47, 0.68},
        {"union(pid+dir+add4)4", 18, 0.46, 0.68},
        {"union(pid+dir+add2)4", 16, 0.46, 0.68},
        {"union(add16)4", 22, 0.45, 0.67},
        {"union(dir+add12)4", 22, 0.45, 0.67},
        {"union(dir+add10)4", 20, 0.42, 0.67},
        {"union(dir+add2)4", 12, 0.39, 0.67},
        {"union(pid+dir+add6)4", 20, 0.47, 0.67},
        {"union(dir+add8)4", 18, 0.41, 0.67},
        {"union(pid+add6)4", 16, 0.43, 0.67},
    };
    return rows;
}

} // namespace ccp::benchutil

#endif // CCP_BENCH_BENCH_UTIL_HH
