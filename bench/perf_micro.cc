/**
 * @file
 * Microbenchmarks (google-benchmark) of the library itself: predictor
 * lookup/update throughput per function family, full-trace evaluation
 * rate, protocol-engine op rate, and torus accounting — the numbers
 * that bound how large a design-space sweep is practical.
 *
 * After the registered benchmarks, main() runs the sweep-kernel perf
 * gate: the event-major batched kernel and the reference per-scheme
 * evaluator over the standard 16-node sweep fixture (48 window
 * schemes x the 200k-event synthetic trace), writing the measured
 * rates to BENCH_sweep.json (override with CCP_BENCH_JSON) and
 * exiting non-zero if the batched kernel is slower than the
 * reference.  Two learned-family legs follow, 12 PAs and 12
 * perceptron schemes on the same trace, each cross-checked against
 * the reference and timed against that family's frozen scalar model
 * (tests/scalar_models.hh) on the same schemes, the denominator of
 * bench_compare's per-family gate.  Pass --benchmark_filter='^$' to
 * run only the gate.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <string>
#include <type_traits>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "mem/protocol.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "predict/evaluator.hh"
#include "sweep/batch.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "scalar_models.hh"
#include "workloads/registry.hh"

namespace {

using namespace ccp;

/** A reusable synthetic trace with realistic low prevalence. */
const trace::SharingTrace &
syntheticTrace()
{
    static const trace::SharingTrace tr = [] {
        trace::SharingTrace t("synthetic", 16);
        Rng rng(1);
        std::vector<trace::CoherenceEvent> last(4096);
        std::vector<bool> seen(4096, false);
        for (int i = 0; i < 200000; ++i) {
            trace::CoherenceEvent ev;
            ev.block = rng.below(4096);
            ev.pid = static_cast<NodeId>(rng.below(16));
            ev.pc = 0x400 + 4 * rng.below(64);
            ev.dir = static_cast<NodeId>(ev.block % 16);
            std::uint64_t readers = 0;
            // ~1.5 readers per event on average.
            while (rng.chance(0.6))
                readers |= 1ull << rng.below(16);
            readers &= ~(1ull << ev.pid);
            ev.readers = SharingBitmap(readers);
            if (seen[ev.block]) {
                ev.invalidated = last[ev.block].readers;
                ev.prevWriterPid = last[ev.block].pid;
                ev.prevWriterPc = last[ev.block].pc;
                ev.hasPrevWriter = true;
            }
            seen[ev.block] = true;
            last[ev.block] = ev;
            t.append(ev);
        }
        return t;
    }();
    return tr;
}

predict::SchemeSpec
schemeOf(const char *text)
{
    auto parsed = sweep::parseScheme(text);
    if (!parsed)
        std::abort();
    return parsed->scheme;
}

void
BM_TablePredictUpdate(benchmark::State &state, const char *text)
{
    auto scheme = schemeOf(text);
    auto table = scheme.makeTable(16);
    Rng rng(2);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        NodeId pid = static_cast<NodeId>(rng.below(16));
        Pc pc = 0x400 + 4 * rng.below(64);
        Addr block = rng.below(4096);
        auto pred = table.predict(pid, pc, block % 16, block);
        benchmark::DoNotOptimize(pred);
        table.update(pid, pc, block % 16, block,
                     SharingBitmap(rng() & 0xffff));
        ++ops;
    }
    state.SetItemsProcessed(ops);
}

BENCHMARK_CAPTURE(BM_TablePredictUpdate, last, "last(pid+add8)1");
BENCHMARK_CAPTURE(BM_TablePredictUpdate, union4, "union(dir+add12)4");
BENCHMARK_CAPTURE(BM_TablePredictUpdate, inter4, "inter(pid+pc4+add6)4");
BENCHMARK_CAPTURE(BM_TablePredictUpdate, pas2, "pas(pid+add4)2");

void
BM_EvaluateTrace(benchmark::State &state, const char *text,
                 int mode_int)
{
    const auto &tr = syntheticTrace();
    auto scheme = schemeOf(text);
    auto table = scheme.makeTable(16);
    auto mode = static_cast<predict::UpdateMode>(mode_int);
    for (auto _ : state) {
        auto conf = predict::evaluateTrace(tr, table, mode);
        benchmark::DoNotOptimize(conf);
    }
    state.SetItemsProcessed(state.iterations() * tr.events().size());
}

BENCHMARK_CAPTURE(BM_EvaluateTrace, union2_direct,
                  "union(pid+dir+add4)2", 0);
BENCHMARK_CAPTURE(BM_EvaluateTrace, inter4_forwarded,
                  "inter(pid+pc4+add6)4", 1);
BENCHMARK_CAPTURE(BM_EvaluateTrace, union1_ordered, "last(pid+add8)1",
                  2);
BENCHMARK_CAPTURE(BM_EvaluateTrace, pas2_direct, "pas(pid+add4)2", 0);

/**
 * The standard 16-node sweep fixture: 48 window schemes (the families
 * that dominate the enumerated design space) over the synthetic
 * trace.  Both kernels are benchmarked — and gated — on exactly this
 * batch.
 */
std::vector<predict::SchemeSpec>
sweepFixture()
{
    const char *shapes[] = {"add8",     "add12",        "dir+add8",
                            "pid+add8", "pc8",          "pid+pc8",
                            "pc4+add6", "pid+pc4+add6"};
    std::vector<predict::SchemeSpec> schemes;
    for (const char *fn : {"union", "inter"}) {
        for (unsigned depth : {1u, 2u, 4u}) {
            for (const char *shape : shapes)
                schemes.push_back(
                    schemeOf((std::string(fn) + "(" + shape + ")" +
                              std::to_string(depth))
                                 .c_str()));
        }
    }
    return schemes;
}

/** The PAs fixture: 12 schemes across the same index shapes at the
 *  paper grid's depths 1, 2 and 4. */
std::vector<predict::SchemeSpec>
pasFixture()
{
    const char *names[] = {
        "pas(pc8)1",       "pas(add8)1",         "pas(pid+add6)1",
        "pas(dir+add8)1",  "pas(pc8)2",          "pas(pid+pc8)2",
        "pas(pc4+add6)2",  "pas(pid+pc4+add6)2", "pas(add8)4",
        "pas(pid+add8)4",  "pas(dir+add6)4",     "pas(pc4+add6)4",
    };
    std::vector<predict::SchemeSpec> schemes;
    for (const char *n : names)
        schemes.push_back(schemeOf(n));
    return schemes;
}

/** The perceptron fixture: 12 schemes across the same index shapes,
 *  hashed and unhashed, with and without the Bloom negative filter. */
std::vector<predict::SchemeSpec>
perceptronFixture()
{
    const char *names[] = {
        "perceptron(hash:pc8)2w5t2",
        "perceptron(hash:add8)2w5t2",
        "perceptron(hash:pc4+add6)2w5t2b16",
        "perceptron(hash:pid+pc8)4w5t2",
        "perceptron(hash:dir+add8)4w5t2b16",
        "perceptron(hash:pid+pc4+add6)4w6t4",
        "perceptron(pc8)2w5t2",
        "perceptron(add8)2w5t2b8",
        "perceptron(pc4+add6)4w4t1",
        "perceptron(pid+add8)4w5t2",
        "perceptron(dir+add8)2w8t6b32",
        "perceptron(pid+pc4+add6)2w5t2b16",
    };
    std::vector<predict::SchemeSpec> schemes;
    for (const char *n : names)
        schemes.push_back(schemeOf(n));
    return schemes;
}

void
BM_BatchedSweepFixture(benchmark::State &state, int mode_int)
{
    const auto &tr = syntheticTrace();
    auto schemes = sweepFixture();
    sweep::BatchEvaluator batch(schemes, tr.nNodes());
    auto mode = static_cast<predict::UpdateMode>(mode_int);
    for (auto _ : state) {
        auto res = batch.evaluateTrace(tr, mode);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(state.iterations() * tr.events().size() *
                            schemes.size());
}

BENCHMARK_CAPTURE(BM_BatchedSweepFixture, direct, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchedSweepFixture, ordered, 2)
    ->Unit(benchmark::kMillisecond);

void
BM_ReferenceSweepFixture(benchmark::State &state, int mode_int)
{
    const auto &tr = syntheticTrace();
    auto schemes = sweepFixture();
    auto mode = static_cast<predict::UpdateMode>(mode_int);
    for (auto _ : state) {
        for (const auto &scheme : schemes) {
            auto conf = predict::evaluateTrace(tr, scheme, mode);
            benchmark::DoNotOptimize(conf);
        }
    }
    state.SetItemsProcessed(state.iterations() * tr.events().size() *
                            schemes.size());
}

BENCHMARK_CAPTURE(BM_ReferenceSweepFixture, direct, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReferenceSweepFixture, ordered, 2)
    ->Unit(benchmark::kMillisecond);

void
BM_ProtocolOps(benchmark::State &state)
{
    mem::MachineConfig cfg;
    trace::SharingTrace tr("bm", 16);
    mem::CoherenceController ctl(cfg, &tr);
    Rng rng(3);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        NodeId node = static_cast<NodeId>(rng.below(16));
        Addr addr = blockBase(rng.below(1 << 14));
        if (rng.chance(0.3))
            ctl.write(node, addr, 0x400 + 4 * rng.below(32));
        else
            ctl.read(node, addr);
        ++ops;
    }
    state.SetItemsProcessed(ops);
}

BENCHMARK(BM_ProtocolOps);

void
BM_TraceSaveFile(benchmark::State &state)
{
    const auto &tr = syntheticTrace();
    const std::string path = "/tmp/ccp_perf_micro.trace";
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        tr.saveFile(path);
        bytes += 64 + 104 + tr.events().size() * 64;
    }
    state.SetBytesProcessed(bytes);
    std::remove(path.c_str());
}

BENCHMARK(BM_TraceSaveFile)->Unit(benchmark::kMillisecond);

void
BM_TraceLoadFile(benchmark::State &state, bool mapped)
{
    const std::string path = "/tmp/ccp_perf_micro_load.trace";
    syntheticTrace().saveFile(path);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        trace::SharingTrace tr;
        bool ok = mapped ? tr.loadFileMapped(path)
                         : tr.loadFileStream(path);
        benchmark::DoNotOptimize(ok);
        bytes += 64 + 104 + tr.events().size() * 64;
    }
    state.SetBytesProcessed(bytes);
    std::remove(path.c_str());
}

BENCHMARK_CAPTURE(BM_TraceLoadFile, stream, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TraceLoadFile, mmap, true)
    ->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    workloads::WorkloadParams params;
    params.scale = 0.05;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        auto tr = workloads::generateTrace("mp3d", params);
        ops += tr.meta().totalOps;
        benchmark::DoNotOptimize(tr);
    }
    state.SetItemsProcessed(ops);
}

BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

void
BM_TorusMessage(benchmark::State &state)
{
    net::Torus2D torus(4, 4);
    Rng rng(4);
    for (auto _ : state) {
        auto hops = torus.sendMessage(
            static_cast<NodeId>(rng.below(16)),
            static_cast<NodeId>(rng.below(16)), 72);
        benchmark::DoNotOptimize(hops);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_TorusMessage);

// ---------------------------------------------------------------------
// Sweep-kernel perf gate

/** Trim trailing whitespace/newlines in place. */
std::string
rstrip(std::string s)
{
    while (!s.empty() &&
           (s.back() == '\n' || s.back() == '\r' || s.back() == ' '))
        s.pop_back();
    return s;
}

/** The commit this binary measures: CCP_GIT_SHA (CI sets it from the
 *  checkout) or `git rev-parse HEAD`, else "unknown". */
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

/** ISO-8601 UTC timestamp of this run, e.g. "2026-08-08T12:34:56Z". */
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

/** Host CPU model from /proc/cpuinfo (Linux), else "unknown". */
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

/**
 * A learned family's frozen scalar model swept over @p fam on @p tr
 * under direct update, one scheme at a time: each scheme's table is
 * a lazily built model per entry (@p make(scheme, nodes)), indexed by
 * IndexSpec::index.  @return each scheme's confusion counts (the
 * kernels' own).
 */
template <class Make>
std::vector<predict::Confusion>
scalarSweep(const trace::SharingTrace &tr,
            const std::vector<predict::SchemeSpec> &fam, Make &&make)
{
    using Model = std::invoke_result_t<Make, const predict::SchemeSpec &,
                                       unsigned>;
    const auto mode = predict::UpdateMode::Direct;
    const unsigned n_nodes = tr.nNodes();
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    const std::uint64_t mask = SharingBitmap::all(n_nodes).raw();
    std::vector<predict::Confusion> confs;
    for (const predict::SchemeSpec &s : fam) {
        std::vector<std::optional<Model>> table(
            std::size_t(1) << s.index.indexBits(node_bits));
        const auto at = [&](NodeId pid, Pc pc, NodeId dir,
                            Addr block) -> Model & {
            std::optional<Model> &slot =
                table[s.index.index(pid, pc, dir, block, node_bits)];
            if (!slot)
                slot.emplace(make(s, n_nodes));
            return *slot;
        };
        std::uint64_t tp = 0, fp = 0, fn = 0;
        for (const trace::CoherenceEvent &ev : tr.events()) {
            const predict::Learner who = predict::learner(ev, mode);
            const std::uint64_t pred =
                predict::stepWith(
                    ev, mode, SharingBitmap(),
                    [&] {
                        return at(ev.pid, ev.pc, ev.dir, ev.block)
                            .predict();
                    },
                    [&](SharingBitmap fb) {
                        at(who.pid, who.pc, ev.dir, ev.block)
                            .update(fb.raw());
                    }) &
                mask;
            const std::uint64_t actual = ev.readers.raw() & mask;
            tp += std::popcount(pred & actual);
            fp += std::popcount(pred & ~actual);
            fn += std::popcount(actual & ~pred);
        }
        confs.push_back(predict::Confusion::fromPositives(
            tp, fp, fn, tr.events().size() * n_nodes));
    }
    return confs;
}

/** Wall-clock seconds of one call of @p fn. */
template <typename Fn>
double
secondsOf(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
}

/** Wall-clock best-of-@p reps for one sweep over the fixture. */
template <typename Fn>
double
bestOf(unsigned reps, Fn &&fn)
{
    double best = 0;
    for (unsigned r = 0; r < reps; ++r) {
        const double s = secondsOf(fn);
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

/**
 * Best-of-@p reps seconds of two legs whose ratio the gate reads, run
 * alternately: a slow spell on a shared host (a busy sibling
 * hyperthread, say) then hits both legs instead of every rep of one.
 * @p toggle(true) runs untimed before each b leg, and
 * @p toggle(false) after it.
 */
template <typename A, typename B, typename Toggle>
std::pair<double, double>
bestOfAlternating(unsigned reps, A &&a, B &&b, Toggle &&toggle)
{
    double best_a = 0, best_b = 0;
    for (unsigned r = 0; r < reps; ++r) {
        const double ta = secondsOf(a);
        toggle(true);
        const double tb = secondsOf(b);
        toggle(false);
        best_a = r == 0 ? ta : std::min(best_a, ta);
        best_b = r == 0 ? tb : std::min(best_b, tb);
    }
    return {best_a, best_b};
}

template <typename A, typename B>
std::pair<double, double>
bestOfAlternating(unsigned reps, A &&a, B &&b)
{
    return bestOfAlternating(reps, a, b, [](bool) {});
}

/**
 * Run both kernels over the standard sweep fixture, write the perf
 * record, and gate: the batched kernel must not be slower than the
 * reference.  @return the process exit code.
 */
int
runSweepGate()
{
    // Keep freed heap pages mapped: every rep after the first then
    // times the sweep, not the kernel refaulting the pages its tables
    // and the scalar models' many small vectors take (a cost that
    // swings with host load).
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    const auto &tr = syntheticTrace();
    auto schemes = sweepFixture();
    std::vector<trace::SharingTrace> suite;
    suite.push_back(tr);
    const auto mode = predict::UpdateMode::Direct;
    const double scheme_events =
        double(tr.events().size()) * double(schemes.size());
    const unsigned reps = 7;
    const unsigned tracing_reps = 7;
    const unsigned mt_threads = ThreadPool::defaultThreads();

    std::fprintf(stderr,
                 "[gate] sweep fixture: %zu schemes x %zu events, "
                 "%u nodes, direct update\n",
                 schemes.size(), tr.events().size(), tr.nNodes());

    std::vector<predict::SuiteResult> ref_results, batched_results;
    const auto [ref_sec, batched_sec] = bestOfAlternating(
        reps,
        [&] {
            ref_results =
                sweep::ParallelSweep(1, sweep::SweepKernel::Reference)
                    .evaluate(suite, schemes, mode);
        },
        [&] {
            batched_results =
                sweep::ParallelSweep(1, sweep::SweepKernel::Batched)
                    .evaluate(suite, schemes, mode);
        });
    double mt_sec = bestOf(reps, [&] {
        auto res =
            sweep::ParallelSweep(mt_threads,
                                 sweep::SweepKernel::Batched)
                .evaluate(suite, schemes, mode);
        benchmark::DoNotOptimize(res);
    });

    // Tracing overhead: the same single-thread batched sweep with span
    // recording off (instrumentation compiled in) and live, so the
    // pair bounds both costs — and bench_compare gates their ratio
    // against the committed baseline.
    const auto batched_once = [&] {
        auto res = sweep::ParallelSweep(1, sweep::SweepKernel::Batched)
                       .evaluate(suite, schemes, mode);
        benchmark::DoNotOptimize(res);
    };
    const auto [plain_sec, traced_sec] = bestOfAlternating(
        tracing_reps, batched_once, batched_once, [](bool on) {
            if (!on) {
                obs::Tracer::instance().disable();
                return;
            }
            obs::Tracer::Options topts;
            topts.bufferRecords = std::size_t(1) << 20;
            obs::Tracer::instance().enable(std::move(topts));
        });
    const double trace_overhead_pct =
        (traced_sec / plain_sec - 1.0) * 100.0;

    // The gate also cross-checks the kernels on the fixture: a fast
    // wrong kernel must not pass.
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        if (!(ref_results[i].pooled == batched_results[i].pooled)) {
            std::fprintf(stderr,
                         "[gate] FAIL: kernels disagree on %s\n",
                         sweep::formatScheme(schemes[i]).c_str());
            return 1;
        }
    }

    const double speedup = ref_sec / batched_sec;
    obs::Json doc = obs::Json::object();
    // Provenance stamp: which commit, when, and on what hardware —
    // so archived records and regression diffs are comparable.
    obs::Json meta = obs::Json::object();
    meta["git_sha"] = obs::Json(gitSha());
    meta["date_utc"] = obs::Json(isoUtcNow());
    meta["cpu_model"] = obs::Json(cpuModel());
    meta["threads"] = obs::Json(mt_threads);
    doc["meta"] = std::move(meta);
    obs::Json fixture = obs::Json::object();
    fixture["trace"] = obs::Json(tr.name());
    fixture["events"] = obs::Json(std::uint64_t(tr.events().size()));
    fixture["n_nodes"] = obs::Json(tr.nNodes());
    fixture["schemes"] = obs::Json(std::uint64_t(schemes.size()));
    fixture["mode"] = obs::Json(predict::updateModeName(mode));
    fixture["reps"] = obs::Json(reps);
    doc["fixture"] = std::move(fixture);
    auto record = [&](const char *key, unsigned threads,
                      double seconds) {
        obs::Json j = obs::Json::object();
        j["threads"] = obs::Json(threads);
        j["seconds"] = obs::Json(seconds);
        j["scheme_events_per_sec"] =
            obs::Json(scheme_events / seconds);
        doc[key] = std::move(j);
    };
    record("reference", 1, ref_sec);
    record("batched", 1, batched_sec);
    record("batched_parallel", mt_threads, mt_sec);

    // Learned-family sweep throughput through the batched kernel,
    // cross-checked against the reference, and the family's frozen
    // scalar model on the same schemes, cross-checked against the
    // kernel.  bench_compare gates each family's rate over its
    // model's, a ratio that holds across hosts and that no kernel or
    // function change can move by speeding up the denominator.
    auto learned = [&](const char *key,
                       const std::vector<predict::SchemeSpec> &fam,
                       auto &&make_model) {
        std::vector<predict::SuiteResult> ref, batched;
        const double ref_sec = bestOf(reps, [&] {
            ref = sweep::ParallelSweep(1, sweep::SweepKernel::Reference)
                      .evaluate(suite, fam, mode);
        });
        std::vector<predict::Confusion> scalar;
        const auto [sec, oracle_sec] = bestOfAlternating(
            reps,
            [&] {
                batched =
                    sweep::ParallelSweep(1, sweep::SweepKernel::Batched)
                        .evaluate(suite, fam, mode);
            },
            [&] { scalar = scalarSweep(tr, fam, make_model); });
        for (std::size_t i = 0; i < fam.size(); ++i) {
            if (!(ref[i].pooled == batched[i].pooled) ||
                !(scalar[i] == batched[i].pooled)) {
                std::fprintf(stderr,
                             "[gate] FAIL: %s disagree on %s\n",
                             ref[i].pooled == batched[i].pooled
                                 ? "kernel and scalar model"
                                 : "kernels",
                             sweep::formatScheme(fam[i]).c_str());
                return false;
            }
        }
        const double events =
            double(tr.events().size()) * double(fam.size());
        obs::Json j = obs::Json::object();
        j["threads"] = obs::Json(1u);
        j["schemes"] = obs::Json(std::uint64_t(fam.size()));
        j["seconds"] = obs::Json(sec);
        j["scheme_events_per_sec"] = obs::Json(events / sec);
        j["reference_seconds"] = obs::Json(ref_sec);
        doc[key] = std::move(j);
        obs::Json o = obs::Json::object();
        o["threads"] = obs::Json(1u);
        o["schemes"] = obs::Json(std::uint64_t(fam.size()));
        o["seconds"] = obs::Json(oracle_sec);
        o["scheme_events_per_sec"] = obs::Json(events / oracle_sec);
        doc[std::string(key) + "_oracle"] = std::move(o);
        std::fprintf(stderr,
                     "[gate] %s fixture: %zu schemes, batched %.3fs "
                     "(%.1fM scheme-events/s), scalar model %.3fs: "
                     "%.2fx the model\n",
                     key, fam.size(), sec, events / sec / 1e6,
                     oracle_sec, oracle_sec / sec);
        return true;
    };
    if (!learned("pas", pasFixture(),
                 [](const predict::SchemeSpec &s, unsigned n) {
                     return scalar::ScalarPAs(s.depth, n);
                 }) ||
        !learned("perceptron", perceptronFixture(),
                 [](const predict::SchemeSpec &s, unsigned n) {
                     return scalar::ScalarPerceptron(s.depth, n, s.perc);
                 }))
        return 1;
    doc["speedup"] = obs::Json(speedup);
    obs::Json tracing = obs::Json::object();
    tracing["disabled_seconds"] = obs::Json(plain_sec);
    tracing["enabled_seconds"] = obs::Json(traced_sec);
    tracing["enabled_overhead_pct"] = obs::Json(trace_overhead_pct);
    doc["tracing"] = std::move(tracing);

    const char *env_path = std::getenv("CCP_BENCH_JSON");
    const std::string path = env_path ? env_path : "BENCH_sweep.json";
    std::ofstream os(path, std::ios::binary);
    os << doc.dump(2) << "\n";
    if (!os.good()) {
        std::fprintf(stderr, "[gate] FAIL: cannot write %s\n",
                     path.c_str());
        return 1;
    }

    std::fprintf(stderr,
                 "[gate] reference %.3fs (%.1fM scheme-events/s), "
                 "batched %.3fs (%.1fM), x%u threads %.3fs (%.1fM): "
                 "speedup %.2fx -> %s\n",
                 ref_sec, scheme_events / ref_sec / 1e6, batched_sec,
                 scheme_events / batched_sec / 1e6, mt_threads, mt_sec,
                 scheme_events / mt_sec / 1e6, speedup,
                 speedup >= 1.0 ? "ok" : "FAIL (batched slower than "
                                         "reference)");
    std::fprintf(stderr,
                 "[gate] tracing enabled %.3fs vs disabled %.3fs "
                 "(%+.2f%% overhead)\n",
                 traced_sec, plain_sec, trace_overhead_pct);
    return speedup >= 1.0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return runSweepGate();
}
