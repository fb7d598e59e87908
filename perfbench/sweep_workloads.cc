/**
 * @file
 * The two sweep workloads: the paper's ranked design-space sweep
 * (Table 8: the 1346-scheme paper space, direct update, top-10 by PVP)
 * and its window-family half under forwarded update (top-10 by
 * sensitivity).
 *
 * Untraced runs time whole sweeps, suite in memory to ranked top-10,
 * for the run's budget.  Traced runs alternate untraced and traced
 * sweeps (the tracing overhead), then time each prediction family's
 * sub-list alone under the batched and the simd kernels.  Both check
 * their output outside the timed region: a stratified sample
 * re-evaluated by the reference kernel, and for the default seed the
 * committed digest of every scheme's confusion counts.
 */

#include <cstdio>

#include "obs/registry.hh"
#include "perfbench.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/search.hh"
#include "sweep/space.hh"

namespace perfbench {

namespace {

using ccp::predict::SchemeSpec;
using ccp::predict::SuiteResult;
using ccp::predict::UpdateMode;
using ccp::trace::SharingTrace;

enum class Family : unsigned
{
    Last,
    Union,
    Inter,
    PAs,
    Perceptron,
};

constexpr unsigned nFamilies = 5;

const char *
familyName(Family f)
{
    static const char *const names[nFamilies] = {"last", "union", "inter",
                                                 "pas", "perceptron"};
    return names[static_cast<unsigned>(f)];
}

Family
familyOf(const SchemeSpec &s)
{
    using ccp::predict::FunctionKind;
    switch (s.kind) {
    case FunctionKind::Inter: return Family::Inter;
    case FunctionKind::PAs: return Family::PAs;
    case FunctionKind::Perceptron: return Family::Perceptron;
    default: return s.depth == 1 ? Family::Last : Family::Union;
    }
}

bool
isWindow(Family f)
{
    return f == Family::Last || f == Family::Union || f == Family::Inter;
}

struct SweepSpec
{
    const char *workload;
    UpdateMode mode;
    ccp::sweep::RankBy by;
    /** Keep only the last/union/inter schemes. */
    bool windowOnly;
    /** Schemes per family the enumerated space must hold. */
    std::size_t expect[nFamilies];
};

/** The paper space of the top-10 benches (bench/topten_common.hh)
 *  at its default grid: PAs and perceptron on one coarse point each. */
ccp::sweep::SpaceSpec
paperSpace()
{
    ccp::sweep::SpaceSpec space;
    space.pasDepths = {2};
    space.percDepths = {2};
    space.percWeightBits = {5};
    space.percThetas = {2};
    space.percBloomBits = {0, 16};
    return space;
}

std::vector<SchemeSpec>
enumerate(const SweepSpec &spec)
{
    std::vector<SchemeSpec> out;
    for (auto &s : ccp::sweep::enumerateSchemes(paperSpace()))
        if (!spec.windowOnly || isWindow(familyOf(s)))
            out.push_back(s);
    return out;
}

/** Indices of @p schemes in family @p f, in sweep order. */
std::vector<std::size_t>
familyIndices(const std::vector<SchemeSpec> &schemes, Family f)
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < schemes.size(); ++i)
        if (familyOf(schemes[i]) == f)
            idx.push_back(i);
    return idx;
}

std::vector<SchemeSpec>
pick(const std::vector<SchemeSpec> &schemes,
     const std::vector<std::size_t> &idx)
{
    std::vector<SchemeSpec> out;
    for (std::size_t i : idx)
        out.push_back(schemes[i]);
    return out;
}

/** Exact per-trace equality of @p got against @p want[idx[i]]. */
bool
sameResults(const std::vector<SuiteResult> &got,
            const std::vector<SuiteResult> &want,
            const std::vector<std::size_t> &idx)
{
    if (got.size() != idx.size())
        return false;
    for (std::size_t i = 0; i < idx.size(); ++i) {
        const SuiteResult &a = got[i];
        const SuiteResult &b = want[idx[i]];
        if (!(a.scheme == b.scheme) ||
            a.perTrace.size() != b.perTrace.size() ||
            !sameConfusion(a.pooled, b.pooled))
            return false;
        for (std::size_t t = 0; t < a.perTrace.size(); ++t)
            if (a.perTrace[t].traceName != b.perTrace[t].traceName ||
                !sameConfusion(a.perTrace[t].confusion,
                               b.perTrace[t].confusion))
                return false;
    }
    return true;
}

/** FNV-1a over every scheme's name and per-trace + pooled counts. */
std::string
confusionDigest(const std::vector<SuiteResult> &results)
{
    Fnv h;
    auto counts = [&h](const ccp::predict::Confusion &c) {
        for (std::uint64_t v : {c.tp, c.fp, c.tn, c.fn})
            h.mix(v);
    };
    for (const auto &r : results) {
        h.mix(ccp::sweep::formatScheme(r.scheme));
        for (const auto &t : r.perTrace)
            counts(t.confusion);
        counts(r.pooled);
    }
    return h.hex();
}

/** The reference kernel's check sample: two schemes of every family
 *  present, from the middles of the halves of its sweep-order list. */
std::vector<std::size_t>
stratifiedSample(const std::vector<SchemeSpec> &schemes)
{
    std::vector<std::size_t> out;
    for (unsigned f = 0; f < nFamilies; ++f) {
        auto idx = familyIndices(schemes, static_cast<Family>(f));
        if (!idx.empty()) {
            out.push_back(idx[idx.size() / 4]);
            out.push_back(idx[3 * idx.size() / 4]);
        }
    }
    return out;
}

std::string
topSignature(const std::vector<ccp::sweep::RankedScheme> &top)
{
    std::string sig;
    char buf[32];
    for (const auto &r : top) {
        std::snprintf(buf, sizeof(buf), " %.17g;", r.score);
        sig += ccp::sweep::formatScheme(r.result.scheme) + buf;
    }
    return sig;
}

/** One sweep: evaluate, then rank (the copy ranking consumes is made
 *  outside both timed regions). */
struct SweepRun
{
    double evalSec = 0.0;
    double rankSec = 0.0;
    std::vector<SuiteResult> results;
    std::string top;

    double seconds() const { return evalSec + rankSec; }
};

SweepRun
sweepOnce(ccp::sweep::ParallelSweep &engine,
          const std::vector<SharingTrace> &suite,
          const std::vector<SchemeSpec> &schemes, const SweepSpec &spec,
          LayerClock &clock)
{
    SweepRun run;
    LayerClock::Span job(clock, Layer::Bench);
    auto t0 = Clock::now();
    {
        LayerClock::Span span(clock, Layer::Sweep);
        run.results = engine.evaluate(suite, schemes, spec.mode);
    }
    run.evalSec = secondsSince(t0);
    std::vector<SuiteResult> ranked = run.results;
    t0 = Clock::now();
    std::vector<ccp::sweep::RankedScheme> top;
    {
        LayerClock::Span span(clock, Layer::Rank);
        top = ccp::sweep::rankResults(ranked, spec.by, 10,
                                      suite.front().nNodes());
    }
    run.rankSec = secondsSince(t0);
    run.top = topSignature(top);
    return run;
}

/** Time each family's sub-list alone (batched, and simd where the
 *  build still has it), checking both against the full sweep. */
void
familyProbes(const std::vector<SharingTrace> &suite,
             const std::vector<SchemeSpec> &schemes, const SweepSpec &spec,
             const std::vector<SuiteResult> &full,
             ccp::sweep::ParallelSweep &engine, LayerClock &clock,
             Result &res)
{
    ccp::sweep::SweepKernel simd_kernel{};
    const bool have_simd =
        ccp::sweep::parseSweepKernel("simd", simd_kernel);
    ccp::sweep::ParallelSweep simd(workerThreads(), simd_kernel);
    const double events = static_cast<double>(suiteEvents(suite));

    for (unsigned f = 0; f < nFamilies; ++f) {
        const auto fam = static_cast<Family>(f);
        const auto idx = familyIndices(schemes, fam);
        if (idx.empty())
            continue;
        const auto sub = pick(schemes, idx);
        const std::string name = familyName(fam);

        auto timed = [&](ccp::sweep::ParallelSweep &e) {
            auto t0 = Clock::now();
            std::vector<SuiteResult> got;
            {
                LayerClock::Span span(clock, Layer::Sweep);
                got = e.evaluate(suite, sub, spec.mode);
            }
            const double sec = secondsSince(t0);
            res.check(sameResults(got, full, idx),
                      name + " sub-sweep differs from the full sweep");
            return sec;
        };
        const double sec = timed(engine);
        res.set("sweep." + name + ".s", sec);
        res.set("sweep." + name + ".scheme_events_per_s",
                static_cast<double>(sub.size()) * events / sec);
        res.note("sweep." + name + ".s", sec, "s");
        if (have_simd && isWindow(fam))
            res.set("sweep." + name + ".simd_over_batched",
                    sec / timed(simd));
    }
}

void
runSweep(const SweepSpec &spec, const Options &opts, Result &res)
{
    LayerClock clock(opts.trace);
    const std::string &dir = opts.suiteDir;
    std::vector<SharingTrace> suite;
    std::vector<SchemeSpec> schemes;
    bool loaded = true;
    std::vector<double> load_times;
    const double setup = medianSetup([&] {
        const auto t0 = Clock::now();
        loaded = loadSuite(dir, suite, clock) && loaded;
        load_times.push_back(secondsSince(t0));
        LayerClock::Span span(clock, Layer::Sweep);
        schemes = enumerate(spec);
        return secondsSince(t0);
    });
    res.check(loaded, "the seed's suite is not in " + dir +
                          " (run --prepare first)");
    if (!loaded)
        return;
    for (unsigned f = 0; f < nFamilies; ++f) {
        const auto fam = static_cast<Family>(f);
        const std::size_t n = familyIndices(schemes, fam).size();
        res.check(n == spec.expect[f],
                  std::to_string(n) + " " + familyName(fam) +
                      " schemes in the space, want " +
                      std::to_string(spec.expect[f]));
    }

    ccp::sweep::ParallelSweep engine(workerThreads());
    SweepRun first;
    std::size_t sweeps = 0;
    // Every sweep must rank identically and leave no scheme failed.
    auto account = [&](SweepRun run) {
        const double sec = run.seconds();
        ++sweeps;
        res.attempted += schemes.size();
        for (const auto &r : run.results)
            res.failed += r.perTrace.size() != suite.size();
        if (sweeps == 1)
            first = std::move(run);
        else
            res.check(run.top == first.top,
                      "the ranked top-10 changed between sweeps");
        return sec;
    };

    if (!opts.trace) {
        LayerClock off(false);
        const auto times = repeatFor(opts.seconds, 1, [&] {
            return account(sweepOnce(engine, suite, schemes, spec, off));
        });
        res.set("setup_s", setup);
        res.set("job_s", jobSeconds(times));
        res.note("sweep_s", jobSeconds(times), "s");
        res.note("sweeps_timed", static_cast<double>(times.size()),
                 "count");
    } else {
        // Alternate untraced and traced sweeps; the library's own
        // counters of the traced ones land in a private registry.
        ccp::obs::StatsRegistry reg;
        LayerClock off(false);
        std::vector<double> plain, traced, rank_s, eval_s;
        const auto t0 = Clock::now();
        while (plain.empty() || secondsSince(t0) < opts.seconds / 2) {
            plain.push_back(
                account(sweepOnce(engine, suite, schemes, spec, off)));
            ccp::obs::ScopedRegistry route(reg);
            SweepRun run = sweepOnce(engine, suite, schemes, spec, clock);
            eval_s.push_back(run.evalSec);
            rank_s.push_back(run.rankSec);
            traced.push_back(account(std::move(run)));
        }
        const double reps = static_cast<double>(traced.size());
        res.set("obs.trace_overhead_frac",
                median(traced) / median(plain) - 1.0);
        res.set("rank.s", median(rank_s));
        if (const auto *lat = reg.findLatency("sweep.batch_latency_ns")) {
            res.set("sweep.batch_s.p50", lat->p50() * 1e-9);
            res.set("sweep.batch_s.p90", lat->p90() * 1e-9);
            res.set("sweep.batch_s.max",
                    static_cast<double>(lat->max()) * 1e-9);
        }
        if (const auto *c = reg.findCounter("sweep.batches_evaluated"))
            res.set("sweep.batches", static_cast<double>(c->value) / reps);
        if (const auto *c = reg.findCounter("batch.scheme_events"))
            res.set("sweep.scheme_events",
                    static_cast<double>(c->value) / reps);
        double eval_total = 0.0;
        for (double s : eval_s)
            eval_total += s;
        if (const auto *s = reg.findSummary("sweep.batch_eval_seconds"))
            res.set("sweep.worker_busy_frac",
                    s->sum() / (eval_total * engine.threads()));
        reportLoads(load_times, suiteBytes(dir), res);
        res.note("sweep_s", jobSeconds(plain), "s");
        res.note("rank.s", median(rank_s), "s");
        familyProbes(suite, schemes, spec, first.results, engine,
                     clock, res);
    }

    // Output checks, outside every timed region.
    const auto sample = stratifiedSample(schemes);
    ccp::sweep::ParallelSweep reference(workerThreads(),
                                        ccp::sweep::SweepKernel::Reference);
    const auto t0 = Clock::now();
    std::vector<SuiteResult> ref;
    {
        LayerClock::Span span(clock, Layer::Predict);
        ref = reference.evaluate(suite, pick(schemes, sample), spec.mode);
    }
    const double ref_sec = secondsSince(t0);
    res.set("predict.reference.scheme_events_per_s",
            static_cast<double>(sample.size()) *
                static_cast<double>(suiteEvents(suite)) / ref_sec);
    res.check(sameResults(ref, first.results, sample),
              "the reference kernel disagrees with the batched sweep on "
              "the stratified sample");
    checkDigest(opts, spec.workload, "confusion",
                confusionDigest(first.results), res);
    if (opts.trace)
        reportLayers(clock, res);
    res.set("peak_rss_mb", peakRssMb());
}

} // namespace

void
runSweepPaperDirect(const Options &opts, Result &res)
{
    const SweepSpec spec = {"sweep_paper_direct",
                            UpdateMode::Direct,
                            ccp::sweep::RankBy::Pvp,
                            false,
                            {178, 438, 438, 116, 176}};
    runSweep(spec, opts, res);
}

void
runSweepWindowForwarded(const Options &opts, Result &res)
{
    const SweepSpec spec = {"sweep_window_forwarded",
                            UpdateMode::Forwarded,
                            ccp::sweep::RankBy::Sensitivity,
                            true,
                            {178, 438, 438, 0, 0}};
    runSweep(spec, opts, res);
}

} // namespace perfbench
