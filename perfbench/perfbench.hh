/**
 * @file
 * Shared pieces of the perfbench workloads: run options, the result
 * every workload fills (metrics, attempted/failed counts, failed
 * checks), the pinned suite cache, and small timing helpers.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "layers.hh"
#include "predict/metrics.hh"
#include "trace/trace.hh"

namespace perfbench {

/** The workload seed a run uses unless --seed says otherwise. */
inline constexpr std::uint64_t defaultSeed = 0x5eed;
/** Iteration scale of the generated suite (pinned: every metric and
 *  digest is defined at this scale). */
inline constexpr double suiteScale = 0.1;
/** Setups per run; setup_s is their median. */
inline constexpr unsigned setupReps = 15;


struct Options
{
    /** Only generate the seed's suite into suiteDir. */
    bool prepare = false;
    std::string workload;
    std::uint64_t seed = defaultSeed;
    /** Measuring budget of the run's timed repetitions. */
    double seconds = 10.0;
    /** Traced run: report per-layer instead of end-to-end metrics. */
    bool trace = false;
    /** This run's suite, written by --prepare and read by the run. */
    std::string suiteDir = ".bench_build/perfbench/suite";
    /** Scratch space for cold generation (emptied per repetition). */
    std::string scratchDir = ".bench_build/perfbench/scratch";
    /** Committed output digests of the default seed. */
    std::string digestFile = "perfbench/digests.txt";
    /** Per-session response ring capacity of serve_stream (0 = the
     *  ingest ring's); tests shrink it to force dropped responses. */
    std::size_t responseCapacity = 0;
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports all of them. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics: every traced run reports all of them, 0 where
 *  the workload does not run that layer. */
const std::vector<MetricDef> &perLayerMetrics();

class Result
{
  public:
    /** Set a metric of either list (fatal on an unknown name). */
    void set(const std::string &name, double value);
    /** A stdout-only line under a workload's own metric names. */
    void note(const std::string &name, double value, const char *unit);
    /** Record a failed output check (the run then exits non-zero). */
    void check(bool ok, const std::string &what);

    bool correct() const { return errors_.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Print notes, metrics, and the final JSON line; @return the
     *  process exit code. */
    int finish(const Options &opts) const;

  private:
    struct Value
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Value> metrics_;
    std::vector<Value> notes_;
    std::vector<std::string> errors_;
};

/** Report every layer's self time and call count from @p clock. */
void reportLayers(const LayerClock &clock, Result &res);

/** Report trace.load_s and trace.load_mb_per_s from the seconds each
 *  load of the @p bytes of a suite took. */
void reportLoads(const std::vector<double> &seconds, std::uint64_t bytes,
                 Result &res);

/** Sweep worker threads: the host's cores, at most 4. */
unsigned workerThreads();

// ---- the suite ----

/** Path of one trace inside @p dir. */
std::string tracePath(const std::string &dir, const std::string &name);

/** Generate and save the seed's seven traces into opts.suiteDir: the
 *  --prepare step, run in its own process so that cold generation
 *  never shows in a measured run.
 *  @return false when a trace cannot be saved. */
bool prepareSuite(const Options &opts);

/** Load the seven traces from @p dir, one trace-layer span each.
 *  @return false when any trace fails to load. */
bool loadSuite(const std::string &dir,
               std::vector<ccp::trace::SharingTrace> &suite,
               LayerClock &clock);

/** Total bytes of the seven trace files in @p dir. */
std::uint64_t suiteBytes(const std::string &dir);

/** Event-for-event (and metadata) equality of two traces. */
bool sameTrace(const ccp::trace::SharingTrace &a,
               const ccp::trace::SharingTrace &b);

/** Exact equality of two confusion counts. */
inline bool
sameConfusion(const ccp::predict::Confusion &a,
              const ccp::predict::Confusion &b)
{
    return a.tp == b.tp && a.fp == b.fp && a.tn == b.tn && a.fn == b.fn;
}

/** Coherence events across the suite. */
std::uint64_t suiteEvents(const std::vector<ccp::trace::SharingTrace> &s);

// ---- output digests ----

/** FNV-1a 64, the hash of every committed output digest. */
class Fnv
{
  public:
    void mix(const void *p, std::size_t n);
    void mix(std::uint64_t v) { mix(&v, sizeof(v)); }
    void mix(const std::string &s) { mix(s.c_str(), s.size() + 1); }
    /** The hash as 16 hex digits. */
    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/** The committed digest of @p workload at the default seed and the
 *  pinned scale in @p file; empty when the file has no such line. */
std::string committedDigest(const std::string &file,
                            const std::string &workload);

/** At the default seed, check @p got against the committed digest of
 *  @p workload (other seeds have none). */
void checkDigest(const Options &opts, const std::string &workload,
                 const std::string &what, const std::string &got,
                 Result &res);

// ---- timing helpers ----

double median(std::vector<double> v);
/** Quantile by linear interpolation between order statistics. */
double quantile(std::vector<double> v, double q);
/** Peak resident set of this process (VmHWM), in MB. */
double peakRssMb();
/** CPU seconds the calling thread has run (user + system). */
double threadCpuSeconds();

/** Time @p setupReps setups (each returns its own seconds); record
 *  the median as setup_s. */
template <class F>
double
medianSetup(F &&setup)
{
    std::vector<double> times;
    for (unsigned i = 0; i < setupReps; ++i)
        times.push_back(setup());
    return median(times);
}

/**
 * The reported job_s of a run's repetition times: their lower decile
 * (interpolated; near the fastest when there are few).  The shared
 * 4-core host this benchmark was tuned on changes speed in steps of up
 * to 2x that last seconds; the lower decile is the job's time when the
 * host does not slow it, varies far less between runs than the median,
 * and unlike the fastest pass ignores the rare lucky one.
 */
inline double
jobSeconds(const std::vector<double> &times)
{
    return quantile(times, 0.1);
}

/** Print every repetition's seconds on stderr. */
void logReps(const std::vector<double> &times);

/** Run @p job (returning its timed seconds) until @p budget seconds
 *  of wall time have passed, at least @p min_reps times. */
template <class F>
std::vector<double>
repeatFor(double budget, unsigned min_reps, F &&job)
{
    std::vector<double> times;
    const auto t0 = Clock::now();
    while (times.size() < min_reps || secondsSince(t0) < budget)
        times.push_back(job());
    logReps(times);
    return times;
}

// ---- workloads ----

void runSweepPaperDirect(const Options &opts, Result &res);
void runSweepWindowForwarded(const Options &opts, Result &res);
void runServeStream(const Options &opts, Result &res);
void runSimulateSuite(const Options &opts, Result &res);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
