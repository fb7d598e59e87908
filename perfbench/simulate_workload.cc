/**
 * @file
 * simulate_suite: single-threaded cold generation of the seven traces
 * into an empty directory, each saved as it is made — the only
 * workload where workloads/sim/mem/net and trace writes run.
 *
 * The job is timed in the thread's CPU seconds: it runs on one thread,
 * and CPU time leaves out the time other processes of a shared host
 * hold its core.
 *
 * Checked outside the timed region: every saved trace reloads (mmap)
 * event for event equal to the generated one, which in turn equals the
 * copy --prepare generated in its own process; at the default seed the
 * suite's digest must equal the committed one.
 */

#include <filesystem>

#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using ccp::trace::SharingTrace;

struct Generated
{
    double sec = 0.0;
    double saveSec = 0.0;
    std::vector<double> simSec;
    std::vector<SharingTrace> traces;
};

/** FNV-1a over every trace's name, shape, metadata and events. */
std::string
suiteDigest(const std::vector<SharingTrace> &suite)
{
    Fnv h;
    for (const auto &tr : suite) {
        const auto &m = tr.meta();
        h.mix(tr.name());
        for (std::uint64_t v :
             {std::uint64_t{tr.nNodes()}, std::uint64_t{tr.events().size()},
              m.totalOps, m.blocksTouched, m.invalidationsSent,
              m.maxStaticStoresPerNode, m.maxPredictedStoresPerNode})
            h.mix(v);
        for (const auto &e : tr.events())
            for (std::uint64_t v :
                 {std::uint64_t{e.pid}, std::uint64_t{e.dir}, e.pc, e.block,
                  e.invalidated.raw(), e.readers.raw(), e.prevWriterPc,
                  std::uint64_t{e.prevWriterPid},
                  std::uint64_t{e.hasPrevWriter}, e.prevEvent})
                h.mix(v);
    }
    return h.hex();
}

} // namespace

void
runSimulateSuite(const Options &opts, Result &res)
{
    LayerClock clock(opts.trace);
    const std::string &dir = opts.suiteDir;
    std::vector<SharingTrace> prepared;
    bool loaded = true;
    const double setup = medianSetup([&] {
        const auto t0 = Clock::now();
        loaded = loadSuite(dir, prepared, clock) && loaded;
        return secondsSince(t0);
    });
    res.check(loaded, "the seed's suite is not in " + dir +
                          " (run --prepare first)");
    if (!loaded)
        return;

    const auto &names = ccp::workloads::workloadNames();
    ccp::workloads::WorkloadParams params;
    params.seed = opts.seed;
    params.scale = suiteScale;

    auto generate = [&](LayerClock &c) {
        std::filesystem::remove_all(opts.scratchDir);
        std::filesystem::create_directories(opts.scratchDir);
        Generated g;
        LayerClock::Span job(c, Layer::Bench);
        const double cpu0 = threadCpuSeconds();
        for (const auto &name : names) {
            auto t1 = Clock::now();
            SharingTrace tr;
            {
                LayerClock::Span span(c, Layer::Sim);
                tr = ccp::workloads::generateTrace(name, params);
            }
            g.simSec.push_back(secondsSince(t1));
            t1 = Clock::now();
            bool saved = false;
            {
                LayerClock::Span span(c, Layer::Trace);
                saved = tr.saveFile(tracePath(opts.scratchDir, name));
            }
            g.saveSec += secondsSince(t1);
            res.check(saved, "cannot save " + name);
            g.traces.push_back(std::move(tr));
        }
        g.sec = threadCpuSeconds() - cpu0;
        return g;
    };
    // @return the reload's seconds.
    auto verify = [&](const Generated &g, LayerClock &c) {
        double sec = 0.0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            SharingTrace back;
            const auto t0 = Clock::now();
            bool ok = false;
            {
                LayerClock::Span span(c, Layer::Trace);
                ok = back.loadFile(tracePath(opts.scratchDir, names[i]));
            }
            sec += secondsSince(t0);
            ok = ok && sameTrace(back, g.traces[i]);
            ++res.attempted;
            res.failed += !ok;
            res.check(ok, names[i] + " does not reload equal to the "
                                     "generated trace");
            res.check(sameTrace(g.traces[i], prepared[i]),
                      names[i] + " differs from the --prepare copy");
        }
        return sec;
    };

    LayerClock off(false);
    checkDigest(opts, "simulate_suite", "suite", suiteDigest(prepared), res);
    if (!opts.trace) {
        const auto times = repeatFor(opts.seconds, 3, [&] {
            const Generated g = generate(off);
            verify(g, off);
            return g.sec;
        });
        res.set("setup_s", setup);
        res.set("job_s", jobSeconds(times));
        res.note("simulate_s", jobSeconds(times), "s");
        res.note("suites_timed", static_cast<double>(times.size()),
                 "count");
    } else {
        std::vector<double> plain, traced, save_s, load_s, sim_total;
        std::vector<std::vector<double>> per_trace(names.size());
        Generated g;
        const auto t0 = Clock::now();
        while (plain.size() < 3 || secondsSince(t0) < opts.seconds / 2) {
            g = generate(off);
            verify(g, off);
            plain.push_back(g.sec);
            g = generate(clock);
            load_s.push_back(verify(g, clock));
            traced.push_back(g.sec);
            save_s.push_back(g.saveSec);
            double total = 0.0;
            for (std::size_t i = 0; i < names.size(); ++i) {
                per_trace[i].push_back(g.simSec[i]);
                total += g.simSec[i];
            }
            sim_total.push_back(total);
        }
        double ops = 0, misses = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            ops += static_cast<double>(g.traces[i].meta().totalOps);
            misses += static_cast<double>(g.traces[i].storeMisses());
            res.set("sim." + names[i] + ".s", median(per_trace[i]));
        }
        res.set("sim.ops", ops);
        res.set("sim.store_misses", misses);
        res.set("sim.ops_per_s", ops / median(sim_total));
        res.set("trace.save_s", median(save_s));
        reportLoads(load_s, suiteBytes(opts.scratchDir), res);
        res.set("obs.trace_overhead_frac",
                median(traced) / median(plain) - 1.0);
        res.note("simulate_s", jobSeconds(plain), "s");
        reportLayers(clock, res);
    }
    res.set("peak_rss_mb", peakRssMb());
}

} // namespace perfbench
