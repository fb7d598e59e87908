/**
 * @file
 * Ablation A6: machine-size scaling.  The paper evaluates a 16-node
 * machine only; here the suite runs at 8, 16 and 32 nodes and we
 * track how prevalence and the baseline/intersection predictors
 * respond.
 *
 * Expected: prevalence (reader bits over N x events) falls as N grows
 * — the absolute reader count per version is roughly fixed by the
 * algorithmic sharing structure while the decision denominator grows —
 * and the wide-sharing components (barnes' tree top, water's position
 * window) partially track N, so the decline is less than 1/N.
 * Predictor quality degrades gracefully: more potential readers, same
 * stable cores.
 */

#include "bench_util.hh"
#include "predict/evaluator.hh"
#include "sweep/name.hh"

int
main(int argc, char **argv)
{
    using namespace ccp;
    using namespace ccp::benchutil;

    BenchContext ctx("ablate_scaling", argc, argv);

    auto baseline = sweep::parseScheme("last()1")->scheme;
    auto inter = sweep::parseScheme("inter(pid+pc8)2")->scheme;

    std::printf("Ablation: machine-size scaling (suite averages)\n\n");
    Table t({"nodes", "events", "prevalence%", "last:sens", "last:pvp",
             "inter2:sens", "inter2:pvp"});

    for (unsigned n : {8u, 16u, 32u}) {
        workloads::WorkloadParams params;
        params.seed = envSeed();
        params.scale = envScale() * 0.5;
        params.nNodes = n;
        mem::MachineConfig cfg;
        cfg.nNodes = n;
        cfg.torusWidth = 4;

        // The readers-per-kill histogram is as wide as the machine, so
        // each size's simulator counters go to a shard of their own;
        // the run report keeps those of the paper's 16-node machine.
        obs::StatsRegistry machine_stats;
        std::vector<trace::SharingTrace> suite;
        {
            obs::ScopedRegistry route(machine_stats);
            suite = workloads::generateSuite(params, cfg, ctx.threads());
        }
        if (n == 16)
            obs::StatsRegistry::root().merge(machine_stats);

        std::uint64_t events = 0;
        double prev = 0, lsens = 0, lpvp = 0, isens = 0, ipvp = 0;
        for (const auto &tr : suite) {
            events += tr.storeMisses();
            prev += tr.prevalence();
            auto lc = predict::evaluateTrace(
                tr, baseline, predict::UpdateMode::Direct);
            auto ic = predict::evaluateTrace(
                tr, inter, predict::UpdateMode::Direct);
            lsens += lc.sensitivity();
            lpvp += lc.pvp();
            isens += ic.sensitivity();
            ipvp += ic.pvp();
        }
        double k = 1.0 / workloads::workloadNames().size();
        t.addRow({std::to_string(n), fmtU(events),
                  fmt(100.0 * prev * k), fmt(lsens * k, 3),
                  fmt(lpvp * k, 3), fmt(isens * k, 3),
                  fmt(ipvp * k, 3)});
    }
    t.print();

    std::printf("\nExpected: prevalence falls with machine size "
                "(slower than 1/N); predictor quality degrades "
                "gracefully.\n");
    return ctx.finish();
}
