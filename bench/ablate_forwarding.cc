/**
 * @file
 * Ablation A3 (DESIGN.md): the data-forwarding overlay across the
 * sensitivity/PVP frontier.  Turns the paper's concluding bandwidth-
 * latency discussion into numbers: cycles saved versus torus traffic
 * injected, per scheme, pooled over the whole suite.
 */

#include "bench_util.hh"
#include "forward/forwarding.hh"
#include "sweep/name.hh"

int
main(int argc, char **argv)
{
    using namespace ccp;
    using namespace ccp::benchutil;

    BenchContext ctx("ablate_forwarding", argc, argv);

    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    const char *schemes[] = {
        "inter(pid+add6)4",    // sure bets
        "inter(pid+pc8)2",
        "last()1",             // zero-cost baseline
        "last(pid+add8)1",
        "union(pid+dir+add4)2",
        "union(dir+add14)4",   // aggressive
    };

    std::printf("Ablation: forwarding cost/benefit across the "
                "sens/PVP frontier\n"
                "(pooled over the seven-benchmark suite, direct "
                "update, 85%% timely forwards)\n\n");

    Table t({"scheme", "sens", "pvp", "Mcycles-saved", "fwd-MB",
             "MBhops", "MBh/Mcyc"});
    for (const char *text : schemes) {
        auto parsed = sweep::parseScheme(text);
        if (!parsed)
            return 1;
        forward::ForwardingResult pooled;
        for (const auto &tr : suite) {
            auto res = forward::simulateForwarding(
                tr, parsed->scheme, predict::UpdateMode::Direct);
            pooled.events += res.events;
            pooled.forwardsSent += res.forwardsSent;
            pooled.usefulForwards += res.usefulForwards;
            pooled.wastedForwards += res.wastedForwards;
            pooled.missedReaders += res.missedReaders;
            pooled.missesAvoided += res.missesAvoided;
            pooled.cyclesSaved += res.cyclesSaved;
            pooled.forwardBytes += res.forwardBytes;
            pooled.forwardByteHops += res.forwardByteHops;
            pooled.bytesSaved += res.bytesSaved;
        }
        t.addRow({text, fmt(pooled.sensitivity(), 3),
                  fmt(pooled.pvp(), 3), fmt(pooled.cyclesSaved / 1e6),
                  fmt(pooled.forwardBytes / 1e6),
                  fmt(pooled.forwardByteHops / 1e6),
                  fmt(pooled.byteHopsPerCycleSaved(), 3)});
    }
    t.print();

    std::printf(
        "\nExpected: moving from intersection to deep union increases "
        "both cycles saved (sensitivity) and traffic\n"
        "(lower PVP); the MBh/Mcyc column prices each scheme's "
        "bandwidth per unit of latency hidden.\n");
    return ctx.finish();
}
