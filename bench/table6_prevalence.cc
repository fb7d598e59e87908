/**
 * @file
 * Reproduces Table 6: prevalence of sharing.
 *
 * Expected shape versus the paper: prevalence is low everywhere (a
 * few percent — far below the ~65% taken-bias of branches), barnes
 * and unstruct are the most-shared traces, ocean and em3d the least,
 * and the suite average sits near the paper's 9.19%.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ccp;
    using namespace ccp::benchutil;

    BenchContext ctx("table6_prevalence", argc, argv);
    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    std::printf("Table 6: prevalence of sharing\n");
    std::printf("(decisions = nodes x store misses; prevalence = "
                "events/decisions)\n\n");

    Table t({"benchmark", "events", "decisions", "prevalence%",
             "paper%"});
    double avg = 0.0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &tr = suite[i];
        const auto &ref = paperTable6()[i];
        t.addRow({tr.name(), fmtU(tr.sharingEvents()),
                  fmtU(tr.decisions()), fmt(100.0 * tr.prevalence()),
                  fmt(ref.prevalencePct)});
        avg += tr.prevalence();
    }
    avg /= static_cast<double>(suite.size());
    t.print();

    std::printf("\naverage prevalence: %.2f%% (paper: 9.19%%)\n",
                100.0 * avg);
    std::printf("equivalent degree of sharing: %.2f readers/write "
                "(paper: 1.5)\n",
                16.0 * avg);

    auto prev = [&](const char *name) {
        for (const auto &tr : suite)
            if (tr.name() == name)
                return tr.prevalence();
        return 0.0;
    };
    std::printf("\nShape checks:\n");
    std::printf("  ocean and em3d least shared:   %s\n",
                (prev("ocean") < prev("gauss") &&
                 prev("ocean") < prev("mp3d") &&
                 prev("em3d") < prev("gauss") &&
                 prev("em3d") < prev("mp3d"))
                    ? "yes"
                    : "NO");
    std::printf("  barnes/unstruct most shared:   %s\n",
                (prev("barnes") > prev("mp3d") &&
                 prev("unstruct") > prev("mp3d"))
                    ? "yes"
                    : "NO");

    obs::Json &results = ctx.results();
    results["avg_prevalence"] = obs::Json(avg);
    results["equivalent_readers_per_write"] = obs::Json(16.0 * avg);
    return ctx.finish();
}
