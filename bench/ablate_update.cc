/**
 * @file
 * Ablation A1 (DESIGN.md): how much does the update mechanism matter,
 * per scheme family?  The paper's figures show direct/forwarded/
 * ordered side by side per indexing; this bench condenses the deltas
 * for representative schemes, quantifying two of the paper's claims:
 * update mechanism has little effect on address-based schemes (they
 * are provably identical) and matters most for instruction-indexed
 * schemes whose writers alternate.
 */

#include "bench_util.hh"
#include "predict/evaluator.hh"
#include "sweep/name.hh"
#include "sweep/search.hh"

int
main(int argc, char **argv)
{
    using namespace ccp;
    using namespace ccp::benchutil;

    BenchContext ctx("ablate_update", argc, argv);

    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    const char *schemes[] = {
        "union(dir+add16)1",     // pure address: provably identical
        "last(pid+add8)1",       // Lai & Falsafi style
        "inter(pid+pc8)2",       // instruction-based
        "union(pc8)2",           // pc without pid (bad performer)
        "inter(pid+pc4+add6)4",  // hybrid deep intersection
        "union(pid+dir+add4)4",  // hybrid deep union
    };

    std::vector<predict::SchemeSpec> specs;
    for (const char *text : schemes) {
        auto parsed = sweep::parseScheme(text);
        if (!parsed)
            return 1;
        specs.push_back(parsed->scheme);
    }

    // One sharded batch per update mechanism instead of a scheme-by-
    // scheme loop: the three mode sweeps dominate the runtime.
    std::vector<predict::SuiteResult> by_mode[3];
    int m = 0;
    for (auto mode : {predict::UpdateMode::Direct,
                      predict::UpdateMode::Forwarded,
                      predict::UpdateMode::Ordered})
        by_mode[m++] = evaluateAllOrExit(ctx, suite, specs, mode);

    std::printf("Ablation: update mechanism per scheme family\n\n");
    Table t({"scheme", "metric", "direct", "forwarded", "ordered",
             "ordered-direct"});
    for (std::size_t s = 0; s < specs.size(); ++s) {
        double sens[3], pvp[3];
        for (int i = 0; i < 3; ++i) {
            sens[i] = by_mode[i][s].avgSensitivity();
            pvp[i] = by_mode[i][s].avgPvp();
        }
        t.addRow({schemes[s], "sens", fmt(sens[0], 3), fmt(sens[1], 3),
                  fmt(sens[2], 3), fmt(sens[2] - sens[0], 3)});
        t.addRow({"", "pvp", fmt(pvp[0], 3), fmt(pvp[1], 3),
                  fmt(pvp[2], 3), fmt(pvp[2] - pvp[0], 3)});
    }
    t.print();

    std::printf("\nExpected: zero deltas for the pure address scheme; "
                "the largest gains from ordered update appear on\n"
                "writer-identified (pid/pc) schemes.\n");
    return ctx.finish();
}
