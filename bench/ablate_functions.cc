/**
 * @file
 * Ablation A4: the prediction functions beyond the paper's simulated
 * set — overlap-last (named in section 3.5 but unsimulated) and
 * sticky-spatial (footnote 2) — against the classic last / union /
 * inter points, suite-wide.
 *
 * Expected: overlap-last sits between last and inter (its overlap
 * check is a one-bit confidence filter); sticky-spatial beats plain
 * last sensitivity on region-structured benchmarks (gauss, ocean) by
 * borrowing neighbours' history, at a PVP cost.
 */

#include <cmath>

#include "bench_util.hh"
#include "predict/evaluator.hh"
#include "predict/spatial.hh"
#include "sweep/name.hh"
#include "sweep/search.hh"

int
main(int argc, char **argv)
{
    using namespace ccp;
    using namespace ccp::benchutil;

    BenchContext ctx("ablate_functions", argc, argv);

    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    std::printf("Ablation: extension prediction functions "
                "(direct update, suite averages)\n\n");
    Table t({"scheme", "size", "sens", "pvp"});

    const char *schemes[] = {
        "last(dir+add14)1",
        "overlap-last(dir+add14)1",
        "inter(dir+add14)2",
        "union(dir+add14)4",
        "overlap-last(pid+pc8)1",
        "inter(pid+pc8)2",
    };
    std::vector<predict::SchemeSpec> specs;
    for (const char *text : schemes) {
        auto parsed = sweep::parseScheme(text);
        if (!parsed)
            return 1;
        specs.push_back(parsed->scheme);
    }
    auto results = evaluateAllOrExit(ctx, suite, specs,
                                     predict::UpdateMode::Direct);
    for (std::size_t s = 0; s < specs.size(); ++s) {
        t.addRow({schemes[s],
                  fmt(std::log2(double(specs[s].sizeBits(16))), 0),
                  fmt(results[s].avgSensitivity(), 3),
                  fmt(results[s].avgPvp(), 3)});
    }

    // Sticky-spatial variants (separate machinery: multi-entry reads).
    struct SpatialCase
    {
        const char *label;
        predict::StickySpatialParams params;
    };
    SpatialCase cases[] = {
        {"sticky-spatial(add14,reach1)", {14, 1, true}},
        {"sticky-spatial(add14,reach2)", {14, 2, true}},
        {"spatial(add14,reach1,nonsticky)", {14, 1, false}},
        {"sticky(add14,reach0)", {14, 0, true}},
    };
    for (const auto &c : cases) {
        double sens = 0, pvp = 0;
        for (const auto &tr : suite) {
            predict::StickySpatialPredictor pred(c.params,
                                                 tr.nNodes());
            auto conf = predict::evaluateStickySpatial(tr, pred);
            sens += conf.sensitivity();
            pvp += conf.pvp();
        }
        predict::StickySpatialPredictor sizer(c.params, 16);
        t.addRow({c.label,
                  fmt(std::log2(double(sizer.sizeBits())), 0),
                  fmt(sens / suite.size(), 3),
                  fmt(pvp / suite.size(), 3)});
    }
    t.print();

    std::printf("\nExpected: overlap-last between last and inter; "
                "spatial reach trades PVP for sensitivity.\n");
    return ctx.finish();
}
