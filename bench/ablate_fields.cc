/**
 * @file
 * Ablation A2 (DESIGN.md): index-field knockout.  Starting from a
 * hybrid scheme that uses all four fields, drop one field at a time
 * and measure the damage — quantifying the paper's summary that "pid
 * and history depth are paramount, addr has some value, and dir and
 * pc have the least value".
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

    BenchContext ctx("ablate_fields", argc, argv);

    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    for (auto kind : {predict::FunctionKind::Inter,
                      predict::FunctionKind::Union}) {
        predict::SchemeSpec full;
        full.kind = kind;
        full.depth = 4;
        full.index = {true, 4, true, 4}; // pid+pc4+dir+add4

        struct Variant
        {
            const char *label;
            predict::IndexSpec index;
        };
        std::vector<Variant> variants = {
            {"-pid", {false, 4, true, 4}},
            {"-pc", {true, 0, true, 4}},
            {"-dir", {true, 4, false, 4}},
            {"-addr", {true, 4, true, 0}},
        };

        // One sharded batch per kind: full, the four field knockouts,
        // and the depth knockout ("depth is paramount") together.
        std::vector<predict::SchemeSpec> specs = {full};
        for (const auto &v : variants) {
            predict::SchemeSpec s = full;
            s.index = v.index;
            specs.push_back(s);
        }
        predict::SchemeSpec shallow = full;
        shallow.depth = 1;
        specs.push_back(shallow);

        auto results = evaluateAllOrExit(
            ctx, suite, specs, predict::UpdateMode::Forwarded);
        const auto &base = results.front();

        std::printf("Knockout from %s [forwarded]:\n",
                    sweep::formatScheme(full).c_str());
        Table t({"variant", "sens", "d_sens", "pvp", "d_pvp"});
        t.addRow({"(full)", fmt(base.avgSensitivity(), 3), "-",
                  fmt(base.avgPvp(), 3), "-"});
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const auto &res = results[1 + v];
            t.addRow({variants[v].label, fmt(res.avgSensitivity(), 3),
                      fmt(res.avgSensitivity() - base.avgSensitivity(),
                          3),
                      fmt(res.avgPvp(), 3),
                      fmt(res.avgPvp() - base.avgPvp(), 3)});
        }
        const auto &res = results.back();
        t.addRow({"depth4->1", fmt(res.avgSensitivity(), 3),
                  fmt(res.avgSensitivity() - base.avgSensitivity(), 3),
                  fmt(res.avgPvp(), 3),
                  fmt(res.avgPvp() - base.avgPvp(), 3)});
        t.print();
        std::printf("\n");
    }

    std::printf("Expected: dropping pid (or collapsing depth) hurts "
                "most; dropping dir or pc barely matters.\n");
    return ctx.finish();
}
