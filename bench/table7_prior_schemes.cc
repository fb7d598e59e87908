/**
 * @file
 * Reproduces Table 7: schemes reported by earlier work (the zero-cost
 * baseline last-bitmap predictor, Kaxiras & Goodman's instruction
 * last/intersection predictors, and Lai & Falsafi's address+pid last
 * predictor) under direct and forwarded update.
 *
 * Expected shape: baseline sensitivity ~= PVP ~= 0.6; the
 * intersection scheme trades sensitivity for distinctly higher PVP;
 * forwarded update changes little for these shallow schemes.
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

    BenchContext ctx("table7_prior_schemes", argc, argv);
    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    std::printf("Table 7: schemes reported by earlier work\n\n");
    Table t({"update", "description", "scheme", "size", "sens",
             "paper", "pvp", "paper"});

    // Parse every row up front and evaluate each update mode as one
    // sharded batch.
    std::vector<predict::SchemeSpec> direct_specs, forwarded_specs;
    for (const auto &row : paperTable7()) {
        auto parsed = sweep::parseScheme(row.scheme);
        if (!parsed) {
            std::fprintf(stderr, "bad scheme %s\n", row.scheme);
            return 1;
        }
        (std::string(row.update) == "direct" ? direct_specs
                                             : forwarded_specs)
            .push_back(parsed->scheme);
    }
    auto direct_res = evaluateAllOrExit(
        ctx, suite, direct_specs, predict::UpdateMode::Direct);
    auto forwarded_res = evaluateAllOrExit(
        ctx, suite, forwarded_specs, predict::UpdateMode::Forwarded);

    obs::Json &rows = ctx.results()["schemes"];
    rows = obs::Json::array();
    std::size_t di = 0, fi = 0;
    for (const auto &row : paperTable7()) {
        bool direct = std::string(row.update) == "direct";
        const auto &res =
            direct ? direct_res[di++] : forwarded_res[fi++];
        t.addRow({row.update, row.description, row.scheme,
                  std::to_string(row.sizeLog2),
                  fmt(res.avgSensitivity()), fmt(row.sensitivity),
                  fmt(res.avgPvp()), fmt(row.pvp)});
        obs::Json entry = suiteResultJson(res);
        entry["description"] = obs::Json(row.description);
        entry["paper_sensitivity"] = obs::Json(row.sensitivity);
        entry["paper_pvp"] = obs::Json(row.pvp);
        rows.append(std::move(entry));
    }
    t.print();

    // Shape check: inter trades sensitivity for PVP vs the lasts.
    auto last = sweep::parseScheme("last(pid+pc8)1")->scheme;
    auto inter = sweep::parseScheme("inter(pid+pc8)2")->scheme;
    auto rl = predict::evaluateSuite(suite, last,
                                     predict::UpdateMode::Direct);
    auto ri = predict::evaluateSuite(suite, inter,
                                     predict::UpdateMode::Direct);
    std::printf("\nShape checks:\n");
    std::printf("  inter PVP > last PVP:                 %s "
                "(%.2f vs %.2f)\n",
                ri.avgPvp() > rl.avgPvp() ? "yes" : "NO", ri.avgPvp(),
                rl.avgPvp());
    std::printf("  inter sensitivity < last sensitivity: %s "
                "(%.2f vs %.2f)\n",
                ri.avgSensitivity() < rl.avgSensitivity() ? "yes" : "NO",
                ri.avgSensitivity(), rl.avgSensitivity());
    return ctx.finish();
}
