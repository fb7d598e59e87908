/**
 * @file
 * Reproduces Figure 9: the effect of history depth (2 versus 4) on
 * intersection, union, and PAs predictors under direct update.
 *
 * Expected shape (Section 5.4.3): deeper history raises intersection
 * PVP while lowering its sensitivity; the opposite for union; PAs is
 * essentially flat (not enough events to train deep patterns).
 */

#include "bench_util.hh"
#include "sweep/figures.hh"

namespace {

using namespace ccp;
using namespace ccp::benchutil;

void
runPanel(const std::vector<trace::SharingTrace> &suite,
         obs::Json &results, const char *title,
         predict::FunctionKind kind,
         const std::vector<predict::IndexSpec> &series,
         unsigned threads)
{
    auto d2 = sweep::evaluateFigure(suite, series, kind, 2,
                                    predict::UpdateMode::Direct,
                                    threads);
    auto d4 = sweep::evaluateFigure(suite, series, kind, 4,
                                    predict::UpdateMode::Direct,
                                    threads);

    std::printf("%s:\n", title);
    Table t({"index(addr/dir/pc/pid)", "pvp(2)", "sens(2)", "pvp(4)",
             "sens(4)"});
    double dpvp = 0, dsens = 0;
    for (std::size_t i = 0; i < d2.size(); ++i) {
        t.addRow({d2[i].label, fmt(d2[i].pvp, 3),
                  fmt(d2[i].sensitivity, 3), fmt(d4[i].pvp, 3),
                  fmt(d4[i].sensitivity, 3)});
        dpvp += d4[i].pvp - d2[i].pvp;
        dsens += d4[i].sensitivity - d2[i].sensitivity;
    }
    t.print();
    std::printf("mean depth-4 minus depth-2: pvp %+.3f, sensitivity "
                "%+.3f\n\n",
                dpvp / d2.size(), dsens / d2.size());

    obs::Json &panel = results[predict::functionKindName(kind)];
    panel["mean_pvp_delta"] = obs::Json(dpvp / d2.size());
    panel["mean_sensitivity_delta"] = obs::Json(dsens / d2.size());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx("fig9_depth", argc, argv);
    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);
    std::printf("Figure 9: history depth 2 vs 4, direct update\n\n");

    obs::Json &results = ctx.results();
    runPanel(suite, results, "INTERSECTION (16-bit max index)",
             predict::FunctionKind::Inter, sweep::figureIndexSeries16(),
             ctx.threads());
    runPanel(suite, results, "UNION (16-bit max index)",
             predict::FunctionKind::Union, sweep::figureIndexSeries16(),
             ctx.threads());
    runPanel(suite, results, "PAs (12-bit max index)",
             predict::FunctionKind::PAs, sweep::figureIndexSeries12(),
             ctx.threads());

    std::printf("Expected: intersection pvp up / sens down with depth; "
                "union the reverse; PAs nearly flat.\n");
    return ctx.finish();
}
