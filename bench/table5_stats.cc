/**
 * @file
 * Reproduces Table 5: store instruction and cache block statistics.
 *
 * Expected shape versus the paper: the static-store counts are small
 * (tens to a few hundred per node — the leverage of instruction-based
 * prediction), predicted stores are a subset of static stores, and
 * ocean dominates blocks touched and store misses.  Absolute counts
 * differ because our kernels are sharing-pattern models of the
 * originals at reduced iteration counts (see DESIGN.md).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ccp;
    using namespace ccp::benchutil;

    BenchContext ctx("table5_stats", argc, argv);
    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    std::printf("Table 5: store instruction and cache block statistics\n");
    std::printf("(per benchmark; 'paper' columns are the published "
                "values)\n\n");

    Table t({"benchmark", "static", "paper", "predicted", "paper",
             "blocks", "paper", "misses", "paper"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &tr = suite[i];
        const auto &ref = paperTable5()[i];
        t.addRow({tr.name(), fmtU(tr.meta().maxStaticStoresPerNode),
                  fmtU(ref.maxStaticStores),
                  fmtU(tr.meta().maxPredictedStoresPerNode),
                  fmtU(ref.maxPredictedStores),
                  fmtU(tr.meta().blocksTouched),
                  fmtU(ref.blocksTouched), fmtU(tr.storeMisses()),
                  fmtU(ref.storeMisses)});
    }
    t.print();

    std::printf("\nShape checks:\n");
    bool small_static = true, subset = true;
    std::uint64_t ocean_misses = 0, max_other = 0;
    for (const auto &tr : suite) {
        small_static &= tr.meta().maxStaticStoresPerNode < 512;
        subset &= tr.meta().maxPredictedStoresPerNode <=
                  tr.meta().maxStaticStoresPerNode;
        if (tr.name() == "ocean")
            ocean_misses = tr.storeMisses();
        else
            max_other = std::max(max_other, tr.storeMisses());
    }
    std::printf("  static stores are few (<512/node):        %s\n",
                small_static ? "yes" : "NO");
    std::printf("  predicted stores subset of static stores: %s\n",
                subset ? "yes" : "NO");
    std::printf("  ocean has the most store misses:          %s\n",
                ocean_misses > max_other ? "yes" : "NO");

    obs::Json &results = ctx.results();
    results["static_stores_small"] = obs::Json(small_static);
    results["predicted_subset_of_static"] = obs::Json(subset);
    results["ocean_most_misses"] =
        obs::Json(ocean_misses > max_other);
    return ctx.finish();
}
