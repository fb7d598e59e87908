/**
 * @file
 * Shared driver for the top-10 benches (Tables 8-11): enumerate the
 * affordable design space, rank by the requested metric under the
 * requested update mode, and print our top-10 next to the paper's.
 */

#ifndef CCP_BENCH_TOPTEN_COMMON_HH
#define CCP_BENCH_TOPTEN_COMMON_HH

#include <cmath>

#include "bench_util.hh"
#include "sweep/name.hh"
#include "sweep/search.hh"
#include "sweep/space.hh"

namespace ccp::benchutil {

inline sweep::SpaceSpec
paperSpace()
{
    sweep::SpaceSpec space;
    // The paper explores implementations up to 2^24 bits.  PAs
    // schemes are swept on a coarser grid (they are uniformly
    // dominated — Section 5.4.1 finds no two-level scheme in any
    // top-10 — and cost ~3-5x more per scheme to simulate than a
    // window scheme, more at depth 8); set CCP_FULL_PAS=1
    // to widen.
    if (std::getenv("CCP_FULL_PAS")) {
        space.pasDepths = {1, 2, 4};
    } else {
        space.pasDepths = {2};
    }
    // The learned family rides the same sweep so perceptron schemes
    // rank head-to-head against the paper's; the default grid is kept
    // coarse for the same cost reason as PAs (its per-node dot
    // products are the expensive part).  CCP_FULL_PERC=1 widens every
    // perceptron dimension.
    if (std::getenv("CCP_FULL_PERC")) {
        space.percDepths = {1, 2, 4, 8};
        space.percWeightBits = {4, 5, 6, 8};
        space.percThetas = {1, 2, 4, 8};
        space.percBloomBits = {0, 8, 16, 32};
    } else {
        space.percDepths = {2};
        space.percWeightBits = {5};
        space.percThetas = {2};
        space.percBloomBits = {0, 16};
    }
    return space;
}

inline int
runTopTen(BenchContext &ctx, const char *title, predict::UpdateMode mode,
          sweep::RankBy by, const std::vector<PaperTopTen> &paper)
{
    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);
    auto schemes = enumerateSchemes(paperSpace());

    // Shard-worker mode: evaluate this worker's sub-list and leave
    // the shard checkpoint; no table (the merge prints it).
    if (ctx.shardWorker())
        return runShardWorker(ctx, suite, schemes, mode);

    if (logLevel() >= LogLevel::Info)
        std::fprintf(stderr, "[bench] sweeping %zu schemes...\n",
                     schemes.size());
    obs::ProgressReporter reporter("sweep");
    auto on_progress = [&reporter](const obs::Progress &p) {
        reporter(p);
    };
    sweep::ResilientOutcome outcome;
    // Supervisor mode swaps only the evaluation engine (a worker
    // fleet instead of in-process threads); ranking and printing
    // below are shared, so the orchestrated table is byte-identical
    // to the single-process one wherever shards completed.
    auto results_vec =
        ctx.orchestrating()
            ? orchestrateSchemes(ctx, suite, schemes, mode,
                                 on_progress, outcome)
            : evaluateSchemesResilient(ctx, suite, schemes, mode,
                                       on_progress, outcome);
    if (outcome.interrupted) {
        // Drained early: the checkpoint holds everything finished so
        // far; a partial top-10 would be misleading, so don't rank.
        std::fprintf(stderr,
                     "[bench] sweep interrupted — rerun with "
                     "--resume to continue from %s\n",
                     outcome.checkpointFile.c_str());
        return ctx.finishWith(outcome.exitCode());
    }
    if (!outcome.failures.empty())
        std::fprintf(stderr,
                     "[bench] %zu scheme(s) failed and are excluded "
                     "from the ranking (see the report's resilience "
                     "section)\n", outcome.failures.size());
    auto top = sweep::rankResults(results_vec, by, 10,
                                  suite.front().nNodes(),
                                  &outcome.completed);

    std::printf("%s\n\n", title);
    Table t({"#", "scheme", "size", "prev", "pvp", "sens", "| paper",
             "size", "pvp", "sens"});
    for (std::size_t i = 0; i < top.size(); ++i) {
        const auto &r = top[i];
        const auto &p = paper[i];
        t.addRow({std::to_string(i + 1),
                  sweep::formatScheme(r.result.scheme),
                  fmt(std::log2(double(r.result.scheme.sizeBits(16))),
                      0),
                  fmt(r.result.avgPrevalence()),
                  fmt(r.result.avgPvp()), fmt(r.result.avgSensitivity()),
                  std::string("| ") + p.scheme,
                  std::to_string(p.sizeLog2), fmt(p.pvp), fmt(p.sens)});
    }
    t.print();

    // Shape checks.
    unsigned deep = 0, with_pid = 0, inter_count = 0, union_count = 0;
    for (const auto &r : top) {
        deep += r.result.scheme.depth >= 3;
        with_pid += r.result.scheme.index.usePid;
        inter_count += r.result.scheme.kind ==
                       predict::FunctionKind::Inter;
        union_count += r.result.scheme.kind ==
                       predict::FunctionKind::Union;
    }
    std::printf("\nShape checks:\n");
    std::printf("  deep-history schemes in top-10:  %u/10\n", deep);
    if (by == sweep::RankBy::Pvp) {
        std::printf("  intersection schemes in top-10:  %u/10 "
                    "(paper: 10)\n",
                    inter_count);
        std::printf("  pid-indexed schemes in top-10:   %u/10 "
                    "(paper: 10)\n",
                    with_pid);
    } else {
        std::printf("  union schemes in top-10:         %u/10 "
                    "(paper: 10)\n",
                    union_count);
    }

    obs::Json &results = ctx.results();
    results["schemes_swept"] = obs::Json(schemes.size());
    obs::Json &rows = results["top"];
    rows = obs::Json::array();
    for (const auto &r : top) {
        obs::Json row = suiteResultJson(r.result);
        row["score"] = obs::Json(r.score);
        rows.append(std::move(row));
    }
    obs::Json &shape = results["shape"];
    shape["deep_history"] = obs::Json(deep);
    shape["pid_indexed"] = obs::Json(with_pid);
    shape["inter"] = obs::Json(inter_count);
    shape["union"] = obs::Json(union_count);
    return ctx.finish();
}

} // namespace ccp::benchutil

#endif // CCP_BENCH_TOPTEN_COMMON_HH
