/**
 * @file
 * Shared driver for the figure benches (Figures 6-8): one prediction
 * function over the sixteen-position indexing series, under all three
 * update mechanisms, printing the sensitivity and PVP series that the
 * paper plots as bars.
 */

#ifndef CCP_BENCH_FIGURE_COMMON_HH
#define CCP_BENCH_FIGURE_COMMON_HH

#include <cmath>

#include "bench_util.hh"
#include "sweep/figures.hh"

namespace ccp::benchutil {

inline void
printSeries(const char *mode_name,
            const std::vector<sweep::FigurePoint> &points)
{
    std::printf("%s update:\n", mode_name);
    Table t({"index(addr/dir/pc/pid)", "sensitivity", "pvp"});
    for (const auto &pt : points)
        t.addRow({pt.label, fmt(pt.sensitivity, 3), fmt(pt.pvp, 3)});
    t.print();
    std::printf("\n");
}

/** Append one figure's series to a CSV file for plotting (set
 *  CCP_CSV_DIR to enable). */
inline void
writeSeriesCsv(const char *figure, const char *mode_name,
               const std::vector<sweep::FigurePoint> &points)
{
    const char *dir = std::getenv("CCP_CSV_DIR");
    if (!dir)
        return;
    std::filesystem::create_directories(dir);
    std::string path = std::string(dir) + "/" + figure + ".csv";
    bool fresh = !std::filesystem::exists(path);
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f)
        return;
    if (fresh)
        std::fprintf(f, "figure,update,index,sensitivity,pvp\n");
    for (const auto &pt : points)
        std::fprintf(f, "%s,%s,%s,%.6f,%.6f\n", figure, mode_name,
                     pt.label.c_str(), pt.sensitivity, pt.pvp);
    std::fclose(f);
}

inline int
runFigure(BenchContext &ctx, const char *title,
          predict::FunctionKind kind, unsigned depth,
          const std::vector<predict::IndexSpec> &series)
{
    auto suite = loadOrGenerateSuite(ctx.threads());
    ctx.addSuite(suite);

    std::printf("%s\n(suite-average sensitivity and PVP per indexing "
                "combination)\n\n",
                title);

    obs::Json &results = ctx.results();
    results["function"] = obs::Json(predict::functionKindName(kind));
    results["depth"] = obs::Json(depth);
    obs::Json &modes = results["modes"];
    modes = obs::Json::object();

    std::vector<sweep::FigurePoint> pid_on, pid_off;
    for (auto mode : {predict::UpdateMode::Direct,
                      predict::UpdateMode::Forwarded,
                      predict::UpdateMode::Ordered}) {
        auto points = sweep::evaluateFigure(suite, series, kind, depth,
                                            mode, ctx.threads(),
                                            ctx.kernel());
        printSeries(predict::updateModeName(mode), points);
        writeSeriesCsv(predict::functionKindName(kind),
                       predict::updateModeName(mode), points);
        obs::Json &pts = modes[predict::updateModeName(mode)];
        pts = obs::Json::array();
        for (const auto &pt : points) {
            obs::Json row = obs::Json::object();
            row["index"] = obs::Json(pt.label);
            row["sensitivity"] = obs::Json(pt.sensitivity);
            row["pvp"] = obs::Json(pt.pvp);
            pts.append(std::move(row));
        }
        if (mode == predict::UpdateMode::Direct) {
            for (const auto &pt : points)
                (pt.index.usePid ? pid_on : pid_off).push_back(pt);
        }
    }

    // Shape check (Section 5.4.2): pid indexing tends to lift both
    // metrics; pc-only indexing is the all-around bad performer.
    auto mean = [](const std::vector<sweep::FigurePoint> &v,
                   bool use_pvp) {
        double s = 0;
        for (const auto &p : v)
            s += use_pvp ? p.pvp : p.sensitivity;
        return v.empty() ? 0.0 : s / v.size();
    };
    std::printf("Shape checks (direct update):\n");
    std::printf("  mean sens with pid %.3f vs without %.3f -> %s\n",
                mean(pid_on, false), mean(pid_off, false),
                mean(pid_on, false) >= mean(pid_off, false) ? "yes"
                                                            : "NO");
    std::printf("  mean pvp  with pid %.3f vs without %.3f -> %s\n",
                mean(pid_on, true), mean(pid_off, true),
                mean(pid_on, true) >= mean(pid_off, true) ? "yes"
                                                          : "NO");
    return ctx.finish();
}

} // namespace ccp::benchutil

#endif // CCP_BENCH_FIGURE_COMMON_HH
