/**
 * @file
 * Perf-regression gate over the benchmark records the repo's perf
 * binaries write: the sweep-kernel record from perf_micro
 * (BENCH_sweep.json) and the serve-pipeline record from serve_bench
 * (BENCH_serve.json, meta.kind == "serve").  Compares a current
 * record against a committed baseline and fails when throughput
 * regressed beyond tolerance.
 *
 *   bench_compare --baseline bench/baselines/BENCH_sweep.json \
 *                 --current BENCH_sweep.json \
 *                 [--max-regress 0.10] [--absolute] [--archive <dir>]
 *
 * The record kind is read from meta.kind (absent = "sweep", the
 * original record layout); baseline and current must agree, and two
 * serve records must also agree on meta.clients, agents, scheme,
 * window_events, ring_capacity and timing_pairs.  Sweep
 * records gate the kernel speedups and the learned families' rates
 * (below); serve records gate
 * pipeline_ratio (served vs inline events/s on the same machine —
 * relative, so host-portable) and record the absolute events/s and
 * ingest-to-predict p50/p99 latency, which must stay present but only
 * gate under --absolute (events/s; latency is recorded only, since
 * queueing delay is load- not regression-shaped).
 *
 * Two comparison modes:
 *
 *  - Relative (default): gates metrics that are ratios of two runs on
 *    the SAME machine — the batched/reference speedup, each learned
 *    family's (PAs, perceptron) batched scheme-events/s over its
 *    frozen scalar model's on the same schemes (`<fam>_oracle`), and
 *    the tracing overhead — so a baseline
 *    committed from one host is a valid gate on any other (CI runners
 *    differ in absolute throughput by design, and gating absolute
 *    numbers across hosts would only flake).
 *  - --absolute: additionally gates the absolute scheme-events/s of
 *    every section (reference, batched, batched_parallel).
 *    Use it when baseline and current come from the same machine,
 *    e.g. the nightly archive.
 *
 * Gate policy per metric:
 *
 *  - Present in both records: current must not fall below baseline by
 *    more than the tolerance.
 *  - Missing in the baseline (an older record predating the metric):
 *    record the current value, don't gate — the row prints "new" and
 *    passes, and re-committing the baseline starts gating it.
 *  - Present in the baseline but missing in the current record: FAIL;
 *    a metric must never silently disappear.
 *  - Zero (or otherwise degenerate) denominators are explicit
 *    failures with a message, never inf/nan rows that "pass".
 *
 * --archive <dir> copies the current record into @p dir under a name
 * stamped from its own metadata (date + git SHA), building the history
 * the absolute mode can be pointed at.
 *
 * Exit codes: 0 pass, 1 regression (or malformed or mismatched
 * records), 2 usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace {

using ccp::obs::Json;

struct Options
{
    std::string baselinePath;
    std::string currentPath;
    double maxRegress = 0.10;
    bool absolute = false;
    std::string archiveDir;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --baseline <BENCH_sweep.json> "
        "--current <BENCH_sweep.json>\n"
        "          [--max-regress <frac>] [--absolute] "
        "[--archive <dir>]\n",
        argv0);
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return is.good() || is.eof();
}

/** Numeric field at doc[section][key] (or doc[key] with empty
 *  section); nan when absent. */
double
field(const Json &doc, const std::string &section,
      const std::string &key)
{
    const Json *j = &doc;
    if (!section.empty()) {
        j = j->find(section);
        if (!j || !j->isObject())
            return std::nan("");
    }
    const Json *v = j->find(key);
    if (!v || !v->isNumber())
        return std::nan("");
    return v->asDouble();
}

/** One compared metric (all are higher-is-better). */
struct Check
{
    std::string label;
    double baseline;
    double current;
    /** False: record the row for the report, never fail on it. */
    bool gate = true;
    /** Why a row is ungated or malformed; printed after the status. */
    std::string note;
    /** True: the source record is malformed; fail with the note. */
    bool malformed = false;
};

bool
runChecks(const std::vector<Check> &checks, double max_regress)
{
    bool ok = true;
    std::printf("%-34s %12s %12s %8s\n", "metric", "baseline",
                "current", "delta");
    for (const auto &c : checks) {
        const char *label = c.label.c_str();
        if (c.malformed) {
            std::printf("%-34s %12s %12s %8s  %s\n", label, "-", "-",
                        "FAIL", c.note.c_str());
            ok = false;
            continue;
        }
        if (!std::isnan(c.baseline) && !std::isfinite(c.baseline)) {
            // A present-but-infinite value (e.g. an overflowed
            // "1e999" in the record) is a broken measurement, not a
            // comparison: inf >= anything would "pass" every gate.
            // (A literal nan never gets this far — the JSON parser
            // rejects the token, so the whole record fails to load.)
            std::printf("%-34s %12s %12s %8s  %s\n", label, "-", "-",
                        "FAIL", "non-finite baseline value");
            ok = false;
            continue;
        }
        if (!std::isnan(c.current) && !std::isfinite(c.current)) {
            std::printf("%-34s %12s %12s %8s  %s\n", label, "-", "-",
                        "FAIL", "non-finite current value");
            ok = false;
            continue;
        }
        if (std::isnan(c.current)) {
            // A metric may be new to the current record, but must
            // never silently disappear from it.
            std::printf("%-34s %12s %12s %8s  %s\n", label,
                        std::isnan(c.baseline) ? "missing" : "-",
                        "missing", "FAIL",
                        std::isnan(c.baseline)
                            ? "absent from both records"
                            : "present in baseline, missing in "
                              "current record");
            ok = false;
            continue;
        }
        if (std::isnan(c.baseline)) {
            // Record, don't gate: the baseline predates this metric.
            std::printf("%-34s %12s %12.3f %8s  %s\n", label,
                        "missing", c.current, "new",
                        "recorded, not gated (no baseline)");
            continue;
        }
        if (c.gate && c.baseline == 0.0) {
            std::printf("%-34s %12.3f %12.3f %8s  %s\n", label,
                        c.baseline, c.current, "FAIL",
                        "zero baseline: relative regression is "
                        "undefined");
            ok = false;
            continue;
        }
        const bool pass =
            !c.gate || c.current >= c.baseline * (1.0 - max_regress);
        if (c.baseline != 0.0) {
            const double delta = c.current / c.baseline - 1.0;
            std::printf("%-34s %12.3f %12.3f %+7.1f%% %s%s\n", label,
                        c.baseline, c.current, delta * 100.0,
                        pass ? "" : "FAIL", c.note.c_str());
        } else {
            std::printf("%-34s %12.3f %12.3f %8s %s%s\n", label,
                        c.baseline, c.current, "n/a",
                        pass ? "" : "FAIL", c.note.c_str());
        }
        ok = ok && pass;
    }
    return ok;
}

std::string
metaString(const Json &doc, const char *key, const char *fallback)
{
    if (const Json *meta = doc.find("meta"))
        if (const Json *v = meta->find(key))
            if (v->kind() == Json::Kind::String)
                return v->asString();
    return fallback;
}

/** doc.meta[key] as JSON text; "missing" when absent. */
std::string
metaText(const Json &doc, const char *key)
{
    if (const Json *meta = doc.find("meta"))
        if (const Json *v = meta->find(key))
            return v->dump();
    return "missing";
}

/** Archive the current record as BENCH_<kind>_<date>_<sha12>.json. */
bool
archive(const Json &doc, const std::string &raw,
        const std::string &dir)
{
    std::string date = metaString(doc, "date_utc", "undated");
    for (char &c : date)
        if (c == ':')
            c = '-';
    std::string sha = metaString(doc, "git_sha", "unknown");
    if (sha.size() > 12)
        sha.resize(12);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/BENCH_" +
                             metaString(doc, "kind", "sweep") + "_" +
                             date + "_" + sha + ".json";
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << raw;
    if (!os.good()) {
        std::fprintf(stderr, "bench_compare: cannot archive to %s\n",
                     path.c_str());
        return false;
    }
    std::printf("archived %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](std::string &dst) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            dst = argv[++i];
        };
        if (arg == "--baseline") {
            value(opt.baselinePath);
        } else if (arg == "--current") {
            value(opt.currentPath);
        } else if (arg == "--max-regress") {
            std::string v;
            value(v);
            char *end = nullptr;
            opt.maxRegress = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                opt.maxRegress < 0 || opt.maxRegress >= 1) {
                std::fprintf(stderr,
                             "bad --max-regress '%s' (want a "
                             "fraction in [0,1))\n", v.c_str());
                return 2;
            }
        } else if (arg == "--absolute") {
            opt.absolute = true;
        } else if (arg == "--archive") {
            value(opt.archiveDir);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }
    if (opt.baselinePath.empty() || opt.currentPath.empty())
        return usage(argv[0]);

    std::string base_raw, cur_raw;
    if (!readFile(opt.baselinePath, base_raw)) {
        std::fprintf(stderr, "bench_compare: cannot read %s\n",
                     opt.baselinePath.c_str());
        return 1;
    }
    if (!readFile(opt.currentPath, cur_raw)) {
        std::fprintf(stderr, "bench_compare: cannot read %s\n",
                     opt.currentPath.c_str());
        return 1;
    }
    auto base = Json::parse(base_raw);
    auto cur = Json::parse(cur_raw);
    if (!base || !cur) {
        std::fprintf(stderr,
                     "bench_compare: malformed JSON in %s\n",
                     !base ? opt.baselinePath.c_str()
                           : opt.currentPath.c_str());
        return 1;
    }

    std::printf("baseline: %s (%s, %s)\n", opt.baselinePath.c_str(),
                metaString(*base, "git_sha", "unstamped").c_str(),
                metaString(*base, "date_utc", "undated").c_str());
    std::printf("current:  %s (%s, %s)\n", opt.currentPath.c_str(),
                metaString(*cur, "git_sha", "unstamped").c_str(),
                metaString(*cur, "date_utc", "undated").c_str());

    // The record layout is selected by meta.kind; records predating
    // the field are sweep records.  Comparing across kinds is a
    // configuration error, not a regression.
    const std::string base_kind = metaString(*base, "kind", "sweep");
    const std::string cur_kind = metaString(*cur, "kind", "sweep");
    if (base_kind != cur_kind) {
        std::fprintf(stderr,
                     "bench_compare: record kind mismatch (baseline "
                     "'%s' vs current '%s')\n",
                     base_kind.c_str(), cur_kind.c_str());
        return 1;
    }

    std::vector<Check> checks;
    auto pushCheck = [&checks](std::string label, double baseline,
                               double current) -> Check & {
        Check c;
        c.label = std::move(label);
        c.baseline = baseline;
        c.current = current;
        checks.push_back(std::move(c));
        return checks.back();
    };
    if (cur_kind == "serve") {
        // pipeline_ratio moves with the serving config (agents,
        // clients, rings...), so a record of another config is a
        // setup error, not a regression.
        bool same_config = true;
        for (const char *key :
             {"clients", "agents", "scheme", "window_events",
              "ring_capacity", "timing_pairs"}) {
            const std::string b = metaText(*base, key);
            const std::string c = metaText(*cur, key);
            if (b == c)
                continue;
            std::fprintf(stderr,
                         "bench_compare: serve config mismatch: "
                         "meta.%s is %s in the baseline but %s in the "
                         "current record\n",
                         key, b.c_str(), c.c_str());
            same_config = false;
        }
        if (!same_config)
            return 1;

        // The host-portable gate: how much of the inline (no-pipeline)
        // throughput the served path keeps on the same machine.
        pushCheck("pipeline_ratio (served/inline)",
                  field(*base, "", "pipeline_ratio"),
                  field(*cur, "", "pipeline_ratio"));
        // Absolute numbers must stay present in every record (a
        // missing-in-current row fails) but only gate when baseline
        // and current share a machine.
        {
            Check &c =
                pushCheck("serve events/s (M)",
                          field(*base, "serve", "events_per_sec") / 1e6,
                          field(*cur, "serve", "events_per_sec") / 1e6);
            if (!opt.absolute) {
                c.gate = false;
                c.note = "  not gated (host-dependent; --absolute)";
            }
        }
        {
            Check &c = pushCheck(
                "inline events/s (M)",
                field(*base, "inline", "events_per_sec") / 1e6,
                field(*cur, "inline", "events_per_sec") / 1e6);
            if (!opt.absolute) {
                c.gate = false;
                c.note = "  not gated (host-dependent; --absolute)";
            }
        }
        // Ingest-to-predict latency is dominated by queueing under
        // the bench's open-loop load, so it is recorded (and must not
        // disappear) but never gated.
        for (const char *key : {"p50_ns", "p99_ns"}) {
            Check &c = pushCheck(std::string("serve latency ") + key,
                                 field(*base, "serve", key),
                                 field(*cur, "serve", key));
            c.gate = false;
            c.note = "  not gated (lower is better; recorded)";
        }

        bool serve_ok = runChecks(checks, opt.maxRegress);
        if (!opt.archiveDir.empty() &&
            !archive(*cur, cur_raw, opt.archiveDir))
            serve_ok = false;
        std::printf("bench_compare: %s (tolerance %.0f%%)\n",
                    serve_ok ? "PASS" : "FAIL",
                    opt.maxRegress * 100.0);
        return serve_ok ? 0 : 1;
    }

    pushCheck("speedup (batched/reference)",
              field(*base, "", "speedup"),
              field(*cur, "", "speedup"));
    // Tracing overhead is lower-is-better; gate it as the inverted
    // throughput ratio so one tolerance covers every row.  An
    // overhead at or below -100% would flip the ratio's sign (a
    // physically impossible record): fail it explicitly instead of
    // letting inf/nan sail through the comparison.
    const double base_ov =
        field(*base, "tracing", "enabled_overhead_pct");
    const double cur_ov =
        field(*cur, "tracing", "enabled_overhead_pct");
    {
        Check &c = pushCheck("tracing throughput ratio",
                             std::nan(""), std::nan(""));
        if (!std::isnan(base_ov)) {
            if (100.0 + base_ov <= 0.0) {
                c.malformed = true;
                c.note = "baseline tracing overhead <= -100%";
            } else {
                c.baseline = 100.0 / (100.0 + base_ov);
            }
        }
        if (!std::isnan(cur_ov) && !c.malformed) {
            if (100.0 + cur_ov <= 0.0) {
                c.malformed = true;
                c.note = "current tracing overhead <= -100%";
            } else {
                c.current = 100.0 / (100.0 + cur_ov);
            }
        }
    }
    // Each learned family's batched rate over its frozen scalar
    // model's rate on the same schemes in the same run: the model
    // never gets faster, so host speed cancels out and only kernel or
    // function changes move the ratio.
    for (const char *fam : {"pas", "perceptron"}) {
        const std::string oracle = std::string(fam) + "_oracle";
        Check &c = pushCheck(std::string(fam) + " / " + fam + " oracle",
                             std::nan(""), std::nan(""));
        auto ratio = [&](const Json &doc, const char *which) {
            const double num = field(doc, fam, "scheme_events_per_sec");
            const double den =
                field(doc, oracle, "scheme_events_per_sec");
            if (!std::isnan(num) && !std::isnan(den) && !(den > 0.0)) {
                c.malformed = true;
                c.note = std::string(which) +
                         " oracle rate is not positive";
            }
            return num / den; // nan when either is missing
        };
        c.baseline = ratio(*base, "baseline");
        c.current = ratio(*cur, "current");
    }
    if (opt.absolute) {
        for (const char *sec :
             {"reference", "batched", "batched_parallel"})
            pushCheck(sec,
                      field(*base, sec, "scheme_events_per_sec") / 1e6,
                      field(*cur, sec, "scheme_events_per_sec") / 1e6);
    }

    bool ok = runChecks(checks, opt.maxRegress);

    if (!opt.archiveDir.empty() &&
        !archive(*cur, cur_raw, opt.archiveDir))
        ok = false;

    std::printf("bench_compare: %s (tolerance %.0f%%)\n",
                ok ? "PASS" : "FAIL", opt.maxRegress * 100.0);
    return ok ? 0 : 1;
}
