/**
 * @file
 * trace_tool: generate, save, load and inspect coherence traces.
 *
 * The paper's methodology generates traces once and sweeps predictors
 * over them many times; this tool is that workflow's command line.
 *
 * Usage:
 *   trace_tool gen     <benchmark> <file> [scale] [seed]
 *   trace_tool info    <file>
 *   trace_tool dump    <file> [count]   # print the first N events
 *   trace_tool eval    <file> <scheme> [direct|forwarded|ordered]
 *   trace_tool analyze <file>           # sharing-pattern breakdown
 *   trace_tool verify  <file>           # validate format + checksum
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/patterns.hh"
#include "obs/timer.hh"
#include "trace/format.hh"
#include "predict/evaluator.hh"
#include "sweep/name.hh"
#include "workloads/registry.hh"

namespace {

using namespace ccp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  trace_tool gen     <benchmark> <file> [scale] [seed]\n"
        "  trace_tool info    <file>\n"
        "  trace_tool dump    <file> [count]\n"
        "  trace_tool eval    <file> <scheme> "
        "[direct|forwarded|ordered]\n"
        "  trace_tool analyze <file>\n"
        "  trace_tool verify  <file>\n");
    return 2;
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    workloads::WorkloadParams params;
    params.scale = argc > 4 ? std::atof(argv[4]) : 1.0;
    params.seed = argc > 5 ? std::strtoull(argv[5], nullptr, 0) : 0x5eed;
    auto tr = workloads::generateTrace(argv[2], params);
    if (!tr.saveFile(argv[3])) {
        std::fprintf(stderr, "cannot write %s\n", argv[3]);
        return 1;
    }
    std::printf("wrote %s: %llu events\n", argv[3],
                (unsigned long long)tr.storeMisses());
    return 0;
}

int
loadTrace(const char *path, trace::SharingTrace &tr)
{
    if (!tr.loadFile(path)) {
        std::fprintf(stderr, "cannot load trace %s\n", path);
        return 1;
    }
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    trace::SharingTrace tr;
    if (loadTrace(argv[2], tr))
        return 1;
    std::printf("name:                  %s\n", tr.name().c_str());
    std::printf("nodes:                 %u\n", tr.nNodes());
    std::printf("memory ops:            %llu\n",
                (unsigned long long)tr.meta().totalOps);
    std::printf("coherence store misses:%llu\n",
                (unsigned long long)tr.storeMisses());
    std::printf("blocks touched:        %llu\n",
                (unsigned long long)tr.meta().blocksTouched);
    std::printf("max static stores:     %llu\n",
                (unsigned long long)tr.meta().maxStaticStoresPerNode);
    std::printf("max predicted stores:  %llu\n",
                (unsigned long long)tr.meta().maxPredictedStoresPerNode);
    std::printf("sharing decisions:     %llu\n",
                (unsigned long long)tr.decisions());
    std::printf("sharing events:        %llu\n",
                (unsigned long long)tr.sharingEvents());
    std::printf("prevalence:            %.2f%%\n",
                100.0 * tr.prevalence());
    return 0;
}

int
cmdDump(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    trace::SharingTrace tr;
    if (loadTrace(argv[2], tr))
        return 1;
    std::size_t count = argc > 3 ? std::strtoull(argv[3], nullptr, 0)
                                 : 20;
    count = std::min(count, tr.events().size());
    std::printf("%-8s %-4s %-10s %-4s %-10s %-18s %-18s\n", "seq",
                "pid", "pc", "dir", "block", "invalidated", "readers");
    for (std::size_t i = 0; i < count; ++i) {
        const auto &ev = tr.events()[i];
        std::printf("%-8zu %-4u 0x%-8llx %-4u 0x%-8llx %-18s %-18s\n",
                    i, ev.pid, (unsigned long long)ev.pc, ev.dir,
                    (unsigned long long)ev.block,
                    ev.invalidated.toString(tr.nNodes()).c_str(),
                    ev.readers.toString(tr.nNodes()).c_str());
    }
    return 0;
}

int
cmdEval(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    trace::SharingTrace tr;
    if (loadTrace(argv[2], tr))
        return 1;
    auto parsed = sweep::parseScheme(argv[3]);
    if (!parsed) {
        std::fprintf(stderr, "bad scheme '%s'\n", argv[3]);
        return 1;
    }
    predict::UpdateMode mode = predict::UpdateMode::Direct;
    if (parsed->mode)
        mode = *parsed->mode;
    if (argc > 4) {
        if (!std::strcmp(argv[4], "forwarded"))
            mode = predict::UpdateMode::Forwarded;
        else if (!std::strcmp(argv[4], "ordered"))
            mode = predict::UpdateMode::Ordered;
        else if (std::strcmp(argv[4], "direct"))
            return usage();
    }

    auto conf = predict::evaluateTrace(tr, parsed->scheme, mode);
    std::printf("scheme:      %s[%s]\n",
                sweep::formatScheme(parsed->scheme).c_str(),
                predict::updateModeName(mode));
    std::printf("size:        2^%.1f bits\n",
                parsed->scheme.makeTable(tr.nNodes()).log2SizeBits());
    std::printf("tp/fp/tn/fn: %llu/%llu/%llu/%llu\n",
                (unsigned long long)conf.tp, (unsigned long long)conf.fp,
                (unsigned long long)conf.tn,
                (unsigned long long)conf.fn);
    std::printf("prevalence:  %.4f\n", conf.prevalence());
    std::printf("sensitivity: %.4f\n", conf.sensitivity());
    std::printf("pvp:         %.4f\n", conf.pvp());
    std::printf("specificity: %.4f\n", conf.specificity());
    std::printf("pvn:         %.4f\n", conf.pvn());
    return 0;
}

int
cmdAnalyze(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    trace::SharingTrace tr;
    if (loadTrace(argv[2], tr))
        return 1;
    auto a = analysis::analyzeTrace(tr);

    std::printf("%-20s %10s %8s %10s %8s\n", "pattern", "blocks", "%",
                "events", "%");
    for (std::size_t p = 0; p < analysis::numPatterns; ++p) {
        auto pat = static_cast<analysis::SharingPattern>(p);
        std::printf("%-20s %10llu %7.1f%% %10llu %7.1f%%\n",
                    analysis::sharingPatternName(pat),
                    (unsigned long long)a.blocks[p],
                    100.0 * a.blockFraction(pat),
                    (unsigned long long)a.events[p],
                    100.0 * a.eventFraction(pat));
    }
    std::printf("\nreaders/event: mean %.2f, max %.0f\n",
                a.readersPerEvent.mean(), a.readersPerEvent.max());
    std::printf("invalidation degree histogram: %s\n",
                a.invalidationDegree.toString().c_str());
    return 0;
}

/**
 * Verification with distinct exit codes, so scripts (CI checks, batch
 * validators) can act on the failure class without parsing stderr —
 * see docs/TRACE_FORMAT.md "Tooling".  The stages are decodeTrace()'s:
 *
 *   0  valid v4 trace, checksum ok, both read paths agree
 *   1  internal inconsistency (read paths disagree or refuse a file
 *      the decoder accepted — a library bug, not a bad file)
 *   2  usage error
 *   3  file missing or unreadable
 *   4  bad header (magic/version/bounds) or file size mismatch
 *   5  contents corrupt: checksum mismatch, or an event record that
 *      breaks the per-event byte rule
 */
int
cmdVerify(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const char *path = argv[2];

    {
        // The whole file, 8-byte aligned as the decoder requires; freed
        // before the timed loads below.
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(path, ec);
        std::ifstream is(path, std::ios::binary);
        std::vector<std::uint64_t> words(ec ? 0 : (size + 7) / 8);
        if (ec || !is ||
            !is.read(reinterpret_cast<char *>(words.data()),
                     static_cast<std::streamsize>(size))) {
            std::fprintf(stderr, "%s: cannot open\n", path);
            return 3;
        }
        const trace::DecodedTrace decoded = trace::decodeTrace(
            {reinterpret_cast<const std::byte *>(words.data()), size});
        if (decoded.reject) {
            std::fprintf(stderr, "%s: %s\n", path,
                         trace::traceRejectText(*decoded.reject));
            // Header and Size are 4, Checksum and Record 5.
            return *decoded.reject <= trace::TraceReject::Size ? 4 : 5;
        }
    }

    // Cross-check the two production read paths against each other;
    // a failure here is a library bug, not a damaged file.
    trace::SharingTrace via_stream;
    obs::Stopwatch stream_watch;
    const bool stream_ok = via_stream.loadFileStream(path);
    const double stream_sec = stream_watch.elapsedSec();

    trace::SharingTrace via_map;
    obs::Stopwatch map_watch;
    const bool map_ok = via_map.loadFileMapped(path);
    const double map_sec = map_watch.elapsedSec();

    std::printf("stream read: %s (%.3f ms)\n",
                stream_ok ? "ok" : "INVALID", 1e3 * stream_sec);
    std::printf("mmap read:   %s (%.3f ms)\n",
                map_ok ? "ok" : "INVALID", 1e3 * map_sec);
    if (!stream_ok || !map_ok ||
        via_stream.events().size() != via_map.events().size() ||
        via_stream.nNodes() != via_map.nNodes()) {
        std::fprintf(stderr,
                     "%s: read paths disagree on a file the decoder "
                     "accepted\n", path);
        return 1;
    }
    std::printf("trace '%s': %u nodes, %llu events — checksum ok\n",
                via_map.name().c_str(), via_map.nNodes(),
                (unsigned long long)via_map.storeMisses());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (!std::strcmp(argv[1], "gen"))
        return cmdGen(argc, argv);
    if (!std::strcmp(argv[1], "info"))
        return cmdInfo(argc, argv);
    if (!std::strcmp(argv[1], "dump"))
        return cmdDump(argc, argv);
    if (!std::strcmp(argv[1], "eval"))
        return cmdEval(argc, argv);
    if (!std::strcmp(argv[1], "analyze"))
        return cmdAnalyze(argc, argv);
    if (!std::strcmp(argv[1], "verify"))
        return cmdVerify(argc, argv);
    return usage();
}
