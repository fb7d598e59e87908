#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench {

using ccp::trace::SharingTrace;

unsigned
workerThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string
tracePath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".trace";
}

bool
prepareSuite(const Options &opts)
{
    std::filesystem::create_directories(opts.suiteDir);
    ccp::workloads::WorkloadParams params;
    params.seed = opts.seed;
    params.scale = suiteScale;
    for (const auto &name : ccp::workloads::workloadNames())
        if (!ccp::workloads::generateTrace(name, params)
                 .saveFile(tracePath(opts.suiteDir, name)))
            return false;
    return true;
}

bool
loadSuite(const std::string &dir, std::vector<SharingTrace> &suite,
          LayerClock &clock)
{
    suite.clear();
    for (const auto &name : ccp::workloads::workloadNames()) {
        SharingTrace tr;
        bool ok = false;
        {
            LayerClock::Span span(clock, Layer::Trace);
            ok = tr.loadFile(tracePath(dir, name));
        }
        if (!ok)
            return false;
        suite.push_back(std::move(tr));
    }
    return true;
}

std::uint64_t
suiteBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &name : ccp::workloads::workloadNames()) {
        std::error_code ec;
        const auto n =
            std::filesystem::file_size(tracePath(dir, name), ec);
        if (!ec)
            bytes += n;
    }
    return bytes;
}

bool
sameTrace(const SharingTrace &a, const SharingTrace &b)
{
    if (a.name() != b.name() || a.nNodes() != b.nNodes() ||
        a.events().size() != b.events().size())
        return false;
    const auto &ma = a.meta();
    const auto &mb = b.meta();
    if (ma.totalOps != mb.totalOps || ma.blocksTouched != mb.blocksTouched ||
        ma.invalidationsSent != mb.invalidationsSent ||
        ma.maxStaticStoresPerNode != mb.maxStaticStoresPerNode ||
        ma.maxPredictedStoresPerNode != mb.maxPredictedStoresPerNode)
        return false;
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const auto &x = a.events()[i];
        const auto &y = b.events()[i];
        if (x.pid != y.pid || x.dir != y.dir || x.pc != y.pc ||
            x.block != y.block || x.invalidated != y.invalidated ||
            x.readers != y.readers || x.prevWriterPc != y.prevWriterPc ||
            x.prevWriterPid != y.prevWriterPid ||
            x.hasPrevWriter != y.hasPrevWriter ||
            x.prevEvent != y.prevEvent)
            return false;
    }
    return true;
}

std::uint64_t
suiteEvents(const std::vector<SharingTrace> &suite)
{
    std::uint64_t n = 0;
    for (const auto &tr : suite)
        n += tr.events().size();
    return n;
}

void
Fnv::mix(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i)
        h_ = (h_ ^ b[i]) * 1099511628211ull;
}

std::string
Fnv::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
}

std::string
committedDigest(const std::string &file, const std::string &workload)
{
    std::ifstream is(file);
    std::string line;
    char want[64];
    std::snprintf(want, sizeof(want), "%" PRIx64 " %g", defaultSeed,
                  suiteScale);
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name, seed, scale, digest;
        if (ls >> name >> seed >> scale >> digest && name == workload &&
            seed + " " + scale == want)
            return digest;
    }
    return "";
}

void
checkDigest(const Options &opts, const std::string &workload,
            const std::string &what, const std::string &got, Result &res)
{
    if (opts.seed != defaultSeed)
        return;
    const std::string want = committedDigest(opts.digestFile, workload);
    std::fprintf(stderr, "[perfbench] %s %s digest %s\n", workload.c_str(),
                 what.c_str(), got.c_str());
    res.check(got == want, what + " digest " + got +
                               " does not match the committed '" + want +
                               "' in " + opts.digestFile);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

void
logReps(const std::vector<double> &times)
{
    std::fprintf(stderr, "[perfbench] %zu repetitions (s):", times.size());
    for (double t : times)
        std::fprintf(stderr, " %.4f", t);
    std::fprintf(stderr, "\n");
}

double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        unsigned long long kb = 0;
        if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kb) == 1)
            return static_cast<double>(kb) / 1024.0;
    }
    return 0.0;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace perfbench
