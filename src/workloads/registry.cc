#include "workloads/registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "workloads/kernels.hh"

namespace ccp::workloads {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "barnes", "em3d", "gauss", "mp3d", "ocean", "unstruct", "water",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    if (name == "barnes")
        return makeBarnes(params);
    if (name == "em3d")
        return makeEm3d(params);
    if (name == "gauss")
        return makeGauss(params);
    if (name == "mp3d")
        return makeMp3d(params);
    if (name == "ocean")
        return makeOcean(params);
    if (name == "unstruct")
        return makeUnstruct(params);
    if (name == "water")
        return makeWater(params);
    ccp_fatal("unknown workload '", name, "'");
}

trace::SharingTrace
generateTrace(const std::string &name, const WorkloadParams &params,
              const mem::MachineConfig &config)
{
    ccp_assert(config.nNodes == params.nNodes,
               "machine/workload node-count mismatch");
    sim::Machine machine(config, name, params.seed ^ 0xfeedbeef);
    auto workload = makeWorkload(name, params);
    workload->run(machine);
    return machine.finish();
}

void
runSharded(std::size_t n, unsigned threads,
           const std::function<void(std::size_t)> &job)
{
    if (threads == 0)
        threads = ThreadPool::defaultThreads();
    std::vector<obs::StatsRegistry> shards(n);
    ThreadPool pool(static_cast<unsigned>(
        std::clamp<std::size_t>(n, 1, threads)));
    pool.forEach(
        n,
        [&](std::size_t i, unsigned) {
            obs::ScopedRegistry route(shards[i]);
            job(i);
        },
        1);
    obs::StatsRegistry &parent = obs::StatsRegistry::current();
    for (const auto &shard : shards)
        parent.merge(shard);
}

std::vector<trace::SharingTrace>
generateSuite(const WorkloadParams &params,
              const mem::MachineConfig &config, unsigned threads)
{
    const auto &names = workloadNames();
    std::vector<trace::SharingTrace> traces(names.size());
    runSharded(names.size(), threads, [&](std::size_t i) {
        traces[i] = generateTrace(names[i], params, config);
    });
    return traces;
}

} // namespace ccp::workloads
