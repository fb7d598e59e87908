#include "sweep/parallel.hh"

#include <atomic>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "common/numa.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sweep/batch.hh"

namespace ccp::sweep {

using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;

const char *
sweepKernelName(SweepKernel kernel)
{
    switch (kernel) {
      case SweepKernel::Batched:
        return "batched";
      case SweepKernel::Reference:
        return "reference";
    }
    ccp_panic("bad SweepKernel");
}

bool
parseSweepKernel(const std::string &text, SweepKernel &kernel)
{
    if (text == "batched") {
        kernel = SweepKernel::Batched;
        return true;
    }
    if (text == "reference") {
        kernel = SweepKernel::Reference;
        return true;
    }
    return false;
}

ParallelSweep::ParallelSweep(unsigned threads, SweepKernel kernel)
    : pool_(threads), kernel_(kernel)
{
    // NUMA-aware worker placement: with spawned workers on a
    // multi-node host, pin worker w to node (w-1) % nodes so shards
    // spread evenly and each worker's batch state — allocated and
    // first-touched inside its own task — stays node-local.  The
    // calling thread (worker 0) is never pinned; single-node or
    // unknown topologies install nothing.
    if (pool_.threads() > 1) {
        NumaTopology topo = numaTopology();
        if (topo.multiNode()) {
            numaNodesUsed_ = topo.nodes.size();
            auto shared =
                std::make_shared<NumaTopology>(std::move(topo));
            pool_.setWorkerStartHook([shared](unsigned worker) {
                const auto &nodes = shared->nodes;
                const NumaNode &node =
                    nodes[(worker - 1) % nodes.size()];
                if (!pinCurrentThread(node.cpus))
                    ccp_warn("NUMA pin of worker ", worker,
                             " to node ", node.id,
                             " failed; running unpinned");
            });
        }
    }
}

std::vector<SuiteResult>
ParallelSweep::evaluate(const std::vector<trace::SharingTrace> &traces,
                        const std::vector<SchemeSpec> &schemes,
                        UpdateMode mode, const obs::ProgressFn &progress)
{
    return kernel_ == SweepKernel::Reference
               ? evaluateReference(traces, schemes, mode, progress)
               : evaluateBatched(traces, schemes, mode, progress);
}

std::vector<SuiteResult>
ParallelSweep::evaluateReference(
    const std::vector<trace::SharingTrace> &traces,
    const std::vector<SchemeSpec> &schemes, UpdateMode mode,
    const obs::ProgressFn &progress)
{
    std::vector<SuiteResult> results(schemes.size());

    // One stats shard per worker.  The shards are merged below into
    // whatever registry this thread accounts into (root() outside
    // tests), in worker order, so totals match the sequential sweep
    // and merging is deterministic for a given thread count.
    std::vector<obs::StatsRegistry> shards(pool_.threads());

    obs::ProgressMeter meter(schemes.size());
    std::atomic<std::size_t> completed{0};
    std::mutex progress_mutex;

    // Chunk of 1: a scheme evaluation is milliseconds to seconds of
    // work, so per-job queue traffic is noise and fine-grained
    // stealing keeps workers busy through the expensive PAs schemes.
    pool_.forEach(
        schemes.size(),
        [&](std::size_t job, unsigned worker) {
            obs::StatsRegistry &shard = shards[worker];
            obs::ScopedRegistry route(shard);
            {
                CCP_TRACE_SPAN("sweep", "sweep.scheme");
                obs::ScopedTimer timer(shard,
                                       "sweep.scheme_eval_seconds");
                obs::Stopwatch lat;
                results[job] = evaluateSuite(traces, schemes[job], mode);
                shard.latency("sweep.scheme_latency_ns")
                    .add(std::uint64_t(lat.elapsedSec() * 1e9));
            }
            ++shard.counter("sweep.schemes_evaluated");

            std::size_t done = completed.fetch_add(1) + 1;
            if (progress) {
                // The meter's high-water mark keeps done monotonic
                // even when workers reach this lock out of order.
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(meter.tick(done));
            }
        },
        1);

    obs::StatsRegistry &parent = obs::StatsRegistry::current();
    for (const auto &shard : shards)
        parent.merge(shard);
    return results;
}

std::vector<SuiteResult>
ParallelSweep::evaluateBatched(
    const std::vector<trace::SharingTrace> &traces,
    const std::vector<SchemeSpec> &schemes, UpdateMode mode,
    const obs::ProgressFn &progress)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    const unsigned n_nodes = traces.front().nNodes();

    // Batch boundaries depend only on the scheme list (never the
    // thread count), and every scheme's predictor state is private to
    // its batch, so results are identical to the reference kernel's
    // regardless of partitioning or worker interleaving.
    auto batches = planBatches(schemes, n_nodes);

    std::vector<SuiteResult> results(schemes.size());
    std::vector<obs::StatsRegistry> shards(pool_.threads());

    obs::ProgressMeter meter(schemes.size());
    std::atomic<std::size_t> completed{0};
    std::mutex progress_mutex;

    pool_.forEach(
        batches.size(),
        [&](std::size_t job, unsigned worker) {
            obs::StatsRegistry &shard = shards[worker];
            obs::ScopedRegistry route(shard);
            auto [first, last] = batches[job];
            {
                CCP_TRACE_SPAN_N("sweep", "sweep.batch", last - first);
                obs::ScopedTimer timer(shard,
                                       "sweep.batch_eval_seconds");
                obs::Stopwatch lat;
                BatchEvaluator batch(
                    {schemes.begin() +
                         static_cast<std::ptrdiff_t>(first),
                     schemes.begin() +
                         static_cast<std::ptrdiff_t>(last)},
                    n_nodes);
                auto batch_results = batch.evaluateSuite(traces, mode);
                for (std::size_t i = 0; i < batch_results.size(); ++i)
                    results[first + i] = std::move(batch_results[i]);
                shard.latency("sweep.batch_latency_ns")
                    .add(std::uint64_t(lat.elapsedSec() * 1e9));
            }
            ++shard.counter("sweep.batches_evaluated");
            shard.counter("sweep.schemes_evaluated") += last - first;

            std::size_t done =
                completed.fetch_add(last - first) + (last - first);
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(meter.tick(done));
            }
        },
        1);

    obs::StatsRegistry &parent = obs::StatsRegistry::current();
    for (const auto &shard : shards)
        parent.merge(shard);
    return results;
}

} // namespace ccp::sweep
