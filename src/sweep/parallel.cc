#include "sweep/parallel.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sweep/batch.hh"
#include "sweep/partition.hh"

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

namespace {

/**
 * Per trace, which schemes the batched sweep evaluates and which copy
 * an earlier scheme's result (sweep/partition.hh): one pool task per
 * trace, largest first, each one "sweep.classify_seconds" sample.
 */
std::vector<TraceSharing>
classifySuite(ThreadPool &pool, std::vector<obs::StatsRegistry> &shards,
              const std::vector<trace::SharingTrace> &traces,
              const std::vector<SchemeSpec> &schemes, unsigned n_nodes,
              UpdateMode mode)
{
    const PartitionClassifier classifier(schemes, n_nodes);
    std::vector<std::size_t> by_size(traces.size());
    std::iota(by_size.begin(), by_size.end(), 0);
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](std::size_t a, std::size_t b) {
                         return traces[a].events().size() >
                                traces[b].events().size();
                     });
    std::vector<TraceSharing> sharing(traces.size());
    std::vector<std::vector<std::uint64_t>> seen(pool.threads());
    pool.forEach(
        traces.size(),
        [&](std::size_t job, unsigned worker) {
            obs::StatsRegistry &shard = shards[worker];
            const std::size_t t = by_size[job];
            CCP_TRACE_SPAN_N("sweep", "sweep.classify",
                             traces[t].events().size());
            obs::ScopedTimer timer(shard, "sweep.classify_seconds");
            sharing[t] = classifier.classify(traces[t], mode, seen[worker]);
            shard.counter("sweep.partition_classes") += sharing[t].classes;
            shard.counter("sweep.shared_scheme_traces") += sharing[t].shared;
        },
        1);
    return sharing;
}

/** One batched-kernel task: a batch and the traces it walks. */
struct BatchTask
{
    std::vector<std::size_t> ids;
    std::vector<std::size_t> traces;
    /** Scheme-traces the task completes: its schemes' and those of
     *  the schemes that copy them. */
    std::size_t served = 0;
};

/**
 * Each trace's evaluated schemes cut into batches (planBatches);
 * traces whose cuts yield the same batch share one task, which walks
 * them largest first, so the batch's state buffers are sized once and
 * then reused rather than regrown.  Depends on the scheme list and
 * the traces alone.
 */
std::vector<BatchTask>
planTasks(const std::vector<trace::SharingTrace> &traces,
          const std::vector<TraceSharing> &sharing,
          const std::vector<SchemeSpec> &schemes, unsigned n_nodes)
{
    std::vector<BatchTask> tasks;
    std::map<std::vector<std::size_t>, std::size_t> task_of;
    for (std::size_t t = 0; t < sharing.size(); ++t) {
        std::vector<std::size_t> ids;
        std::vector<SchemeSpec> evaluated;
        std::vector<std::size_t> served(schemes.size(), 0);
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            ++served[sharing[t].rep[i]];
            if (sharing[t].rep[i] == i) {
                ids.push_back(i);
                evaluated.push_back(schemes[i]);
            }
        }
        for (auto [first, last] : planBatches(evaluated, n_nodes)) {
            std::vector<std::size_t> batch(
                ids.begin() + static_cast<std::ptrdiff_t>(first),
                ids.begin() + static_cast<std::ptrdiff_t>(last));
            const auto [at, fresh] = task_of.try_emplace(batch, tasks.size());
            if (fresh)
                tasks.push_back({std::move(batch), {}, 0});
            BatchTask &task = tasks[at->second];
            task.traces.push_back(t);
            for (std::size_t i : task.ids)
                task.served += served[i];
        }
    }
    for (BatchTask &task : tasks)
        std::stable_sort(task.traces.begin(), task.traces.end(),
                         [&](std::size_t a, std::size_t b) {
                             return traces[a].events().size() >
                                    traces[b].events().size();
                         });
    return tasks;
}

} // namespace

std::vector<SuiteResult>
ParallelSweep::evaluateBatched(
    const std::vector<trace::SharingTrace> &traces,
    const std::vector<SchemeSpec> &schemes, UpdateMode mode,
    const obs::ProgressFn &progress)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    const unsigned n_nodes = traces.front().nNodes();
    for (const auto &tr : traces)
        ccp_assert(tr.nNodes() == n_nodes, "mixed machine sizes in suite");
    // Reject unusable schemes before classifying allocates for them.
    for (const SchemeSpec &s : schemes)
        schemeStateWords(s, n_nodes);

    // Results are identical to the reference kernel's regardless of
    // partitioning or worker interleaving: copies are exact (see
    // sweep/partition.hh), batches depend on the scheme list and the
    // traces alone, never the thread count, and every scheme's
    // predictor state is private to its batch.
    std::vector<obs::StatsRegistry> shards(pool_.threads());
    const std::vector<TraceSharing> sharing =
        classifySuite(pool_, shards, traces, schemes, n_nodes, mode);
    const std::vector<BatchTask> tasks =
        planTasks(traces, sharing, schemes, n_nodes);

    // confs[t][i]: scheme i's counts on trace t, for evaluated schemes.
    const std::size_t n_traces = traces.size();
    std::vector<std::vector<predict::Confusion>> confs(
        n_traces, std::vector<predict::Confusion>(schemes.size()));
    obs::ProgressMeter meter(schemes.size());
    std::atomic<std::size_t> completed{0};
    std::mutex progress_mutex;

    pool_.forEach(
        tasks.size(),
        [&](std::size_t job, unsigned worker) {
            obs::StatsRegistry &shard = shards[worker];
            obs::ScopedRegistry route(shard);
            const BatchTask &task = tasks[job];
            {
                CCP_TRACE_SPAN_N("sweep", "sweep.batch", task.ids.size());
                obs::ScopedTimer timer(shard,
                                       "sweep.batch_eval_seconds");
                obs::Stopwatch lat;
                std::vector<SchemeSpec> batch_schemes;
                batch_schemes.reserve(task.ids.size());
                for (std::size_t i : task.ids)
                    batch_schemes.push_back(schemes[i]);
                BatchEvaluator batch(std::move(batch_schemes), n_nodes);
                for (std::size_t t : task.traces) {
                    auto got = batch.evaluateTrace(traces[t], mode);
                    for (std::size_t k = 0; k < got.size(); ++k)
                        confs[t][task.ids[k]] = got[k];
                }
                shard.latency("sweep.batch_latency_ns")
                    .add(std::uint64_t(lat.elapsedSec() * 1e9));
            }
            shard.counter("sweep.batches_evaluated") += task.traces.size();

            // Done counts whole schemes: scheme-traces over traces.
            std::size_t done =
                completed.fetch_add(task.served) + task.served;
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(meter.tick(done / n_traces));
            }
        },
        1);

    std::vector<SuiteResult> results(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        SuiteResult &r = results[i];
        r.scheme = schemes[i];
        r.mode = mode;
        r.perTrace.reserve(n_traces);
        for (std::size_t t = 0; t < n_traces; ++t) {
            const predict::Confusion &c = confs[t][sharing[t].rep[i]];
            r.pooled.merge(c);
            r.perTrace.push_back({traces[t].name(), c});
        }
    }

    obs::StatsRegistry &parent = obs::StatsRegistry::current();
    for (const auto &shard : shards)
        parent.merge(shard);
    parent.counter("sweep.schemes_evaluated") += schemes.size();
    return results;
}

} // namespace ccp::sweep
