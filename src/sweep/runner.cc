#include "sweep/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/mem_budget.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sweep/batch.hh"
#include "sweep/checkpoint.hh"
#include "sweep/name.hh"
#include "trace/format.hh"

namespace ccp::sweep {

using predict::Confusion;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;

namespace {

// ---------------------------------------------------------------------
// Signal-requested drain
//
// Two flags on purpose.  The handler may touch only
// `volatile std::sig_atomic_t` — the one type the C standard
// guarantees is safe to assign from signal context — and nothing in
// the handler below allocates, locks, or logs (signal(), raise() and
// the assignment are all async-signal-safe).  requestInterrupt(), the
// *programmatic* drain used by tests and embedding tools, writes a
// separate atomic instead: threads injecting a drain while workers
// poll interruptRequested() would otherwise be a formal data race on
// the volatile (and a real TSan report).  Readers poll both.

volatile std::sig_atomic_t g_signal_flag = 0;
std::atomic<int> g_drain_requested{0};

extern "C" void
runnerSignalHandler(int sig)
{
    // First signal requests a drain (workers finish in-flight batches,
    // a final checkpoint is flushed).  A second one means "now": fall
    // back to the default disposition and re-raise.
    if (g_signal_flag != 0) {
        ::signal(sig, SIG_DFL);
        ::raise(sig);
        return;
    }
    g_signal_flag = sig;
}

/** RAII SIGINT/SIGTERM installation around one sweep. */
class SignalGuard
{
  public:
    explicit SignalGuard(bool install) : installed_(install)
    {
        if (!installed_)
            return;
        struct sigaction sa = {};
        sa.sa_handler = runnerSignalHandler;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, &oldInt_);
        ::sigaction(SIGTERM, &sa, &oldTerm_);
    }

    SignalGuard(const SignalGuard &) = delete;
    SignalGuard &operator=(const SignalGuard &) = delete;

    ~SignalGuard()
    {
        if (!installed_)
            return;
        ::sigaction(SIGINT, &oldInt_, nullptr);
        ::sigaction(SIGTERM, &oldTerm_, nullptr);
    }

  private:
    bool installed_;
    struct sigaction oldInt_ = {};
    struct sigaction oldTerm_ = {};
};

// ---------------------------------------------------------------------
// Task plan

/** One unit of isolated work: a contiguous scheme range.  The plan is
 *  computed over the FULL scheme list (deterministic in the scheme
 *  list and budget alone), then tasks are individually skipped when
 *  resumed or over budget, so the plan — and therefore results and
 *  checkpoints — never depends on thread count or interleaving. */
struct Task
{
    std::size_t first = 0;
    std::size_t last = 0;
    /** Position in the full plan (fault-injection ordinal). */
    std::size_t ordinal = 0;
    std::uint64_t stateBytes = 0;
};

std::vector<Task>
planTasks(const std::vector<SchemeSpec> &schemes, unsigned n_nodes,
          SweepKernel kernel, const MemBudget &budget)
{
    std::vector<Task> tasks;
    if (kernel == SweepKernel::Reference) {
        // Scheme-major oracle: one scheme per task, as ParallelSweep
        // dispatches it.
        tasks.reserve(schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i)
            tasks.push_back(
                {i, i + 1, i,
                 std::uint64_t(schemeStateWords(schemes[i], n_nodes)) *
                     8});
        return tasks;
    }
    // Event-major batches, additionally capped so one batch fits the
    // memory budget (planBatches still gives a lone oversized scheme
    // its own batch — admission skips it below).
    std::size_t max_words = std::size_t(4) << 20;
    if (!budget.unlimited())
        max_words = std::max<std::size_t>(
            1, std::min<std::uint64_t>(max_words,
                                       budget.totalBytes() / 8));
    auto ranges = planBatches(schemes, n_nodes, max_words);
    tasks.reserve(ranges.size());
    for (std::size_t b = 0; b < ranges.size(); ++b) {
        Task t{ranges[b].first, ranges[b].second, b, 0};
        for (std::size_t i = t.first; i < t.last; ++i)
            t.stateBytes +=
                std::uint64_t(schemeStateWords(schemes[i], n_nodes)) *
                8;
        tasks.push_back(t);
    }
    return tasks;
}

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Exception:
        return "exception";
      case FailureKind::Deadline:
        return "deadline";
      case FailureKind::MemBudget:
        return "mem-budget";
      case FailureKind::Quarantine:
        return "quarantine";
    }
    ccp_panic("bad FailureKind");
}

obs::Json
failuresJson(const std::vector<SchemeFailure> &failures)
{
    obs::Json arr = obs::Json::array();
    for (const auto &f : failures) {
        obs::Json row = obs::Json::object();
        row["scheme_index"] = obs::Json(std::uint64_t(f.schemeIndex));
        row["scheme"] = obs::Json(f.scheme);
        row["kind"] = obs::Json(failureKindName(f.kind));
        row["message"] = obs::Json(f.message);
        row["attempts"] = obs::Json(std::uint64_t(f.attempts));
        arr.append(std::move(row));
    }
    return arr;
}

bool
ResilientRunner::interruptRequested()
{
    return g_signal_flag != 0 ||
           g_drain_requested.load(std::memory_order_relaxed) != 0;
}

void
ResilientRunner::requestInterrupt()
{
    g_drain_requested.store(SIGINT, std::memory_order_relaxed);
}

ResilientOutcome
ResilientRunner::evaluate(const std::vector<trace::SharingTrace> &traces,
                          const std::vector<SchemeSpec> &schemes,
                          UpdateMode mode,
                          const obs::ProgressFn &progress)
{
    if (traces.empty())
        ccp_fatal("ResilientRunner: empty benchmark suite");
    if (schemes.empty())
        ccp_fatal("ResilientRunner: empty scheme list");
    const unsigned n_nodes = traces.front().nNodes();

    obs::StatsRegistry &parent = obs::StatsRegistry::current();

    ResilientOutcome outcome;
    outcome.results.resize(schemes.size());
    outcome.completed.assign(schemes.size(), 0);

    const bool checkpointing = !opts_.checkpointPath.empty();
    CheckpointKey key;
    std::string file;
    if (checkpointing) {
        key = makeCheckpointKey(traces, schemes, mode, opts_.kernel);
        file = checkpointFileName(opts_.checkpointPath, key);
        outcome.checkpointFile = file;
    }

    // Completed-scheme entries: seeded from the checkpoint on resume,
    // appended per finished task, snapshotted by every write.
    std::vector<CheckpointEntry> done;
    std::vector<std::uint8_t> resumed(schemes.size(), 0);
    if (checkpointing && opts_.resume) {
        CCP_TRACE_SPAN("ckpt", "ckpt.resume_load");
        std::vector<CheckpointEntry> loaded;
        CheckpointLoad status = loadCheckpoint(file, key, loaded);
        switch (status) {
          case CheckpointLoad::Ok:
            for (auto &e : loaded)
                resumed[e.schemeIndex] = 1;
            done = std::move(loaded);
            break;
          case CheckpointLoad::Missing:
            break;
          case CheckpointLoad::Invalid:
          case CheckpointLoad::KeyMismatch:
          case CheckpointLoad::UnsupportedKind:
            ++parent.counter("sweep.checkpoints_rejected");
            ccp_warn("checkpoint ", file, " rejected (",
                     checkpointLoadName(status),
                     "); rerunning from scratch");
            std::error_code ec;
            std::filesystem::remove(file, ec);
            break;
        }
    }

    const MemBudget budget(opts_.memBudgetBytes);
    auto plan = planTasks(schemes, n_nodes, opts_.kernel, budget);

    // Classify every task exactly once, in plan order, on this
    // thread: resumed, skipped over budget, or pending evaluation.
    // Only fully-checkpointed tasks resume; a partially covered batch
    // re-runs whole (its recomputed entries are bit-identical).
    std::vector<Task> pending;
    std::size_t initial_done = 0;
    for (const Task &t : plan) {
        bool all_resumed = true;
        for (std::size_t i = t.first; i < t.last; ++i)
            all_resumed = all_resumed && resumed[i];
        if (all_resumed) {
            for (std::size_t i = t.first; i < t.last; ++i)
                outcome.completed[i] = 1;
            outcome.schemesResumed += t.last - t.first;
            initial_done += t.last - t.first;
            ++parent.counter("sweep.batches_resumed");
            continue;
        }
        if (!budget.admit(t.ordinal, t.stateBytes)) {
            for (std::size_t i = t.first; i < t.last; ++i) {
                outcome.failures.push_back(
                    {i, formatScheme(schemes[i]),
                     FailureKind::MemBudget,
                     "predictor state " +
                         formatByteSize(
                             std::uint64_t(schemeStateWords(
                                 schemes[i], n_nodes)) *
                             8) +
                         " exceeds --mem-budget " +
                         formatByteSize(budget.totalBytes()),
                     0});
                ++parent.counter("sweep.schemes_skipped_mem");
            }
            ccp_warn("skipping ", t.last - t.first,
                     " scheme(s) over the memory budget (batch needs ",
                     formatByteSize(t.stateBytes), ", budget ",
                     formatByteSize(budget.totalBytes()), ")");
            initial_done += t.last - t.first;
            continue;
        }
        pending.push_back(t);
    }
    parent.counter("sweep.schemes_resumed") += outcome.schemesResumed;

    // Drop the per-trace payloads of entries whose schemes are only
    // partially resumed at the batch level — they re-run anyway and
    // would otherwise duplicate when their batch completes.
    // (done currently holds exactly the loaded entries; keep the ones
    // belonging to fully-resumed batches.)
    if (!done.empty()) {
        std::vector<CheckpointEntry> kept;
        kept.reserve(done.size());
        for (auto &e : done) {
            if (outcome.completed[e.schemeIndex]) {
                outcome.results[e.schemeIndex] = restoreSuiteResult(
                    schemes[e.schemeIndex], mode, traces, e.perTrace);
                kept.push_back(std::move(e));
            }
        }
        done = std::move(kept);
    }

    // A fresh sweep starts un-interrupted even when a previous one in
    // this process drained (multi-phase tools, tests); the guard only
    // installs handlers.
    g_signal_flag = 0;
    g_drain_requested.store(0);
    SignalGuard guard(opts_.handleSignals);

    ThreadPool pool(opts_.threads);
    std::vector<obs::StatsRegistry> shards(pool.threads());

    obs::ProgressMeter meter(schemes.size(), outcome.schemesResumed);
    std::atomic<std::size_t> terminal{initial_done};
    std::mutex progress_mutex;
    auto tick = [&](std::size_t count) {
        std::size_t now = terminal.fetch_add(count) + count;
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(meter.tick(now));
        }
    };
    if (progress && initial_done > 0) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        progress(meter.tick(initial_done));
    }

    // Guards `done`, `outcome.failures`, and checkpoint writes.
    std::mutex state_mutex;
    obs::Stopwatch since_checkpoint;
    auto writeCheckpointLocked = [&]() {
        if (!checkpointing)
            return;
        CCP_TRACE_SPAN_N("ckpt", "ckpt.write", done.size());
        obs::Stopwatch lat;
        if (saveCheckpoint(file, key, done)) {
            obs::StatsRegistry::current()
                .latency("sweep.checkpoint_write_latency_ns")
                .add(std::uint64_t(lat.elapsedSec() * 1e9));
            ++obs::StatsRegistry::current().counter(
                "sweep.checkpoints_written");
        } else {
            ccp_warn("cannot write checkpoint ", file);
        }
        since_checkpoint.reset();
    };

    // Liveness flush before any evaluation: a supervisor probing this
    // file for progress would otherwise see nothing at all until the
    // first batch lands — a blind spot a worker deadline can hit on a
    // loaded machine even though the worker is perfectly healthy.
    // (Also a progress event: the file appearing re-arms the probe.)
    if (checkpointing && opts_.initialLivenessFlush) {
        std::lock_guard<std::mutex> lock(state_mutex);
        writeCheckpointLocked();
    }

    pool.forEach(
        pending.size(),
        [&](std::size_t job, unsigned worker) {
            const Task &task = pending[job];
            obs::StatsRegistry &shard = shards[worker];
            obs::ScopedRegistry route(shard);

            if (fault::enabled() &&
                fault::fireAt("sweep.interrupt_at", task.ordinal))
                requestInterrupt();
            if (interruptRequested())
                return; // drain: leave unstarted tasks incomplete

            const std::size_t count = task.last - task.first;
            std::vector<SuiteResult> task_results;
            std::string error;
            unsigned attempts = 0;
            obs::Stopwatch batch_watch;
            for (unsigned attempt = 0; attempt <= opts_.maxRetries;
                 ++attempt) {
                ++attempts;
                try {
                    if (attempt == 0 && fault::enabled() &&
                        fault::fireAt("sweep.worker_throw",
                                      task.ordinal))
                        throw std::runtime_error(
                            "injected worker fault");
                    CCP_TRACE_SPAN_N("sweep", "sweep.batch", count);
                    obs::ScopedTimer timer(
                        shard, "sweep.batch_eval_seconds");
                    obs::Stopwatch lat;
                    if (opts_.kernel != SweepKernel::Reference) {
                        BatchEvaluator batch(
                            {schemes.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     task.first),
                             schemes.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     task.last)},
                            n_nodes);
                        task_results =
                            batch.evaluateSuite(traces, mode);
                    } else {
                        task_results.clear();
                        for (std::size_t i = task.first;
                             i < task.last; ++i)
                            task_results.push_back(evaluateSuite(
                                traces, schemes[i], mode));
                    }
                    shard.latency("sweep.batch_latency_ns")
                        .add(std::uint64_t(lat.elapsedSec() * 1e9));
                    error.clear();
                    break;
                } catch (const std::exception &e) {
                    error = e.what();
                } catch (...) {
                    error = "unknown exception";
                }
                if (attempt < opts_.maxRetries) {
                    ++shard.counter("sweep.batches_retried");
                    ccp_warn("batch ", task.ordinal, " failed (",
                             error, "); retrying");
                    double backoff = opts_.retryBackoffSec *
                                     double(1u << attempt);
                    if (backoff > 0)
                        std::this_thread::sleep_for(
                            std::chrono::duration<double>(backoff));
                }
            }

            if (!error.empty()) {
                // Final failure: contained — record and move on,
                // siblings unaffected.
                ++shard.counter("sweep.batches_failed");
                std::lock_guard<std::mutex> lock(state_mutex);
                for (std::size_t i = task.first; i < task.last; ++i)
                    outcome.failures.push_back(
                        {i, formatScheme(schemes[i]),
                         FailureKind::Exception, error, attempts});
                tick(count);
                return;
            }

            const double batch_sec = batch_watch.elapsedSec();
            for (std::size_t i = 0; i < count; ++i)
                outcome.results[task.first + i] =
                    std::move(task_results[i]);
            for (std::size_t i = task.first; i < task.last; ++i)
                outcome.completed[i] = 1;
            ++shard.counter("sweep.batches_evaluated");
            shard.counter("sweep.schemes_evaluated") += count;

            {
                std::lock_guard<std::mutex> lock(state_mutex);
                if (opts_.batchDeadlineSec > 0 &&
                    batch_sec > opts_.batchDeadlineSec) {
                    // Advisory: results are kept, the overrun is
                    // reported (a running batch is never preempted).
                    ++shard.counter("sweep.batches_overdeadline");
                    outcome.failures.push_back(
                        {task.first, formatScheme(schemes[task.first]),
                         FailureKind::Deadline,
                         "batch of " + std::to_string(count) +
                             " scheme(s) took " +
                             obs::formatDuration(batch_sec) +
                             " (deadline " +
                             obs::formatDuration(
                                 opts_.batchDeadlineSec) +
                             "); results kept",
                         attempts});
                }
                for (std::size_t i = task.first; i < task.last; ++i) {
                    CheckpointEntry e;
                    e.schemeIndex = i;
                    e.perTrace.reserve(traces.size());
                    for (const auto &tr : outcome.results[i].perTrace)
                        e.perTrace.push_back(tr.confusion);
                    done.push_back(std::move(e));
                }
                if (checkpointing &&
                    (opts_.checkpointIntervalSec <= 0 ||
                     since_checkpoint.elapsedSec() >=
                         opts_.checkpointIntervalSec))
                    writeCheckpointLocked();
            }
            tick(count);
        },
        1);

    for (const auto &shard : shards)
        parent.merge(shard);

    outcome.interrupted = interruptRequested();
    if (outcome.interrupted) {
        ++parent.counter("sweep.interrupted");
        ccp_warn("sweep interrupted — draining complete, ",
                 done.size(), "/", schemes.size(),
                 " schemes checkpointable");
    }

    if (checkpointing) {
        // Final flush: on interrupt this is the state --resume picks
        // up; on completion it leaves an idempotent-resume artifact.
        std::lock_guard<std::mutex> lock(state_mutex);
        obs::ScopedRegistry route(parent);
        writeCheckpointLocked();
    }

    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const SchemeFailure &a, const SchemeFailure &b) {
                  return a.schemeIndex < b.schemeIndex;
              });
    return outcome;
}

} // namespace ccp::sweep
