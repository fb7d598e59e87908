#include "sweep/orchestrator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "sweep/name.hh"

namespace ccp::sweep {

namespace {

/** The injected faults that must fire at most once per
 *  *orchestration*: every worker re-reads CCP_FAULT_INJECT, so
 *  without stripping, a retry of the faulted shard would re-kill /
 *  re-hang / re-tear itself forever.  shard.worker_fail is absent on
 *  purpose — it is the persistent fault quarantine is tested with. */
constexpr const char *oneShotPoints[] = {
    "shard.worker_kill",
    "shard.worker_hang",
    "shard.torn_checkpoint",
};

/** @p spec with the one-shot shard clauses removed (textually — the
 *  child re-parses whatever remains). */
std::string
stripOneShotFaults(const std::string &spec)
{
    std::string out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string clause = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty())
            continue;
        bool one_shot = false;
        for (const char *point : oneShotPoints)
            if (clause.rfind(std::string(point) + "=", 0) == 0)
                one_shot = true;
        if (!one_shot) {
            if (!out.empty())
                out += ',';
            out += clause;
        }
        if (comma == spec.size())
            break;
    }
    return out;
}

/** Checkpoint-file liveness probe state: any growth or mtime movement
 *  since the last poll counts as progress and re-arms the deadline. */
struct FileProgress
{
    std::uintmax_t size = 0;
    std::filesystem::file_time_type mtime{};

    bool
    poll(const std::string &path)
    {
        std::error_code ec;
        const std::uintmax_t sz = std::filesystem::file_size(path, ec);
        if (ec)
            return false;
        const auto mt = std::filesystem::last_write_time(path, ec);
        if (ec)
            return false;
        if (sz != size || mt != mtime) {
            size = sz;
            mtime = mt;
            return true;
        }
        return false;
    }
};

} // namespace

obs::Json
orchestratorJson(const std::vector<ShardRunReport> &reports)
{
    obs::Json arr = obs::Json::array();
    for (const auto &r : reports) {
        obs::Json row = obs::Json::object();
        row["shard"] = obs::Json(std::uint64_t(r.shard));
        row["attempts"] = obs::Json(std::uint64_t(r.attempts));
        row["quarantined"] = obs::Json(r.quarantined);
        row["schemes_total"] =
            obs::Json(std::uint64_t(r.schemesTotal));
        row["schemes_done"] = obs::Json(std::uint64_t(r.schemesDone));
        row["last_status"] = obs::Json(r.lastStatus);
        row["last_exit_code"] = obs::Json(r.lastExitCode);
        row["last_signal"] = obs::Json(r.lastSignal);
        row["stderr_tail"] = obs::Json(r.stderrTail);
        row["checkpoint_file"] = obs::Json(r.checkpointFile);
        arr.append(std::move(row));
    }
    return arr;
}

OrchestratorOutcome
orchestrateSweep(const OrchestratorOptions &opts,
                 const std::vector<trace::SharingTrace> &traces,
                 const std::vector<predict::SchemeSpec> &schemes,
                 predict::UpdateMode mode, SweepKernel kernel,
                 const obs::ProgressFn &progress)
{
    if (opts.workerArgv.empty())
        ccp_fatal("orchestrateSweep: empty worker command");
    if (opts.checkpointBase.empty())
        ccp_fatal("orchestrateSweep: checkpoint base required (shard "
                  "checkpoints are the exchange format)");
    if (opts.shards < 1)
        ccp_fatal("orchestrateSweep: need at least one shard");
    const unsigned max_attempts = std::max(1u, opts.maxAttempts);

    // Fail fast on an unwritable checkpoint location: every worker
    // would otherwise run its full shard, fail the final write, and
    // burn max_attempts before quarantine reports the real cause.
    const std::filesystem::path ckpt_dir =
        std::filesystem::path(opts.checkpointBase).parent_path();
    if (!ckpt_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(ckpt_dir, ec);
        if (ec)
            ccp_fatal("orchestrateSweep: cannot create checkpoint "
                      "directory ", ckpt_dir.string(), ": ",
                      ec.message());
    }

    obs::StatsRegistry &reg = obs::StatsRegistry::current();
    const ShardPlan plan = planShards(schemes, opts.shards);

    // The parent's fault spec, forwarded verbatim on first attempts
    // and with one-shot shard points stripped on retries.
    const char *fault_env = std::getenv("CCP_FAULT_INJECT");
    const std::string fault_spec = fault_env ? fault_env : "";
    const std::string fault_spec_stripped =
        stripOneShotFaults(fault_spec);

    OrchestratorOutcome out;
    out.shardReports.resize(opts.shards);

    obs::ProgressMeter meter(schemes.size(), 0);
    std::atomic<std::size_t> terminal{0};
    std::atomic<bool> interrupted{false};
    std::mutex mutex; // guards progress callback, counters, warns

    auto tick = [&](std::size_t count) {
        const std::size_t now = terminal.fetch_add(count) + count;
        if (progress) {
            std::lock_guard<std::mutex> lock(mutex);
            progress(meter.tick(now));
        }
    };

    // One supervision job per shard, W at a time.  Each job owns its
    // shard start-to-finish: launch, verify the checkpoint, retry
    // with backoff, quarantine.
    ThreadPool pool(std::max(1u, opts.workers));
    pool.forEach(
        opts.shards,
        [&](std::size_t job, unsigned) {
            const unsigned shard = static_cast<unsigned>(job);
            ShardRunReport &report = out.shardReports[shard];
            report.shard = shard;
            report.schemesTotal = plan.byShard[shard].size();

            if (plan.byShard[shard].empty()) {
                report.lastStatus = "empty-shard";
                return;
            }

            const CheckpointKey key = shardCheckpointKey(
                traces, schemes, plan, shard, mode, kernel);
            const std::string file =
                checkpointFileName(opts.checkpointBase, key);
            report.checkpointFile = file;

            // "Done" means the supervisor itself can load a valid,
            // complete shard checkpoint — a worker's exit code is
            // evidence, not proof (it may sit in front of a torn
            // file).
            auto shardComplete = [&](std::size_t &done_out) {
                std::vector<CheckpointEntry> entries;
                const CheckpointLoad load =
                    loadCheckpoint(file, key, entries);
                done_out =
                    load == CheckpointLoad::Ok ? entries.size() : 0;
                return load == CheckpointLoad::Ok &&
                       entries.size() == plan.byShard[shard].size();
            };

            double backoff = opts.retryBackoffSec;
            for (unsigned attempt = 1; attempt <= max_attempts;
                 ++attempt) {
                if (interrupted.load())
                    break;

                std::size_t done = 0;
                if (shardComplete(done)) {
                    // Already complete (an earlier orchestration, or
                    // a previous attempt that died after its final
                    // flush).
                    report.schemesDone = done;
                    report.lastStatus = "complete";
                    report.stderrTail.clear();
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ++reg.counter("orch.shards_completed");
                    }
                    tick(done);
                    return;
                }

                report.attempts = attempt;
                SubprocessSpec spec;
                spec.argv = opts.workerArgv;
                spec.argv.insert(
                    spec.argv.end(),
                    {"--shards", std::to_string(opts.shards),
                     "--shard-id", std::to_string(shard), "--resume"});
                // Workers print no table; their stdout is noise that
                // would corrupt the supervisor's byte-comparable
                // output if inherited.
                spec.stdoutPath = "/dev/null";
                spec.deadlineSec = opts.workerDeadlineSec;
                spec.termGraceSec = opts.termGraceSec;
                if (attempt > 1 && !fault_spec.empty()) {
                    if (fault_spec_stripped.empty())
                        spec.envUnset.push_back("CCP_FAULT_INJECT");
                    else
                        spec.envSet.push_back(
                            {"CCP_FAULT_INJECT",
                             fault_spec_stripped});
                }
                // A --log override only lives in this process;
                // propagate it so workers log at the same level.
                spec.envSet.push_back(
                    {"CCP_LOG", logLevelName(logLevel())});
                FileProgress fp;
                fp.poll(file); // baseline, result irrelevant
                spec.progressProbe = [&fp, &file]() {
                    return fp.poll(file);
                };

                {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++reg.counter("orch.workers_spawned");
                    if (attempt > 1)
                        ++reg.counter("orch.worker_retries");
                }
                const SubprocessResult res = runSubprocess(spec);

                report.lastStatus = subprocessStatusName(res.status);
                report.lastExitCode = res.exitCode;
                report.lastSignal = res.signalNo;
                report.stderrTail = res.stderrTail;

                if (res.status == SubprocessStatus::Timeout) {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++reg.counter("orch.workers_timeout");
                }

                if (shardComplete(done)) {
                    report.schemesDone = done;
                    report.lastStatus = "complete";
                    report.stderrTail.clear();
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ++reg.counter("orch.shards_completed");
                    }
                    tick(done);
                    return;
                }

                if (res.status == SubprocessStatus::Drained) {
                    // The worker drained on a signal the supervisor
                    // did not send (an operator's SIGTERM): stop the
                    // fleet, keep the partial state.
                    interrupted.store(true);
                    std::lock_guard<std::mutex> lock(mutex);
                    ccp_warn("shard ", shard,
                             " drained (exit 75); stopping "
                             "orchestration — rerun to resume");
                    break;
                }

                if (attempt < max_attempts) {
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ccp_warn("shard ", shard, " attempt ",
                                 attempt, " ", report.lastStatus,
                                 " (", done, "/",
                                 plan.byShard[shard].size(),
                                 " schemes checkpointed); retrying "
                                 "with --resume");
                    }
                    if (backoff > 0)
                        std::this_thread::sleep_for(
                            std::chrono::duration<double>(backoff));
                    backoff *= 2;
                }
            }

            // Out of attempts (or interrupted): recover what the
            // partial checkpoint holds; the rest is quarantined by
            // the merge below.
            std::size_t done = 0;
            shardComplete(done);
            report.schemesDone = done;
            if (!interrupted.load()) {
                report.quarantined = true;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++reg.counter("orch.shards_quarantined");
                    ccp_warn("shard ", shard, " quarantined after ",
                             report.attempts, " attempt(s): last ",
                             report.lastStatus, ", ", done, "/",
                             plan.byShard[shard].size(),
                             " schemes recovered");
                }
                // Quarantined schemes are terminal too (failures),
                // so the progress line still reaches 100%.
                tick(plan.byShard[shard].size());
            } else {
                tick(done);
            }
        },
        1);

    // Fold the shard files into global scheme space and restore
    // results through the same path --resume uses.
    ShardMerge merge = mergeShardCheckpoints(
        opts.checkpointBase, traces, schemes, mode, kernel,
        opts.shards);

    ResilientOutcome &oc = out.outcome;
    oc.results.resize(schemes.size());
    oc.completed = merge.completed;
    oc.interrupted = interrupted.load();
    for (const auto &e : merge.entries)
        oc.results[e.schemeIndex] = restoreSuiteResult(
            schemes[e.schemeIndex], mode, traces, e.perTrace);
    reg.counter("orch.schemes_recovered") += merge.entries.size();

    // Every scheme a quarantined shard failed to cover becomes a
    // structured failure the ranking masks — partial results with an
    // explicit report, never silent loss.  An interrupted run is not
    // quarantine: its missing schemes are simply not done yet.
    if (!oc.interrupted) {
        for (const auto &report : out.shardReports) {
            if (!report.quarantined)
                continue;
            std::string cause =
                "shard " + std::to_string(report.shard) +
                " quarantined after " +
                std::to_string(report.attempts) +
                " attempt(s); last attempt " + report.lastStatus;
            if (report.lastExitCode > 0)
                cause += " (exit " +
                         std::to_string(report.lastExitCode) + ")";
            if (report.lastSignal > 0)
                cause += " (signal " +
                         std::to_string(report.lastSignal) + ")";
            if (!report.stderrTail.empty()) {
                // Last line of the tail — enough to name the cause
                // without dumping a whole log into every failure row.
                std::string tail = report.stderrTail;
                while (!tail.empty() && tail.back() == '\n')
                    tail.pop_back();
                const std::size_t nl = tail.find_last_of('\n');
                if (nl != std::string::npos)
                    tail = tail.substr(nl + 1);
                cause += ": " + tail;
            }
            for (std::size_t gi : plan.byShard[report.shard])
                if (!merge.completed[gi])
                    oc.failures.push_back(
                        {gi, formatScheme(schemes[gi]),
                         FailureKind::Quarantine, cause,
                         report.attempts});
        }
    }
    std::sort(oc.failures.begin(), oc.failures.end(),
              [](const SchemeFailure &a, const SchemeFailure &b) {
                  return a.schemeIndex < b.schemeIndex;
              });

    // Leave a merged full-sweep checkpoint under the same base: a
    // later single-process --resume (or a re-orchestration after
    // widening the space) picks up the fleet's work directly.
    const CheckpointKey full_key =
        makeCheckpointKey(traces, schemes, mode, kernel);
    oc.checkpointFile =
        checkpointFileName(opts.checkpointBase, full_key);
    if (!saveCheckpoint(oc.checkpointFile, full_key, merge.entries))
        ccp_warn("cannot write merged checkpoint ",
                 oc.checkpointFile);

    return out;
}

} // namespace ccp::sweep
