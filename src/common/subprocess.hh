/**
 * @file
 * One-shot child-process runner for the shard supervisor.
 *
 * The sweep orchestrator (sweep/orchestrator.hh) re-invokes the bench
 * binary once per shard and must survive everything a child can do to
 * it: crash, hang, drain on SIGTERM, scribble on stderr, or die before
 * exec.  This wrapper owns the full lifecycle of one child —
 * fork/execve, a stderr capture pipe, an optional per-child deadline
 * with SIGTERM→SIGKILL escalation, and EINTR-safe waiting — and
 * reduces the outcome to a small classification the supervisor's
 * retry policy can switch on:
 *
 *   Clean       exit 0
 *   Drained     exit 75 (EX_TEMPFAIL — the ResilientRunner drain
 *               convention: state checkpointed, rerun with --resume)
 *   Failed      any other exit code
 *   Signaled    killed by a signal the supervisor did not send
 *   Timeout     deadline expired; we escalated SIGTERM→SIGKILL
 *   SpawnError  fork or execve itself failed (child never ran)
 *
 * The fork/exec gap is async-signal-safe: argv and the environment
 * are flattened to char* arrays *before* fork(), so the child calls
 * only setpgid/prctl/dup2/execve/_exit — no allocation, no locks — which
 * matters because the supervisor forks from ThreadPool workers and a
 * post-fork malloc in the child can deadlock on another thread's
 * heap lock.  exec failure is reported through a CLOEXEC status pipe
 * (the self-pipe trick), so "binary not found" is a structured
 * SpawnError, not a mystery exit 127.
 *
 * Each child leads its own process group, and the deadline signals
 * the whole group, so a shell's `sleep` or a worker's helper dies
 * with it instead of outliving the deadline (and holding the stderr
 * pipe).  Once the deadline fired, whatever is left of the group is
 * SIGKILLed after the child is reaped.  Leaving the supervisor's
 * group also leaves its terminal's Ctrl-C, so the child asks for
 * SIGTERM when the supervisor dies (PR_SET_PDEATHSIG): a killed
 * supervisor still drains its workers.
 *
 * Liveness is the caller's to define: @ref SubprocessSpec::progressProbe
 * is polled between waits, and any poll that returns true re-arms the
 * deadline.  The orchestrator points it at the child's shard
 * checkpoint file, so a slow-but-advancing worker is never shot while
 * a genuinely wedged one still dies on schedule.
 */

#ifndef CCP_COMMON_SUBPROCESS_HH
#define CCP_COMMON_SUBPROCESS_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace ccp {

struct SubprocessSpec
{
    /** Program + arguments; argv[0] is the path passed to execve. */
    std::vector<std::string> argv;

    /** Environment overrides applied on top of the parent's
     *  environment (set or replace, applied after envUnset). */
    std::vector<std::pair<std::string, std::string>> envSet;
    /** Variable names removed from the child's environment. */
    std::vector<std::string> envUnset;

    /** Redirect the child's stdout here (e.g. "/dev/null"); empty =
     *  inherit.  stderr is always captured into the tail buffer. */
    std::string stdoutPath;

    /** Wall-clock deadline in seconds; 0 = none.  Re-armed whenever
     *  progressProbe reports progress. */
    double deadlineSec = 0.0;
    /** Seconds between SIGTERM and the SIGKILL escalation. */
    double termGraceSec = 2.0;
    /** Liveness/deadline poll granularity. */
    double pollIntervalSec = 0.05;

    /** Last-N-bytes stderr window kept for failure reports. */
    std::size_t stderrTailMax = 4096;

    /** Optional liveness probe, polled roughly every
     *  pollIntervalSec; returning true re-arms the deadline. */
    std::function<bool()> progressProbe;
};

enum class SubprocessStatus : unsigned char
{
    Clean,
    Drained,
    Failed,
    Signaled,
    Timeout,
    SpawnError,
};

const char *subprocessStatusName(SubprocessStatus status);

struct SubprocessResult
{
    SubprocessStatus status = SubprocessStatus::SpawnError;
    /** Exit code when the child exited (Clean/Drained/Failed). */
    int exitCode = -1;
    /** Terminating signal for Signaled/Timeout. */
    int signalNo = 0;
    double wallSec = 0.0;
    /** The last stderrTailMax bytes the child wrote to stderr. */
    std::string stderrTail;
    /** Human-readable cause when status == SpawnError. */
    std::string spawnError;
};

/** Run one child to completion (or deadline) per @p spec.  Blocks. */
SubprocessResult runSubprocess(const SubprocessSpec &spec);

} // namespace ccp

#endif // CCP_COMMON_SUBPROCESS_HH
