#include "common/subprocess.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/io.hh"
#include "common/logging.hh"

extern char **environ;

namespace ccp {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The child's environment: the parent's, minus envUnset and any name
 *  envSet replaces, plus the envSet pairs.  Built before fork() so the
 *  child touches no heap. */
std::vector<std::string>
buildEnvStrings(const SubprocessSpec &spec)
{
    auto removed = [&spec](const char *entry) {
        const char *eq = std::strchr(entry, '=');
        const std::size_t name_len =
            eq ? static_cast<std::size_t>(eq - entry)
               : std::strlen(entry);
        auto matches = [&](const std::string &name) {
            return name.size() == name_len &&
                   std::memcmp(name.data(), entry, name_len) == 0;
        };
        for (const auto &name : spec.envUnset)
            if (matches(name))
                return true;
        for (const auto &kv : spec.envSet)
            if (matches(kv.first))
                return true;
        return false;
    };

    std::vector<std::string> env;
    for (char **e = environ; e && *e; ++e)
        if (!removed(*e))
            env.emplace_back(*e);
    for (const auto &kv : spec.envSet)
        env.push_back(kv.first + "=" + kv.second);
    return env;
}

std::vector<char *>
pointerVector(std::vector<std::string> &strings)
{
    std::vector<char *> ptrs;
    ptrs.reserve(strings.size() + 1);
    for (auto &s : strings)
        ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    return ptrs;
}

void
appendTail(std::string &tail, const char *data, std::size_t n,
           std::size_t max)
{
    tail.append(data, n);
    if (tail.size() > max)
        tail.erase(0, tail.size() - max);
}

} // namespace

const char *
subprocessStatusName(SubprocessStatus status)
{
    switch (status) {
      case SubprocessStatus::Clean:
        return "clean";
      case SubprocessStatus::Drained:
        return "drained";
      case SubprocessStatus::Failed:
        return "failed";
      case SubprocessStatus::Signaled:
        return "signaled";
      case SubprocessStatus::Timeout:
        return "timeout";
      case SubprocessStatus::SpawnError:
        return "spawn-error";
    }
    ccp_panic("bad SubprocessStatus");
}

SubprocessResult
runSubprocess(const SubprocessSpec &spec)
{
    SubprocessResult res;
    if (spec.argv.empty()) {
        res.spawnError = "empty argv";
        return res;
    }

    // Everything the child needs, flattened pre-fork (see file
    // comment: the fork/exec gap must not allocate).
    std::vector<std::string> argv_store = spec.argv;
    std::vector<char *> argv = pointerVector(argv_store);
    std::vector<std::string> env_store = buildEnvStrings(spec);
    std::vector<char *> envp = pointerVector(env_store);

    // stderr capture pipe + the exec-status self-pipe.  Both CLOEXEC:
    // a successful execve closes the status write end, turning the
    // parent's read into a clean EOF; an exec failure writes errno
    // through it first.
    int err_pipe[2] = {-1, -1};
    int status_pipe[2] = {-1, -1};
    if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
        res.spawnError = std::string("pipe2: ") + std::strerror(errno);
        return res;
    }
    if (::pipe2(status_pipe, O_CLOEXEC) != 0) {
        res.spawnError = std::string("pipe2: ") + std::strerror(errno);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        return res;
    }

    int out_fd = -1;
    if (!spec.stdoutPath.empty()) {
        out_fd = io::openRetry(spec.stdoutPath.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                               0644);
        if (out_fd < 0) {
            res.spawnError = "cannot open stdout redirect " +
                             spec.stdoutPath + ": " +
                             std::strerror(errno);
            ::close(err_pipe[0]);
            ::close(err_pipe[1]);
            ::close(status_pipe[0]);
            ::close(status_pipe[1]);
            return res;
        }
    }

    const Clock::time_point start = Clock::now();
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        res.spawnError = std::string("fork: ") + std::strerror(errno);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        ::close(status_pipe[0]);
        ::close(status_pipe[1]);
        if (out_fd >= 0)
            ::close(out_fd);
        return res;
    }

    if (pid == 0) {
        // Child: only async-signal-safe calls from here to execve.
        ::setpgid(0, 0);
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(127); // the supervisor died before prctl
        while (::dup2(err_pipe[1], 2) < 0 && errno == EINTR) {
        }
        if (out_fd >= 0)
            while (::dup2(out_fd, 1) < 0 && errno == EINTR) {
            }
        ::execve(argv[0], argv.data(), envp.data());
        const int err = errno;
        (void)!io::writeFull(status_pipe[1], &err, sizeof(err));
        ::_exit(127);
    }

    // Parent.  Set the group here too, so it exists before any
    // deadline signal whichever side runs first.
    ::setpgid(pid, pid);
    ::close(err_pipe[1]);
    ::close(status_pipe[1]);
    if (out_fd >= 0)
        ::close(out_fd);
    int err_fd = err_pipe[0];
    const int status_fd = status_pipe[0];

    const int poll_ms = std::max(
        1, static_cast<int>(spec.pollIntervalSec * 1000.0));

    // Deadline state machine: armed → SIGTERM at expiry → SIGKILL
    // after the grace period.  progressProbe re-arms.
    Clock::time_point armed_at = start;
    bool sent_term = false;
    bool sent_kill = false;
    bool timed_out = false;
    Clock::time_point term_at;

    int wstatus = 0;
    bool reaped = false;
    char buf[1024];
    while (!reaped) {
        // Sleep on stderr output (or plain sleep once it hit EOF).
        if (err_fd >= 0) {
            struct pollfd pfd = {err_fd, POLLIN, 0};
            int pr = ::poll(&pfd, 1, poll_ms);
            if (pr > 0) {
                ssize_t n = ::read(err_fd, buf, sizeof(buf));
                if (n > 0) {
                    appendTail(res.stderrTail, buf,
                               static_cast<std::size_t>(n),
                               spec.stderrTailMax);
                } else if (n == 0 ||
                           (n < 0 && errno != EINTR &&
                            errno != EAGAIN)) {
                    ::close(err_fd);
                    err_fd = -1;
                }
            }
        } else {
            ::poll(nullptr, 0, poll_ms);
        }

        pid_t w;
        while ((w = ::waitpid(pid, &wstatus, WNOHANG)) < 0 &&
               errno == EINTR) {
        }
        if (w == pid) {
            reaped = true;
            break;
        }

        if (spec.progressProbe && spec.progressProbe())
            armed_at = Clock::now();

        if (spec.deadlineSec > 0 && !sent_term &&
            secondsSince(armed_at) > spec.deadlineSec) {
            ::kill(-pid, SIGTERM);
            sent_term = true;
            timed_out = true;
            term_at = Clock::now();
        }
        if (sent_term && !sent_kill &&
            secondsSince(term_at) > spec.termGraceSec) {
            ::kill(-pid, SIGKILL);
            sent_kill = true;
        }
    }

    // A descendant that shrugged off the SIGTERM the child died of
    // must not outlive the deadline either.
    if (timed_out)
        ::kill(-pid, SIGKILL);

    // Drain whatever stderr remains buffered in the pipe.  Non-blocking
    // on purpose: an orphaned grandchild (a killed shell's `sleep`, a
    // worker's helper) can inherit the write end and hold the pipe open
    // long after the child we reaped is gone — a blocking read here
    // would wedge the supervisor for as long as that orphan lives.
    if (err_fd >= 0)
        (void)::fcntl(err_fd, F_SETFL, O_NONBLOCK);
    while (err_fd >= 0) {
        ssize_t n = ::read(err_fd, buf, sizeof(buf));
        if (n > 0) {
            appendTail(res.stderrTail, buf,
                       static_cast<std::size_t>(n),
                       spec.stderrTailMax);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        ::close(err_fd);
        err_fd = -1;
    }

    res.wallSec = secondsSince(start);

    // An errno on the status pipe means execve never happened.
    int exec_errno = 0;
    ssize_t sn = io::readFull(status_fd, &exec_errno,
                              sizeof(exec_errno));
    ::close(status_fd);
    if (sn == static_cast<ssize_t>(sizeof(exec_errno))) {
        res.status = SubprocessStatus::SpawnError;
        res.spawnError = "execve " + spec.argv[0] + ": " +
                         std::strerror(exec_errno);
        return res;
    }

    if (WIFSIGNALED(wstatus)) {
        res.signalNo = WTERMSIG(wstatus);
        res.status = timed_out ? SubprocessStatus::Timeout
                               : SubprocessStatus::Signaled;
        return res;
    }
    if (WIFEXITED(wstatus)) {
        res.exitCode = WEXITSTATUS(wstatus);
        if (timed_out) {
            // SIGTERM landed and the child drained to an exit; still
            // a deadline overrun from the supervisor's point of view.
            res.status = SubprocessStatus::Timeout;
        } else if (res.exitCode == 0) {
            res.status = SubprocessStatus::Clean;
        } else if (res.exitCode == 75) {
            res.status = SubprocessStatus::Drained;
        } else {
            res.status = SubprocessStatus::Failed;
        }
        return res;
    }
    res.status = SubprocessStatus::Failed;
    res.spawnError = "unrecognized wait status";
    return res;
}

} // namespace ccp
