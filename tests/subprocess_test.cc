/**
 * @file
 * Tests for the one-shot child-process runner (common/subprocess.hh):
 * exit classification (clean / drained / failed / signaled), the
 * deadline with SIGTERM→SIGKILL escalation to the child's whole
 * process group, the liveness probe that
 * re-arms it, stderr tail capture and truncation, environment
 * overrides, stdout redirection, and structured spawn errors.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

#include "common/subprocess.hh"

namespace {

using namespace ccp;

SubprocessResult
runShell(const std::string &script,
         const std::function<void(SubprocessSpec &)> &tweak = {})
{
    SubprocessSpec spec;
    spec.argv = {"/bin/sh", "-c", script};
    if (tweak)
        tweak(spec);
    return runSubprocess(spec);
}

TEST(SubprocessTest, CleanExitIsClean)
{
    const auto res = runShell("exit 0");
    EXPECT_EQ(res.status, SubprocessStatus::Clean);
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_TRUE(res.stderrTail.empty());
}

TEST(SubprocessTest, NonzeroExitIsFailedWithTheCode)
{
    const auto res = runShell("exit 7");
    EXPECT_EQ(res.status, SubprocessStatus::Failed);
    EXPECT_EQ(res.exitCode, 7);
}

TEST(SubprocessTest, ExitSeventyFiveIsTheDrainConvention)
{
    const auto res = runShell("exit 75");
    EXPECT_EQ(res.status, SubprocessStatus::Drained);
    EXPECT_EQ(res.exitCode, 75);
}

TEST(SubprocessTest, ForeignSignalIsSignaledNotTimeout)
{
    const auto res = runShell("kill -USR2 $$");
    EXPECT_EQ(res.status, SubprocessStatus::Signaled);
    EXPECT_EQ(res.signalNo, SIGUSR2);
}

TEST(SubprocessTest, DeadlineTermsACooperativeChild)
{
    const auto res = runShell("sleep 30", [](SubprocessSpec &s) {
        s.deadlineSec = 0.3;
        s.termGraceSec = 5.0;
    });
    EXPECT_EQ(res.status, SubprocessStatus::Timeout);
    EXPECT_EQ(res.signalNo, SIGTERM);
    EXPECT_LT(res.wallSec, 10.0);
}

TEST(SubprocessTest, DeadlineEscalatesToKillWhenTermIsIgnored)
{
    // The child shields itself from SIGTERM; only the SIGKILL
    // escalation after termGraceSec can end it.
    const auto res =
        runShell("trap '' TERM; sleep 30", [](SubprocessSpec &s) {
            s.deadlineSec = 0.3;
            s.termGraceSec = 0.3;
        });
    EXPECT_EQ(res.status, SubprocessStatus::Timeout);
    EXPECT_EQ(res.signalNo, SIGKILL);
    EXPECT_LT(res.wallSec, 10.0);
}

/** True once @p pid has exited (gone, or a zombie awaiting its
 *  reaper). */
bool
processGone(pid_t pid)
{
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line))
        return true;
    // The state letter follows the parenthesised command name.
    const std::size_t rp = line.rfind(')');
    return rp != std::string::npos && rp + 2 < line.size() &&
           line[rp + 2] == 'Z';
}

TEST(SubprocessTest, DeadlineLeavesNoDescendantAlive)
{
    // The shell starts two background grandchildren, one that dies on
    // SIGTERM and one that ignores it, and prints their pids.  The
    // shell itself dies on the deadline's SIGTERM; neither grandchild
    // may outlive runSubprocess (orphaned, holding the stderr pipe).
    const auto res = runShell(
        "sleep 30 & echo $! >&2; "
        "(trap '' TERM; exec sleep 30) & echo $! >&2; wait",
        [](SubprocessSpec &s) {
            s.deadlineSec = 0.3;
            s.termGraceSec = 5.0;
        });
    EXPECT_EQ(res.status, SubprocessStatus::Timeout);
    EXPECT_EQ(res.signalNo, SIGTERM);
    EXPECT_LT(res.wallSec, 4.0);

    std::istringstream pids(res.stderrTail);
    std::vector<pid_t> descendants;
    for (long p; pids >> p;)
        descendants.push_back(static_cast<pid_t>(p));
    ASSERT_EQ(descendants.size(), 2u) << res.stderrTail;
    for (pid_t p : descendants) {
        // A SIGKILLed process may take a moment to be reaped.
        for (int i = 0; i < 200 && !processGone(p); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_TRUE(processGone(p)) << "descendant " << p << " survived";
    }
}

TEST(SubprocessTest, ProgressProbeReArmsTheDeadline)
{
    // The child outlives the 0.4 s deadline several times over, but a
    // probe that keeps reporting progress must keep it alive.
    const auto res = runShell("sleep 1", [](SubprocessSpec &s) {
        s.deadlineSec = 0.4;
        s.progressProbe = [] { return true; };
    });
    EXPECT_EQ(res.status, SubprocessStatus::Clean);
    EXPECT_GE(res.wallSec, 0.9);
}

TEST(SubprocessTest, StderrTailIsCaptured)
{
    const auto res = runShell("echo boom >&2; exit 3");
    EXPECT_EQ(res.status, SubprocessStatus::Failed);
    EXPECT_EQ(res.stderrTail, "boom\n");
}

TEST(SubprocessTest, StderrTailKeepsOnlyTheLastBytes)
{
    const auto res = runShell(
        "i=0; while [ $i -lt 200 ]; do echo line$i >&2; "
        "i=$((i+1)); done; echo LAST >&2; exit 1",
        [](SubprocessSpec &s) { s.stderrTailMax = 64; });
    EXPECT_EQ(res.status, SubprocessStatus::Failed);
    EXPECT_LE(res.stderrTail.size(), 64u);
    EXPECT_NE(res.stderrTail.find("LAST"), std::string::npos);
    EXPECT_EQ(res.stderrTail.find("line0\n"), std::string::npos);
}

TEST(SubprocessTest, EnvSetAndUnsetShapeTheChildEnvironment)
{
    ::setenv("CCP_SUBPROC_DROP", "present", 1);
    const auto res = runShell(
        "printf '%s|%s' \"$CCP_SUBPROC_ADD\" \"$CCP_SUBPROC_DROP\" "
        ">&2; exit 1",
        [](SubprocessSpec &s) {
            s.envSet.push_back({"CCP_SUBPROC_ADD", "added"});
            s.envUnset.push_back("CCP_SUBPROC_DROP");
        });
    ::unsetenv("CCP_SUBPROC_DROP");
    EXPECT_EQ(res.stderrTail, "added|");
}

TEST(SubprocessTest, StdoutRedirectionWritesTheFile)
{
    const std::string path =
        ::testing::TempDir() + "subproc_stdout.txt";
    std::remove(path.c_str());
    const auto res =
        runShell("echo to-file", [&](SubprocessSpec &s) {
            s.stdoutPath = path;
        });
    EXPECT_EQ(res.status, SubprocessStatus::Clean);
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "to-file");
    std::remove(path.c_str());
}

TEST(SubprocessTest, MissingBinaryIsAStructuredSpawnError)
{
    SubprocessSpec spec;
    spec.argv = {"/nonexistent/ccp-no-such-binary"};
    const auto res = runSubprocess(spec);
    EXPECT_EQ(res.status, SubprocessStatus::SpawnError);
    EXPECT_FALSE(res.spawnError.empty());
}

} // namespace
