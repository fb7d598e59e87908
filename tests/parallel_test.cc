/**
 * @file
 * Tests for the parallel sweep engine: the ThreadPool execution
 * primitive, sequential-vs-parallel equivalence of the scheme sweeps
 * (identical Confusion counts and identical ranked order at 1, 2,
 * and 8 threads), and exactness of the sharded stats-registry merge.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/search.hh"
#include "sweep/space.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    EXPECT_GE(ThreadPool(0).threads(), 1u);
}

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    const std::size_t n = 257; // deliberately not a chunk multiple
    std::vector<std::atomic<int>> hits(n);
    pool.forEach(n, [&](std::size_t job, unsigned worker) {
        EXPECT_LT(worker, 4u);
        hits[job].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(ThreadPool, EmptyJobListIsANoOp)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.forEach(0, [&](std::size_t, unsigned) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ManyMoreJobsThanWorkers)
{
    ThreadPool pool(2);
    const std::size_t n = 10000;
    std::atomic<std::size_t> sum{0};
    pool.forEach(n, [&](std::size_t job, unsigned) { sum += job; });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    const auto caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.forEach(5, [&](std::size_t, unsigned worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 5u);
}

TEST(ThreadPool, PropagatesJobExceptions)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        EXPECT_THROW(
            pool.forEach(100,
                         [&](std::size_t job, unsigned) {
                             if (job == 42)
                                 throw std::runtime_error("boom");
                         }),
            std::runtime_error)
            << threads << " threads";

        // The pool must stay usable after a failed loop.
        std::atomic<int> calls{0};
        pool.forEach(10, [&](std::size_t, unsigned) { ++calls; });
        EXPECT_EQ(calls.load(), 10);
    }
}

TEST(ThreadPool, ExceptionCancelsUnclaimedJobs)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    EXPECT_THROW(pool.forEach(100000,
                              [&](std::size_t, unsigned) {
                                  ++calls;
                                  throw std::runtime_error("boom");
                              },
                              1),
                 std::runtime_error);
    // Each worker can fail at most one chunk; the rest are cancelled.
    EXPECT_LE(calls.load(), 2);
}

// The exception-propagation contract documented on forEach() —
// regression tests for what the resilient sweep runner relies on.

TEST(ThreadPool, FirstExceptionWinsWhenEveryJobThrows)
{
    // Every job throws its own index; exactly ONE escapes per loop and
    // it is one of the thrown values, never a mangled or second one.
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> thrown{0};
        bool caught = false;
        try {
            pool.forEach(
                64,
                [&](std::size_t job, unsigned) {
                    ++thrown;
                    throw std::size_t(job);
                },
                1);
        } catch (std::size_t job) {
            caught = true;
            EXPECT_LT(job, 64u);
        }
        EXPECT_TRUE(caught) << "round " << round;
        EXPECT_GE(thrown.load(), 1);
    }
}

TEST(ThreadPool, JobsAreNeverTornMidFlight)
{
    // Contract point 2: in-flight chunks on other workers run to
    // completion — every started job finishes even when a sibling
    // throws, so started == finished after the rethrow.
    ThreadPool pool(4);
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.forEach(1000,
                              [&](std::size_t job, unsigned) {
                                  ++started;
                                  if (job == 7)
                                      throw std::runtime_error("boom");
                                  ++finished;
                              },
                              1),
                 std::runtime_error);
    // The thrower "finishes" by throwing; everyone else must have
    // completed its body before forEach returned.
    EXPECT_EQ(started.load(), finished.load() + 1);
}

TEST(ThreadPool, ErrorLatchResetsBetweenLoops)
{
    // Contract point 4: a failed loop must not poison later ones —
    // alternate failing and clean loops on one pool.
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        EXPECT_THROW(pool.forEach(50,
                                  [&](std::size_t job, unsigned) {
                                      if (job % 10 == 3)
                                          throw std::runtime_error("x");
                                  },
                                  1),
                     std::runtime_error)
            << "round " << round;

        std::atomic<int> calls{0};
        pool.forEach(50, [&](std::size_t, unsigned) { ++calls; });
        EXPECT_EQ(calls.load(), 50) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Sequential-vs-parallel sweep equivalence

/** A trace with learnable structure plus noise, so different schemes
 *  produce genuinely different confusion counts. */
trace::SharingTrace
noisyTrace(const char *name, std::uint64_t seed)
{
    trace::SharingTrace tr(name, 16);
    trace::CoherenceEvent prev_by_block[32];
    bool seen[32] = {};
    Rng rng(seed);
    for (int i = 0; i < 1500; ++i) {
        unsigned k = static_cast<unsigned>(rng.below(32));
        trace::CoherenceEvent ev;
        ev.pid = static_cast<NodeId>(k % 16);
        ev.pc = 0x400 + 4 * (k % 8);
        ev.block = k;
        ev.dir = k % 16;
        ev.readers = SharingBitmap::single((k + 1) % 16);
        if (rng.below(4) == 0) // noise: an extra, unstable reader
            ev.readers.set(static_cast<NodeId>(rng.below(16)));
        if (seen[k]) {
            ev.invalidated = prev_by_block[k].readers;
            ev.prevWriterPid = prev_by_block[k].pid;
            ev.prevWriterPc = prev_by_block[k].pc;
            ev.hasPrevWriter = true;
        }
        seen[k] = true;
        prev_by_block[k] = ev;
        tr.append(ev);
    }
    return tr;
}

std::vector<trace::SharingTrace>
smallSuite()
{
    std::vector<trace::SharingTrace> suite;
    suite.push_back(noisyTrace("alpha", 7));
    suite.push_back(noisyTrace("beta", 23));
    return suite;
}

std::vector<SchemeSpec>
smallSpace()
{
    sweep::SpaceSpec spec;
    spec.maxBits = std::uint64_t(1) << 12;
    spec.pcBitsGrid = {0, 2, 4};
    spec.addrBitsGrid = {0, 2, 4};
    spec.pasDepths = {1};
    return enumerateSchemes(spec);
}

void
expectSameConfusion(const Confusion &a, const Confusion &b,
                    const std::string &what)
{
    EXPECT_EQ(a.tp, b.tp) << what;
    EXPECT_EQ(a.fp, b.fp) << what;
    EXPECT_EQ(a.tn, b.tn) << what;
    EXPECT_EQ(a.fn, b.fn) << what;
}

TEST(ParallelSweep, EvaluationMatchesSequentialAtAnyThreadCount)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    ASSERT_GE(schemes.size(), 20u);

    auto sequential = sweep::evaluateSchemes(suite, schemes,
                                             UpdateMode::Forwarded, 1);
    for (unsigned threads : {2u, 8u}) {
        auto parallel = sweep::evaluateSchemes(
            suite, schemes, UpdateMode::Forwarded, threads);
        ASSERT_EQ(parallel.size(), sequential.size());
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            const std::string what = sweep::formatScheme(schemes[i]) +
                                     " @" + std::to_string(threads);
            EXPECT_EQ(parallel[i].scheme, sequential[i].scheme);
            expectSameConfusion(parallel[i].pooled,
                                sequential[i].pooled, what);
            ASSERT_EQ(parallel[i].perTrace.size(),
                      sequential[i].perTrace.size());
            for (std::size_t t = 0; t < parallel[i].perTrace.size();
                 ++t) {
                EXPECT_EQ(parallel[i].perTrace[t].traceName,
                          sequential[i].perTrace[t].traceName);
                expectSameConfusion(parallel[i].perTrace[t].confusion,
                                    sequential[i].perTrace[t].confusion,
                                    what);
            }
        }
    }
}

TEST(ParallelSweep, RankingIsIdenticalAtAnyThreadCount)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    auto baseline = sweep::rankSchemes(suite, schemes,
                                       UpdateMode::Direct, sweep::RankBy::Pvp,
                                       10, {}, 1);
    ASSERT_EQ(baseline.size(), 10u);
    for (unsigned threads : {2u, 8u}) {
        auto ranked = sweep::rankSchemes(suite, schemes,
                                         UpdateMode::Direct,
                                         sweep::RankBy::Pvp, 10, {},
                                         threads);
        ASSERT_EQ(ranked.size(), baseline.size());
        for (std::size_t i = 0; i < ranked.size(); ++i) {
            EXPECT_EQ(sweep::formatScheme(ranked[i].result.scheme),
                      sweep::formatScheme(baseline[i].result.scheme))
                << "rank " << i << " @" << threads << " threads";
            EXPECT_EQ(ranked[i].score, baseline[i].score);
            expectSameConfusion(ranked[i].result.pooled,
                                baseline[i].result.pooled,
                                "rank " + std::to_string(i));
        }
    }
}

TEST(ParallelSweep, ShardMergeKeepsSweepStatsExact)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    // The per-scheme stats contract below is the *reference* kernel's
    // (one evaluator pass per scheme); the batched kernel's coarser
    // accounting has its own test.
    obs::StatsRegistry parent;
    {
        obs::ScopedRegistry route(parent);
        sweep::ParallelSweep(4, sweep::SweepKernel::Reference)
            .evaluate(suite, schemes, UpdateMode::Direct);
    }

    const auto *evaluated =
        parent.findCounter("sweep.schemes_evaluated");
    ASSERT_NE(evaluated, nullptr);
    EXPECT_EQ(evaluated->value, schemes.size());

    const auto *traces = parent.findCounter("evaluator.traces");
    ASSERT_NE(traces, nullptr);
    EXPECT_EQ(traces->value, schemes.size() * suite.size());

    const auto *per_scheme =
        parent.findSummary("sweep.scheme_eval_seconds");
    ASSERT_NE(per_scheme, nullptr);
    EXPECT_EQ(per_scheme->count(), schemes.size());

    const auto *occupancy =
        parent.findSummary("evaluator.table_occupancy");
    ASSERT_NE(occupancy, nullptr);
    EXPECT_EQ(occupancy->count(), schemes.size());
}

TEST(ParallelSweep, ProgressIsMonotonicAndComplete)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    std::vector<std::size_t> dones;
    sweep::ParallelSweep(8, sweep::SweepKernel::Reference)
        .evaluate(suite, schemes, UpdateMode::Direct,
                  [&](const obs::Progress &p) {
                      dones.push_back(p.done);
                      EXPECT_EQ(p.total, schemes.size());
                  });
    ASSERT_EQ(dones.size(), schemes.size());
    for (std::size_t i = 1; i < dones.size(); ++i)
        EXPECT_GE(dones[i], dones[i - 1]) << "tick " << i;
    EXPECT_EQ(dones.back(), schemes.size());
}

// ---------------------------------------------------------------------
// Batched kernel under ParallelSweep

TEST(BatchedSweep, MatchesReferenceKernelExactlyAtAnyThreadCount)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    auto reference =
        sweep::ParallelSweep(1, sweep::SweepKernel::Reference)
            .evaluate(suite, schemes, UpdateMode::Direct);
    for (unsigned threads : {1u, 4u}) {
        auto batched =
            sweep::ParallelSweep(threads, sweep::SweepKernel::Batched)
                .evaluate(suite, schemes, UpdateMode::Direct);
        ASSERT_EQ(batched.size(), reference.size());
        for (std::size_t i = 0; i < batched.size(); ++i) {
            expectSameConfusion(batched[i].pooled,
                                reference[i].pooled,
                                sweep::formatScheme(
                                    reference[i].scheme));
            ASSERT_EQ(batched[i].perTrace.size(),
                      reference[i].perTrace.size());
            for (std::size_t t = 0; t < batched[i].perTrace.size();
                 ++t)
                expectSameConfusion(
                    batched[i].perTrace[t].confusion,
                    reference[i].perTrace[t].confusion,
                    sweep::formatScheme(reference[i].scheme));
        }
    }
}

TEST(BatchedSweep, StatsCoverEverySchemeAndBatch)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    obs::StatsRegistry parent;
    {
        obs::ScopedRegistry route(parent);
        sweep::ParallelSweep(4, sweep::SweepKernel::Batched)
            .evaluate(suite, schemes, UpdateMode::Direct);
    }

    const auto *evaluated =
        parent.findCounter("sweep.schemes_evaluated");
    ASSERT_NE(evaluated, nullptr);
    EXPECT_EQ(evaluated->value, schemes.size());

    const auto *batches = parent.findCounter("sweep.batches_evaluated");
    ASSERT_NE(batches, nullptr);
    EXPECT_GE(batches->value, 1u);

    // Every (scheme, trace) pair is walked exactly once, or copies
    // the counts of a scheme walked on that trace (sweep/partition.hh):
    // pid refines pc and dir equals pid on noisyTrace, so some do.
    const auto *shared = parent.findCounter("sweep.shared_scheme_traces");
    ASSERT_NE(shared, nullptr);
    EXPECT_GT(shared->value, 0u);
    const auto *scheme_events =
        parent.findCounter("batch.scheme_events");
    ASSERT_NE(scheme_events, nullptr);
    const std::uint64_t events = suite.front().events().size();
    for (const auto &tr : suite)
        ASSERT_EQ(tr.events().size(), events);
    EXPECT_EQ(scheme_events->value,
              events * (schemes.size() * suite.size() - shared->value));
}

TEST(BatchedSweep, ProgressReachesEverySchemeMonotonically)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    std::vector<std::size_t> dones;
    sweep::ParallelSweep(8, sweep::SweepKernel::Batched)
        .evaluate(suite, schemes, UpdateMode::Direct,
                  [&](const obs::Progress &p) {
                      dones.push_back(p.done);
                      EXPECT_EQ(p.total, schemes.size());
                  });
    ASSERT_GE(dones.size(), 1u);
    for (std::size_t i = 1; i < dones.size(); ++i)
        EXPECT_GE(dones[i], dones[i - 1]) << "tick " << i;
    EXPECT_EQ(dones.back(), schemes.size());
}

TEST(ParallelSweep, WorkerExceptionsReachTheCaller)
{
    auto suite = smallSuite();
    // A scheme whose table would need 2^40 entries: makeTable throws
    // bad_alloc (or panics) — here we exercise the std::exception
    // path with an impossible-but-allocatable spec via the pool
    // directly instead, keeping this test deterministic.
    ThreadPool pool(4);
    EXPECT_THROW(pool.forEach(8,
                              [&](std::size_t job, unsigned) {
                                  if (job == 3)
                                      throw std::bad_alloc();
                              }),
                 std::bad_alloc);
}

// Empty-input guards live in rankSchemes/evaluateSchemes (fail fast
// before any evaluation); see space_test.cc for the death tests.

} // namespace
