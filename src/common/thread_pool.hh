/**
 * @file
 * ThreadPool: a fixed pool of worker threads executing chunked
 * parallel-for loops — the execution engine under the sharded sweeps.
 *
 * The pool owns `threads - 1` std::threads; the calling thread is
 * always worker 0 and participates in every loop, so a one-thread
 * pool spawns nothing and forEach() degenerates to the plain
 * sequential loop (bit-identical to pre-pool behaviour).  Work is
 * handed out in chunks from an atomic cursor — cheap dynamic load
 * balancing (work stealing from a shared queue) without per-job
 * locking.
 *
 * Exceptions thrown by jobs are captured (first one wins), remaining
 * chunks are cancelled, and the exception is rethrown on the calling
 * thread after every worker has quiesced, so RAII in the caller sees
 * a fully stopped loop.
 */

#ifndef CCP_COMMON_THREAD_POOL_HH
#define CCP_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ccp {

/**
 * Optional pool instrumentation hooks.  The execution tracer
 * (obs/trace.hh) installs these when tracing is enabled so Perfetto
 * shows the pool's task lifecycle — per-chunk run spans and the idle
 * gaps between loops — without common/ depending on obs/.  All
 * pointers must be valid; install nullptr to turn instrumentation
 * off.  Hooks run on the worker thread they describe.
 */
struct PoolTraceHooks
{
    /** A worker claimed jobs [first, first+count) and starts running
     *  them (paired with chunkEnd on the same thread). */
    void (*chunkBegin)(std::size_t first, std::size_t count);
    void (*chunkEnd)();
    /** A worker was parked waiting for work for [beginNs, endNs]
     *  (reported retroactively at wake). */
    void (*idle)(std::uint64_t beginNs, std::uint64_t endNs);
    /** The tracer's clock, so idle timestamps share its epoch. */
    std::uint64_t (*nowNs)();
};

/** Install @p hooks process-wide (nullptr uninstalls). */
void setPoolTraceHooks(const PoolTraceHooks *hooks);
/** The currently installed hooks, or nullptr. */
const PoolTraceHooks *poolTraceHooks();

class ThreadPool
{
  public:
    /**
     * A parallel-for body: invoked once per job index with the id of
     * the worker running it (0 = calling thread), so callers can keep
     * per-worker state (registry shards) without locking.
     */
    using JobFn = std::function<void(std::size_t job, unsigned worker)>;

    /** Hardware concurrency, with a floor of 1 when unknown. */
    static unsigned defaultThreads();

    /**
     * Build a pool of @p threads total workers (calling thread
     * included); 0 means defaultThreads().
     */
    explicit ThreadPool(unsigned threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Total workers, calling thread included (>= 1). */
    unsigned threads() const { return nThreads_; }

    /**
     * Run fn(job, worker) for every job in [0, nJobs), blocking until
     * all jobs finish.  @p chunk jobs are claimed at a time (0 picks a
     * chunk that gives each worker ~8 turns).  Not reentrant: one
     * loop at a time per pool.
     *
     * Exception-propagation contract (what resilient callers rely on,
     * locked down by tests/parallel_test.cc):
     *
     *  1. The FIRST exception thrown by any job wins; every later one
     *     (concurrent jobs may also throw) is swallowed.  "First"
     *     means first to reach the pool's error latch — when several
     *     workers throw concurrently the winner is one of them, not
     *     necessarily the lowest job index.
     *  2. A throw cancels the unclaimed remainder of the loop; chunks
     *     already in flight on other workers run to completion.  Jobs
     *     are therefore either fully run or never started — a job is
     *     never begun after the cancellation point, and never torn
     *     down mid-flight from outside.
     *  3. The winning exception is rethrown on the CALLING thread,
     *     only after every worker has quiesced, so caller RAII sees a
     *     fully stopped loop and worker-id-indexed state (registry
     *     shards) is safe to read immediately.
     *  4. The error latch resets per forEach(): the pool remains
     *     usable and a subsequent loop is unaffected by a previous
     *     one's failure.
     *  5. A one-thread pool runs jobs sequentially on the calling
     *     thread and lets exceptions propagate out of forEach()
     *     directly — same observable contract, zero machinery.
     *
     * Callers that must not lose sibling work to one bad job (the
     * resilient sweep runner) catch inside the job body instead; the
     * pool-level contract above is the fail-fast default.
     */
    void forEach(std::size_t nJobs, const JobFn &fn,
                 std::size_t chunk = 0);

  private:
    void workerLoop(unsigned id);

    /** Claim and run chunks until the cursor passes nJobs_. */
    void drainChunks(unsigned worker);

    unsigned nThreads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable startCv_;
    std::condition_variable doneCv_;
    bool stop_ = false;
    /** Bumped per forEach(); workers watch it to pick up the loop. */
    std::uint64_t generation_ = 0;
    /** Workers still inside the current loop. */
    unsigned active_ = 0;

    /** Current loop (valid while active_ > 0 or the caller drains). */
    const JobFn *fn_ = nullptr;
    std::size_t nJobs_ = 0;
    std::size_t chunk_ = 1;
    std::atomic<std::size_t> cursor_{0};
    std::exception_ptr error_;
};

} // namespace ccp

#endif // CCP_COMMON_THREAD_POOL_HH
