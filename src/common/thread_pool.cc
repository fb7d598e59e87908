#include "common/thread_pool.hh"

#include <algorithm>

namespace ccp {

namespace {

std::atomic<const PoolTraceHooks *> g_poolHooks{nullptr};

} // namespace

void
setPoolTraceHooks(const PoolTraceHooks *hooks)
{
    g_poolHooks.store(hooks, std::memory_order_release);
}

const PoolTraceHooks *
poolTraceHooks()
{
    return g_poolHooks.load(std::memory_order_acquire);
}

unsigned
ThreadPool::defaultThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads)
    : nThreads_(threads > 0 ? threads : defaultThreads())
{
    workers_.reserve(nThreads_ - 1);
    for (unsigned w = 1; w < nThreads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    startCv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::drainChunks(unsigned worker)
{
    for (;;) {
        std::size_t begin = cursor_.fetch_add(chunk_);
        if (begin >= nJobs_)
            return;
        std::size_t end = std::min(begin + chunk_, nJobs_);
        const PoolTraceHooks *hooks = poolTraceHooks();
        if (hooks)
            hooks->chunkBegin(begin, end - begin);
        try {
            for (std::size_t job = begin; job < end; ++job)
                (*fn_)(job, worker);
            if (hooks)
                hooks->chunkEnd();
        } catch (...) {
            if (hooks)
                hooks->chunkEnd();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
            // Cancel the unclaimed remainder; in-flight chunks on
            // other workers run to completion before forEach returns.
            cursor_.store(nJobs_);
            return;
        }
    }
}

void
ThreadPool::workerLoop(unsigned id)
{
    // Worker ids 1..n-1; id 0 is the calling thread.
    std::uint64_t seen = 0;
    for (;;) {
        // Idle gap: reported retroactively at wake through the trace
        // hooks (the parked thread records nothing in between, so the
        // backdated span keeps per-thread timestamps monotone).
        const PoolTraceHooks *hooks = poolTraceHooks();
        const std::uint64_t idle_begin =
            hooks ? hooks->nowNs() : 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            startCv_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
        }
        if (hooks)
            hooks->idle(idle_begin, hooks->nowNs());
        drainChunks(id);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--active_ == 0)
                doneCv_.notify_all();
        }
    }
}

void
ThreadPool::forEach(std::size_t nJobs, const JobFn &fn,
                    std::size_t chunk)
{
    if (nJobs == 0)
        return;
    if (chunk == 0)
        chunk = std::max<std::size_t>(1, nJobs / (nThreads_ * 8));

    if (workers_.empty()) {
        // Sequential pool: the pre-parallel code path, exceptions
        // propagating naturally.
        for (std::size_t job = 0; job < nJobs; ++job)
            fn(job, 0);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn_ = &fn;
        nJobs_ = nJobs;
        chunk_ = chunk;
        cursor_.store(0);
        error_ = nullptr;
        active_ = static_cast<unsigned>(workers_.size());
        ++generation_;
    }
    startCv_.notify_all();

    drainChunks(0);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return active_ == 0; });
        fn_ = nullptr;
        error = error_;
        error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace ccp
