/**
 * @file
 * ParallelSweep: the sharded evaluation engine under the design-space
 * sweeps (Tables 8-11, Figures 6-9).
 *
 * Schemes are embarrassingly parallel — each evaluation builds its
 * own predictor table and only reads the shared traces — so the
 * engine hands scheme indices to a ThreadPool and each worker
 * accumulates its `evaluator.*` / `sweep.*` stats into a private
 * StatsRegistry shard (installed thread-locally via ScopedRegistry).
 * At join the shards are merged, in worker order, into the registry
 * the calling thread accounts into, so totals are exactly what the
 * sequential sweep would have produced.
 *
 * Results are written by scheme index and progress is reported
 * through a monotonic ProgressMeter, so output order, ranking input,
 * and final progress are deterministic regardless of worker
 * interleaving.  threads == 1 runs on the calling thread only — the
 * pre-parallel code path.
 */

#ifndef CCP_SWEEP_PARALLEL_HH
#define CCP_SWEEP_PARALLEL_HH

#include <vector>

#include "common/thread_pool.hh"
#include "obs/timer.hh"
#include "predict/evaluator.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

/**
 * Which evaluation kernel drives the sweep inner loop.
 *
 *  - Batched:   the event-major BatchEvaluator (sweep/batch.hh) — a
 *               batch of schemes per worker task, each trace event
 *               decoded once for the whole batch.  The default.
 *  - Reference: the scheme-major per-scheme Evaluator
 *               (predict/evaluator.hh) — the original loop, kept as
 *               the differential-testing oracle and for `--kernel
 *               reference` A/B runs.
 *
 * Both kernels produce bit-identical Confusion counts for every
 * (scheme, trace, mode), so rankings and printed tables never depend
 * on the kernel choice.  The enumerator values are stored in CCPC
 * checkpoint headers and must not change.
 */
enum class SweepKernel : std::uint8_t
{
    Batched = 0,
    Reference = 1,
};

const char *sweepKernelName(SweepKernel kernel);

/** Parse "batched" / "reference"; @return false else. */
bool parseSweepKernel(const std::string &text, SweepKernel &kernel);

class ParallelSweep
{
  public:
    /** @param threads total workers, caller included; 0 = one per
     *  hardware thread, 1 = sequential in the calling thread. */
    explicit ParallelSweep(unsigned threads = 0,
                           SweepKernel kernel = SweepKernel::Batched);

    unsigned threads() const { return pool_.threads(); }
    SweepKernel kernel() const { return kernel_; }

    /**
     * Evaluate every scheme over the suite; results in scheme order,
     * bit-identical across kernels, thread counts and completion
     * orders.  The reference kernel hands one scheme per task and
     * records "sweep.scheme_eval_seconds" / "sweep.schemes_evaluated"
     * exactly as the sequential path did.  The batched kernel first
     * classifies each trace (sweep/partition.hh: a scheme whose
     * result provably equals an earlier scheme's on a trace copies
     * it; "sweep.classify_seconds", "sweep.partition_classes",
     * "sweep.shared_scheme_traces"), then hands a batch of one
     * trace's evaluated schemes per task (see planBatches), shared by
     * the traces whose cuts yield the same batch.  It records
     * "sweep.batch_eval_seconds" per task, "sweep.batches_evaluated"
     * per (trace, batch) walk and the same "sweep.schemes_evaluated"
     * total, and its per-walk throughput lands in "batch.*".
     * @p progress (if set) observes completions with monotonically
     * advancing scheme done counts under either kernel.
     */
    std::vector<predict::SuiteResult>
    evaluate(const std::vector<trace::SharingTrace> &traces,
             const std::vector<predict::SchemeSpec> &schemes,
             predict::UpdateMode mode,
             const obs::ProgressFn &progress = {});

  private:
    std::vector<predict::SuiteResult>
    evaluateReference(const std::vector<trace::SharingTrace> &traces,
                      const std::vector<predict::SchemeSpec> &schemes,
                      predict::UpdateMode mode,
                      const obs::ProgressFn &progress);
    std::vector<predict::SuiteResult>
    evaluateBatched(const std::vector<trace::SharingTrace> &traces,
                    const std::vector<predict::SchemeSpec> &schemes,
                    predict::UpdateMode mode,
                    const obs::ProgressFn &progress);

    ThreadPool pool_;
    SweepKernel kernel_;
};

} // namespace ccp::sweep

#endif // CCP_SWEEP_PARALLEL_HH
