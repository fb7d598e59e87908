/**
 * @file
 * Machine: the simulated 16-node shared-memory multiprocessor.
 *
 * Workload kernels are SPMD programs structured as barrier-separated
 * phases (like the SPLASH codes).  Within a phase each node emits a
 * sequence of memory operations; the machine interleaves the per-node
 * sequences pseudo-randomly in small bursts — a faithful stand-in for
 * the loose instruction interleaving of a real machine — and executes
 * them through the coherence protocol engine, which appends coherence
 * events to the trace.  Barriers order phases totally, exactly like
 * the barrier synchronization of the original programs.
 */

#ifndef CCP_SIM_MACHINE_HH
#define CCP_SIM_MACHINE_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/protocol.hh"
#include "obs/registry.hh"
#include "trace/trace.hh"

namespace ccp::sim {

/** One memory operation emitted by a workload kernel. */
struct MemOp
{
    Addr addr;
    Pc pc;      ///< static store site; ignored for reads
    bool write;
};

/** A per-node batch of operations for one phase. */
using PhaseOps = std::vector<std::vector<MemOp>>;

/**
 * The simulated machine: a coherence controller plus the phase
 * interleaver and the trace under construction.
 */
class Machine
{
  public:
    /**
     * @param config Machine geometry (nodes, caches, torus, placement).
     * @param name   Benchmark name recorded in the trace.
     * @param seed   Seed for the interleaving RNG.
     */
    Machine(const mem::MachineConfig &config, const std::string &name,
            std::uint64_t seed);

    unsigned nNodes() const { return config_.nNodes; }
    const mem::MachineConfig &config() const { return config_; }

    mem::CoherenceController &controller() { return ctl_; }
    const mem::CoherenceController &controller() const { return ctl_; }

    trace::SharingTrace &trace() { return trace_; }

    /**
     * Execute one barrier-delimited phase: interleave the per-node op
     * vectors in random bursts of 1..maxBurst ops and run them through
     * the protocol.  The vectors are consumed (cleared on return).
     */
    void runPhase(PhaseOps &ops);

    /** Maximum ops a node executes before the interleaver switches. */
    void setMaxBurst(unsigned burst) { maxBurst_ = burst; }

    /**
     * Finish the run: fold run statistics into the trace metadata,
     * export the run's counters and phase timings into this thread's
     * current stats registry (under "protocol." and "sim."; a
     * ScopedRegistry shard captures them), and move the finalized
     * trace out.  The machine must not be used afterwards.
     */
    trace::SharingTrace finish();

    /**
     * Export this machine's instrumentation into @p registry:
     * "protocol.*" counters plus the readers-per-kill histogram, and
     * "sim.phases" / "sim.ops" / "sim.phase_seconds" (a Summary, so
     * per-phase wall time reports mean and jitter).
     */
    void exportStats(obs::StatsRegistry &registry) const;

  private:
    mem::MachineConfig config_;
    trace::SharingTrace trace_;
    mem::CoherenceController ctl_;
    Rng rng_;
    unsigned maxBurst_ = 8;
    Summary phaseSeconds_;
    std::uint64_t opsExecuted_ = 0;
};

} // namespace ccp::sim

#endif // CCP_SIM_MACHINE_HH
