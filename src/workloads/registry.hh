/**
 * @file
 * Workload registry: name-based construction of the benchmark kernels
 * and one-call trace generation.
 */

#ifndef CCP_WORKLOADS_REGISTRY_HH
#define CCP_WORKLOADS_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/protocol.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace ccp::workloads {

/** Names of all benchmarks, in the paper's Table 3 order. */
const std::vector<std::string> &workloadNames();

/** Build a kernel by name; fatal on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params);

/**
 * Run one benchmark end to end on a fresh machine and return its
 * finalized coherence trace.
 *
 * @param name    Benchmark name.
 * @param params  Workload knobs (node count must match @p config).
 * @param config  Machine geometry; paper defaults if omitted.
 */
trace::SharingTrace
generateTrace(const std::string &name, const WorkloadParams &params,
              const mem::MachineConfig &config = mem::MachineConfig());

/**
 * Run job(i) for every i in [0, @p n) at the same time on up to
 * @p threads workers (0 = one per hardware thread), each job under a
 * stats registry shard of its own.  After every job has finished, the
 * shards merge into the caller's current registry in index order, so
 * the counters equal those of a serial run.
 */
void runSharded(std::size_t n, unsigned threads,
                const std::function<void(std::size_t)> &job);

/**
 * Generate the full seven-benchmark suite, the traces at the same
 * time (runSharded()).  The traces do not depend on @p threads.
 */
std::vector<trace::SharingTrace>
generateSuite(const WorkloadParams &params,
              const mem::MachineConfig &config = mem::MachineConfig(),
              unsigned threads = 0);

} // namespace ccp::workloads

#endif // CCP_WORKLOADS_REGISTRY_HH
