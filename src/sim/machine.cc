#include "sim/machine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/timer.hh"

namespace ccp::sim {

Machine::Machine(const mem::MachineConfig &config,
                 const std::string &name, std::uint64_t seed)
    : config_(config), trace_(name, config.nNodes),
      ctl_(config, &trace_), rng_(seed)
{
}

void
Machine::runPhase(PhaseOps &ops)
{
    ccp_assert(ops.size() == config_.nNodes,
               "phase op vectors must cover every node");

    obs::ScopedTimer phase_timer(phaseSeconds_);
    for (const auto &vec : ops)
        opsExecuted_ += vec.size();

    // Cursor into each node's op vector, plus the list of nodes with
    // work remaining.
    std::vector<std::size_t> cursor(config_.nNodes, 0);
    std::vector<NodeId> live;
    live.reserve(config_.nNodes);
    for (NodeId n = 0; n < config_.nNodes; ++n)
        if (!ops[n].empty())
            live.push_back(n);

    while (!live.empty()) {
        std::size_t pick = rng_.below(live.size());
        NodeId node = live[pick];
        auto &vec = ops[node];
        std::size_t &cur = cursor[node];

        std::size_t burst = 1 + rng_.below(maxBurst_);
        burst = std::min(burst, vec.size() - cur);
        for (std::size_t i = 0; i < burst; ++i) {
            const MemOp &op = vec[cur++];
            if (op.write)
                ctl_.write(node, op.addr, op.pc);
            else
                ctl_.read(node, op.addr);
        }

        if (cur == vec.size()) {
            live[pick] = live.back();
            live.pop_back();
        }
    }

    for (auto &vec : ops)
        vec.clear();
}

void
Machine::exportStats(obs::StatsRegistry &registry) const
{
    ctl_.exportStats(registry);
    registry.counter("sim.phases") += phaseSeconds_.count();
    registry.counter("sim.ops") += opsExecuted_;
    registry.summary("sim.phase_seconds").merge(phaseSeconds_);
}

trace::SharingTrace
Machine::finish()
{
    ctl_.finalizeTrace();
    exportStats(obs::StatsRegistry::current());
    ccp_debug("machine '", trace_.name(), "' finished: ", opsExecuted_,
              " ops, ", trace_.storeMisses(), " store misses, ",
              phaseSeconds_.count(), " phases");
    return std::move(trace_);
}

} // namespace ccp::sim
