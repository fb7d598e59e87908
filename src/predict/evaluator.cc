#include "predict/evaluator.hh"

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/timer.hh"

namespace ccp::predict {

PredictorTable
SchemeSpec::makeTable(unsigned n_nodes) const
{
    return PredictorTable(index,
                          makeFunction(kind, depth, n_nodes, perc),
                          n_nodes);
}

std::uint64_t
SchemeSpec::sizeBits(unsigned n_nodes) const
{
    auto fn = makeFunction(kind, depth, n_nodes, perc);
    std::uint64_t entries = std::uint64_t(1)
                            << index.indexBits(nodeBitsFor(n_nodes));
    return entries * fn->entryBits(n_nodes);
}

LearnKey
learnKey(const SchemeSpec &scheme)
{
    LearnKey key;
    switch (scheme.kind) {
      case FunctionKind::Union:
      case FunctionKind::Inter:
      case FunctionKind::OverlapLast:
        break;
      case FunctionKind::PAs:
        key.kind = LearnKey::Kind::PAs;
        key.depth = scheme.depth;
        break;
      case FunctionKind::Perceptron:
        key.kind = LearnKey::Kind::Perceptron;
        key.depth = scheme.depth;
        key.weightBits = scheme.perc.weightBits;
        key.theta = scheme.perc.theta;
        break;
    }
    return key;
}

Confusion
evaluateTrace(const trace::SharingTrace &trace, PredictorTable &table,
              UpdateMode mode)
{
    table.clear();
    const unsigned n = trace.nNodes();
    Confusion conf;

    obs::Stopwatch watch;
    replayTrace(trace, table, mode,
                [&](const trace::CoherenceEvent &ev, SharingBitmap pred) {
                    conf.add(pred, ev.readers, n);
                });

    // Per-trace throughput accounting: two clock reads and a few map
    // lookups per trace, nothing in the per-event hot loop.  Goes to
    // current() so parallel-sweep workers accumulate into their own
    // shard instead of racing on root().
    double sec = watch.elapsedSec();
    auto &reg = obs::StatsRegistry::current();
    reg.counter("evaluator.traces") += 1;
    reg.counter("evaluator.events") += trace.events().size();
    reg.summary("evaluator.trace_seconds").add(sec);
    if (sec > 0.0 && !trace.events().empty())
        reg.summary("evaluator.events_per_sec")
            .add(static_cast<double>(trace.events().size()) / sec);
    return conf;
}

Confusion
evaluateTrace(const trace::SharingTrace &trace, const SchemeSpec &scheme,
              UpdateMode mode)
{
    PredictorTable table = scheme.makeTable(trace.nNodes());
    return evaluateTrace(trace, table, mode);
}

SuiteResult
evaluateSuite(const std::vector<trace::SharingTrace> &traces,
              const SchemeSpec &scheme, UpdateMode mode)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    SuiteResult result;
    result.scheme = scheme;
    result.mode = mode;

    PredictorTable table = scheme.makeTable(traces.front().nNodes());
    for (const auto &tr : traces) {
        ccp_assert(tr.nNodes() == traces.front().nNodes(),
                   "mixed machine sizes in suite");
        Confusion c = evaluateTrace(tr, table, mode);
        result.pooled.merge(c);
        result.perTrace.push_back({tr.name(), c});
    }
    // Occupancy after the final trace: one table scan per suite, so
    // wide sweeps stay cheap.
    obs::StatsRegistry::current()
        .summary("evaluator.table_occupancy")
        .add(table.occupancy());
    return result;
}

namespace {

double
average(const std::vector<TraceResult> &per_trace,
        double (Confusion::*metric)() const)
{
    if (per_trace.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &tr : per_trace)
        total += (tr.confusion.*metric)();
    return total / static_cast<double>(per_trace.size());
}

} // namespace

double
SuiteResult::avgSensitivity() const
{
    return average(perTrace, &Confusion::sensitivity);
}

double
SuiteResult::avgPvp() const
{
    return average(perTrace, &Confusion::pvp);
}

double
SuiteResult::avgPrevalence() const
{
    return average(perTrace, &Confusion::prevalence);
}

} // namespace ccp::predict
