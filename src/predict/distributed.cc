#include "predict/distributed.hh"

#include "common/logging.hh"

namespace ccp::predict {

const char *
predictorLocationName(PredictorLocation loc)
{
    switch (loc) {
      case PredictorLocation::AtProcessors:
        return "processors";
      case PredictorLocation::AtDirectories:
        return "directories";
    }
    ccp_panic("bad PredictorLocation");
}

DistributedPredictor::DistributedPredictor(const SchemeSpec &global,
                                           PredictorLocation loc,
                                           unsigned n_nodes)
    : location_(loc), nNodes_(n_nodes), partScheme_(global)
{
    if (loc == PredictorLocation::AtProcessors) {
        if (!global.index.distributableAtProcessors())
            ccp_fatal("scheme without pid indexing cannot be "
                      "distributed at the processors (Table 1)");
        partScheme_.index.usePid = false;
    } else {
        if (!global.index.distributableAtDirectories())
            ccp_fatal("scheme without dir indexing cannot be "
                      "distributed at the directories (Table 1)");
        partScheme_.index.useDir = false;
    }

    parts_.reserve(n_nodes);
    for (unsigned i = 0; i < n_nodes; ++i)
        parts_.push_back(partScheme_.makeTable(n_nodes));
}

NodeId
DistributedPredictor::partOf(NodeId pid, NodeId dir) const
{
    NodeId where =
        location_ == PredictorLocation::AtProcessors ? pid : dir;
    ccp_assert(where < nNodes_, "routing outside the machine");
    return where;
}

const PredictorTable &
DistributedPredictor::part(NodeId where) const
{
    ccp_assert(where < nNodes_, "part index out of range");
    return parts_[where];
}

std::uint64_t
DistributedPredictor::sizeBits() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts_)
        total += p.sizeBits();
    return total;
}

SharingBitmap
DistributedPredictor::predict(NodeId pid, Pc pc, NodeId dir, Addr block)
{
    return parts_[partOf(pid, dir)].predict(pid, pc, dir, block);
}

void
DistributedPredictor::update(NodeId pid, Pc pc, NodeId dir, Addr block,
                             SharingBitmap feedback)
{
    parts_[partOf(pid, dir)].update(pid, pc, dir, block, feedback);
}

void
DistributedPredictor::clear()
{
    for (auto &p : parts_)
        p.clear();
}

Confusion
evaluateDistributed(const trace::SharingTrace &trace,
                    DistributedPredictor &predictor, UpdateMode mode)
{
    predictor.clear();
    const unsigned n = trace.nNodes();
    Confusion conf;

    replayTrace(trace, predictor, mode,
                [&](const trace::CoherenceEvent &ev, SharingBitmap pred) {
                    conf.add(pred, ev.readers, n);
                });
    return conf;
}

} // namespace ccp::predict
