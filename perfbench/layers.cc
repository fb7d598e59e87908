#include "layers.hh"

namespace perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Bench: return "bench";
    case Layer::Trace: return "trace";
    case Layer::Sim: return "sim";
    case Layer::Sweep: return "sweep";
    case Layer::Rank: return "rank";
    case Layer::Predict: return "predict";
    case Layer::Serve: return "serve";
    }
    return "?";
}

void
LayerClock::open(Layer layer)
{
    stack_.push_back({layer, Clock::now(), 0});
}

void
LayerClock::close()
{
    const Open span = stack_.back();
    stack_.pop_back();
    const auto dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - span.start)
            .count());
    const auto i = static_cast<unsigned>(span.layer);
    selfNs_[i] += dur > span.childNs ? dur - span.childNs : 0;
    ++calls_[i];
    if (!stack_.empty())
        stack_.back().childNs += dur;
}

double
LayerClock::selfSec(Layer layer) const
{
    return static_cast<double>(selfNs_[static_cast<unsigned>(layer)]) *
           1e-9;
}

std::uint64_t
LayerClock::calls(Layer layer) const
{
    return calls_[static_cast<unsigned>(layer)];
}

} // namespace perfbench
