#include "forward/forwarding.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace ccp::forward {

using predict::UpdateMode;

double
ForwardingResult::pvp() const
{
    return forwardsSent
               ? static_cast<double>(usefulForwards) /
                     static_cast<double>(forwardsSent)
               : 1.0;
}

double
ForwardingResult::sensitivity() const
{
    std::uint64_t actual = usefulForwards + missedReaders;
    return actual ? static_cast<double>(usefulForwards) /
                        static_cast<double>(actual)
                  : 1.0;
}

double
ForwardingResult::byteHopsPerCycleSaved() const
{
    return cyclesSaved ? static_cast<double>(forwardByteHops) /
                             static_cast<double>(cyclesSaved)
                       : 0.0;
}

ForwardingResult
simulateForwarding(const trace::SharingTrace &trace,
                   const predict::SchemeSpec &scheme, UpdateMode mode,
                   const ForwardingParams &params, std::uint64_t seed)
{
    const unsigned n = trace.nNodes();
    ccp_assert(params.torusWidth >= 1 && n % params.torusWidth == 0,
               "torus width must divide node count");
    net::Torus2D torus(params.torusWidth, n / params.torusWidth,
                       params.torus);
    predict::PredictorTable table = scheme.makeTable(n);
    Rng rng(seed);

    ForwardingResult res;
    const Cycles saved_per_miss =
        params.torus.remoteLatency - params.torus.localLatency;
    const unsigned data_bytes = params.torus.dataMessageBytes;
    const unsigned ctrl_bytes = params.torus.controlMessageBytes;

    auto observe = [&](const trace::CoherenceEvent &ev,
                       SharingBitmap pred) {
        ++res.events;
        pred = pred & SharingBitmap::all(n);
        // Never forward to the writer itself.
        pred.reset(ev.pid);

        for (NodeId node = 0; node < n; ++node) {
            bool predicted = pred.test(node);
            bool reads = ev.readers.test(node);
            if (predicted) {
                ++res.forwardsSent;
                // Directory-initiated forward: writer -> home is part
                // of the normal ownership transaction; the forward
                // itself is one data message home -> reader.
                unsigned hops =
                    torus.sendMessage(ev.dir, node, data_bytes);
                res.forwardBytes += data_bytes;
                res.forwardByteHops +=
                    std::uint64_t(hops) * data_bytes;
                if (reads) {
                    ++res.usefulForwards;
                    if (rng.chance(params.timelyFraction)) {
                        ++res.missesAvoided;
                        res.cyclesSaved += saved_per_miss;
                        // The reader skips its request + response.
                        res.bytesSaved += ctrl_bytes + data_bytes;
                    }
                } else {
                    ++res.wastedForwards;
                }
            } else if (reads) {
                ++res.missedReaders;
            }
        }
    };
    predict::replayTrace(trace, table, mode, observe);
    return res;
}

} // namespace ccp::forward
