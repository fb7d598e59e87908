/**
 * @file
 * Torus2D: the interconnect model of the simulated machine.
 *
 * The paper's RSIM configuration uses a "fast 2-D torus interconnect"
 * with 52-cycle local and 133-cycle remote memory latency (Table 4).
 * The prediction metrics are timing-independent, but the forwarding
 * overlay (src/forward) and the examples use this model to translate
 * predictor quality into estimated cycles saved and traffic generated.
 *
 * The model provides wrap-around Manhattan hop distances, a linear
 * hop-latency approximation anchored to the paper's local/remote
 * latencies, and per-link traffic accounting for X-Y dimension-order
 * routing.
 *
 * The geometry is static, so the constructor tabulates it for every
 * (from, to) pair (at most maxNodes^2): the X-Y route as link indices
 * (its length is the hop count) and latency().  A message then costs
 * one table walk, with no ring arithmetic per hop.
 */

#ifndef CCP_NET_TORUS_HH
#define CCP_NET_TORUS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ccp::net {

/** Latency parameters mirroring Table 4 of the paper. */
struct TorusParams
{
    /** Cycles to reach local memory (no network traversal). */
    Cycles localLatency = 52;
    /** Cycles for an average remote access (directory + transfer). */
    Cycles remoteLatency = 133;
    /** Flit payload assumed per data message, in bytes. */
    unsigned dataMessageBytes = 64 + 8;
    /** Bytes per control message (request, inv, ack). */
    unsigned controlMessageBytes = 8;
};

/**
 * A width x height wrap-around mesh of nodes with dimension-order
 * routing and per-link traffic counters.
 */
class Torus2D
{
  public:
    /**
     * @param width  Nodes per row.
     * @param height Nodes per column.
     * @param params Latency/size parameters.
     */
    Torus2D(unsigned width, unsigned height,
            const TorusParams &params = TorusParams());

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }
    unsigned nodes() const { return width_ * height_; }
    const TorusParams &params() const { return params_; }

    /** Wrap-around Manhattan hop count between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /** Mean hop distance from a node to all other nodes. */
    double meanHops(NodeId from) const;

    /**
     * Estimated request latency from @p from to @p to: the paper's
     * local latency for a same-node access, otherwise the remote
     * latency scaled by the ratio of the actual hop count to the
     * machine's mean hop count.
     */
    Cycles latency(NodeId from, NodeId to) const;

    /**
     * Account a message of @p bytes from @p from to @p to along its
     * X-Y route, returning the hop count.  Traffic is recorded on
     * every traversed link.
     */
    unsigned sendMessage(NodeId from, NodeId to, unsigned bytes);

    /** Total byte-hops recorded so far. */
    std::uint64_t totalByteHops() const { return totalByteHops_; }

    /** Total messages recorded so far. */
    std::uint64_t totalMessages() const { return totalMessages_; }

    /** Bytes recorded on the busiest single link. */
    std::uint64_t maxLinkBytes() const;

    /**
     * Per-link byte counters, 4 per node: entry (y * width + x) * 4 +
     * dir is the link leaving node (x, y) in direction dir (0: +x,
     * 1: -x, 2: +y, 3: -y).
     */
    const std::vector<std::uint64_t> &linkBytes() const
    {
        return linkBytes_;
    }

    /** Reset all traffic counters. */
    void clearTraffic();

  private:
    /** Index of pair (from, to) in the tables; asserts both ids. */
    std::size_t pair(NodeId from, NodeId to) const;
    /** Append the X-Y route from @p from to @p to to routeLinks_. */
    void appendRoute(NodeId from, NodeId to);

    unsigned width_;
    unsigned height_;
    TorusParams params_;

    /** Pair p's route is routeLinks_[routeStart_[p], routeStart_[p+1]):
     *  the links it traverses in order, one per hop. */
    std::vector<std::uint32_t> routeStart_;
    std::vector<std::uint16_t> routeLinks_;
    /** latency() of each pair. */
    std::vector<Cycles> latency_;

    std::vector<std::uint64_t> linkBytes_;
    std::uint64_t totalByteHops_ = 0;
    std::uint64_t totalMessages_ = 0;
};

} // namespace ccp::net

#endif // CCP_NET_TORUS_HH
