#include "net/torus.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ccp::net {

namespace {

/** Signed shortest offset from a to b on a ring of size n. */
int
ringDelta(unsigned a, unsigned b, unsigned n)
{
    int fwd = static_cast<int>((b + n - a) % n);
    int bwd = fwd - static_cast<int>(n);
    return fwd <= -bwd ? fwd : bwd;
}

} // namespace

Torus2D::Torus2D(unsigned width, unsigned height,
                 const TorusParams &params)
    : width_(width), height_(height), params_(params),
      linkBytes_(static_cast<std::size_t>(width) * height * 4, 0)
{
    ccp_assert(width_ > 0 && height_ > 0, "degenerate torus");
    ccp_assert(nodes() <= maxNodes, "torus larger than maxNodes");

    const unsigned n = nodes();
    routeStart_.reserve(static_cast<std::size_t>(n) * n + 1);
    routeStart_.push_back(0);
    for (NodeId from = 0; from < n; ++from) {
        for (NodeId to = 0; to < n; ++to) {
            appendRoute(from, to);
            routeStart_.push_back(
                static_cast<std::uint32_t>(routeLinks_.size()));
        }
    }

    double total = 0.0;
    for (NodeId to = 0; to < n; ++to)
        total += hops(0, to);
    const double mean_hops = n > 1 ? total / (n - 1) : 1.0;

    const double net = static_cast<double>(params_.remoteLatency -
                                           params_.localLatency);
    latency_.reserve(static_cast<std::size_t>(n) * n);
    for (NodeId from = 0; from < n; ++from) {
        for (NodeId to = 0; to < n; ++to) {
            double scale = hops(from, to) / mean_hops;
            latency_.push_back(
                from == to ? params_.localLatency
                           : params_.localLatency +
                                 static_cast<Cycles>(
                                     std::llround(net * scale)));
        }
    }
}

void
Torus2D::appendRoute(NodeId from, NodeId to)
{
    unsigned x = from % width_, y = from / width_;
    unsigned tx = to % width_, ty = to / width_;
    auto link = [&](unsigned dir) {
        routeLinks_.push_back(
            static_cast<std::uint16_t>((y * width_ + x) * 4 + dir));
    };

    // X dimension first (dimension-order routing), then Y.
    int dx = ringDelta(x, tx, width_);
    while (dx != 0) {
        link(dx > 0 ? 0 : 1); // 0: +x, 1: -x
        x = (x + width_ + (dx > 0 ? 1 : width_ - 1)) % width_;
        dx += dx > 0 ? -1 : 1;
    }
    int dy = ringDelta(y, ty, height_);
    while (dy != 0) {
        link(dy > 0 ? 2 : 3); // 2: +y, 3: -y
        y = (y + height_ + (dy > 0 ? 1 : height_ - 1)) % height_;
        dy += dy > 0 ? -1 : 1;
    }
}

std::size_t
Torus2D::pair(NodeId from, NodeId to) const
{
    ccp_assert(from < nodes() && to < nodes(), "node out of range");
    return static_cast<std::size_t>(from) * nodes() + to;
}

unsigned
Torus2D::hops(NodeId a, NodeId b) const
{
    std::size_t p = pair(a, b);
    return routeStart_[p + 1] - routeStart_[p];
}

double
Torus2D::meanHops(NodeId from) const
{
    double total = 0.0;
    for (NodeId to = 0; to < nodes(); ++to)
        total += hops(from, to);
    return nodes() > 1 ? total / (nodes() - 1) : 0.0;
}

Cycles
Torus2D::latency(NodeId from, NodeId to) const
{
    return latency_[pair(from, to)];
}

unsigned
Torus2D::sendMessage(NodeId from, NodeId to, unsigned bytes)
{
    std::size_t p = pair(from, to);
    ++totalMessages_;
    const std::uint32_t first = routeStart_[p], last = routeStart_[p + 1];
    for (std::uint32_t i = first; i < last; ++i)
        linkBytes_[routeLinks_[i]] += bytes;
    totalByteHops_ += std::uint64_t{bytes} * (last - first);
    return last - first;
}

std::uint64_t
Torus2D::maxLinkBytes() const
{
    return linkBytes_.empty()
               ? 0
               : *std::max_element(linkBytes_.begin(), linkBytes_.end());
}

void
Torus2D::clearTraffic()
{
    std::fill(linkBytes_.begin(), linkBytes_.end(), 0);
    totalByteHops_ = 0;
    totalMessages_ = 0;
}

} // namespace ccp::net
