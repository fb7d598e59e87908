/**
 * @file
 * Tests for the 2-D torus network model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "net/torus.hh"

namespace {

using ccp::net::Torus2D;
using ccp::net::TorusParams;

TEST(Torus, Geometry)
{
    Torus2D t(4, 4);
    EXPECT_EQ(t.nodes(), 16u);
    EXPECT_EQ(t.width(), 4u);
    EXPECT_EQ(t.height(), 4u);
}

TEST(Torus, HopsAreSymmetricAndZeroOnSelf)
{
    Torus2D t(4, 4);
    for (unsigned a = 0; a < 16; ++a) {
        EXPECT_EQ(t.hops(a, a), 0u);
        for (unsigned b = 0; b < 16; ++b)
            EXPECT_EQ(t.hops(a, b), t.hops(b, a));
    }
}

TEST(Torus, WrapAroundShortens)
{
    Torus2D t(4, 4);
    // Nodes 0 and 3 are adjacent through the wrap link.
    EXPECT_EQ(t.hops(0, 3), 1u);
    // Corner to far corner: one wrap hop per dimension.
    EXPECT_EQ(t.hops(0, 15), 2u);
    // Maximum distance on a 4x4 torus is 2+2.
    for (unsigned a = 0; a < 16; ++a)
        for (unsigned b = 0; b < 16; ++b)
            EXPECT_LE(t.hops(a, b), 4u);
}

TEST(Torus, TriangleInequality)
{
    Torus2D t(4, 4);
    for (unsigned a = 0; a < 16; ++a)
        for (unsigned b = 0; b < 16; ++b)
            for (unsigned c = 0; c < 16; ++c)
                EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
}

TEST(Torus, RectangularShape)
{
    Torus2D t(8, 2);
    EXPECT_EQ(t.nodes(), 16u);
    EXPECT_EQ(t.hops(0, 4), 4u);
    EXPECT_EQ(t.hops(0, 8), 1u);  // wrap in Y (rows of 8)
    EXPECT_EQ(t.hops(0, 7), 1u);  // wrap in X
}

TEST(Torus, LatencyMatchesPaperAnchors)
{
    Torus2D t(4, 4);
    // Local access: the paper's 52 cycles.
    EXPECT_EQ(t.latency(0, 0), TorusParams().localLatency);
    // Remote accesses are scattered around the paper's 133-cycle
    // average: the mean over all remote pairs should recover it.
    double total = 0;
    unsigned count = 0;
    for (unsigned a = 0; a < 16; ++a) {
        for (unsigned b = 0; b < 16; ++b) {
            if (a == b)
                continue;
            total += static_cast<double>(t.latency(a, b));
            ++count;
        }
    }
    EXPECT_NEAR(total / count, 133.0, 2.0);
}

TEST(Torus, LatencyGrowsWithHops)
{
    Torus2D t(4, 4);
    EXPECT_LT(t.latency(0, 1), t.latency(0, 5));
    EXPECT_LT(t.latency(0, 5), t.latency(0, 10));
}

TEST(Torus, TrafficAccounting)
{
    Torus2D t(4, 4);
    EXPECT_EQ(t.sendMessage(0, 1, 72), 1u);
    EXPECT_EQ(t.totalMessages(), 1u);
    EXPECT_EQ(t.totalByteHops(), 72u);

    EXPECT_EQ(t.sendMessage(0, 10, 10), t.hops(0, 10));
    EXPECT_EQ(t.totalByteHops(), 72u + 10u * t.hops(0, 10));

    // Self-send: a message but no byte-hops.
    t.sendMessage(3, 3, 100);
    EXPECT_EQ(t.totalMessages(), 3u);
    EXPECT_EQ(t.totalByteHops(), 72u + 10u * t.hops(0, 10));
}

TEST(Torus, MaxLinkBytesSeesHotLink)
{
    Torus2D t(4, 4);
    for (int i = 0; i < 10; ++i)
        t.sendMessage(0, 1, 64);
    EXPECT_EQ(t.maxLinkBytes(), 640u);
}

TEST(Torus, ClearTrafficResets)
{
    Torus2D t(4, 4);
    t.sendMessage(0, 5, 64);
    t.clearTraffic();
    EXPECT_EQ(t.totalByteHops(), 0u);
    EXPECT_EQ(t.totalMessages(), 0u);
    EXPECT_EQ(t.maxLinkBytes(), 0u);
}

TEST(Torus, MeanHopsUniformAcrossNodes)
{
    Torus2D t(4, 4);
    // A torus is vertex-transitive: every node sees the same mean.
    double m0 = t.meanHops(0);
    for (unsigned n = 1; n < 16; ++n)
        EXPECT_DOUBLE_EQ(t.meanHops(n), m0);
    EXPECT_NEAR(m0, 2.133, 0.01); // 32/15
}

/** Signed shortest offset from a to b on a ring of size n. */
int
ringDelta(unsigned a, unsigned b, unsigned n)
{
    int fwd = static_cast<int>((b + n - a) % n);
    int bwd = fwd - static_cast<int>(n);
    return fwd <= -bwd ? fwd : bwd;
}

/**
 * The torus model as it was before its route tables: ring arithmetic
 * per query and a dimension-order walk per message.  The oracle for
 * TablesMatchDimensionOrderWalkOnEveryPair.
 */
struct RingWalk
{
    unsigned w, h;

    unsigned
    hops(unsigned a, unsigned b) const
    {
        return static_cast<unsigned>(
                   std::abs(ringDelta(a % w, b % w, w))) +
               static_cast<unsigned>(
                   std::abs(ringDelta(a / w, b / w, h)));
    }

    ccp::Cycles
    latency(unsigned from, unsigned to) const
    {
        const TorusParams p;
        if (from == to)
            return p.localLatency;
        double total = 0.0;
        for (unsigned n = 0; n < w * h; ++n)
            total += hops(0, n);
        double mean = w * h > 1 ? total / (w * h - 1) : 1.0;
        double net = static_cast<double>(p.remoteLatency - p.localLatency);
        return p.localLatency +
               static_cast<ccp::Cycles>(
                   std::llround(net * (hops(from, to) / mean)));
    }

    /** Add @p bytes to every link of the X-Y route into @p links. */
    void
    send(unsigned from, unsigned to, unsigned bytes,
         std::vector<std::uint64_t> &links) const
    {
        unsigned x = from % w, y = from / w;
        int dx = ringDelta(x, to % w, w);
        while (dx != 0) {
            links[(y * w + x) * 4 + (dx > 0 ? 0 : 1)] += bytes;
            x = (x + w + (dx > 0 ? 1 : w - 1)) % w;
            dx += dx > 0 ? -1 : 1;
        }
        int dy = ringDelta(y, to / w, h);
        while (dy != 0) {
            links[(y * w + x) * 4 + (dy > 0 ? 2 : 3)] += bytes;
            y = (y + h + (dy > 0 ? 1 : h - 1)) % h;
            dy += dy > 0 ? -1 : 1;
        }
    }
};

TEST(Torus, TablesMatchDimensionOrderWalkOnEveryPair)
{
    const unsigned shapes[][2] = {{1, 1}, {1, 4}, {4, 4}, {2, 8}, {8, 8}};
    for (const auto &shape : shapes) {
        const RingWalk ref{shape[0], shape[1]};
        Torus2D t(ref.w, ref.h);
        const unsigned n = t.nodes();
        for (unsigned from = 0; from < n; ++from) {
            for (unsigned to = 0; to < n; ++to) {
                SCOPED_TRACE(::testing::Message()
                             << ref.w << "x" << ref.h << " " << from
                             << "->" << to);
                ASSERT_EQ(t.hops(from, to), ref.hops(from, to));
                ASSERT_EQ(t.latency(from, to), ref.latency(from, to));

                std::vector<std::uint64_t> links(n * 4, 0);
                ref.send(from, to, 72, links);
                t.clearTraffic();
                ASSERT_EQ(t.sendMessage(from, to, 72), ref.hops(from, to));
                ASSERT_EQ(t.linkBytes(), links);
                ASSERT_EQ(t.totalByteHops(), 72u * ref.hops(from, to));
                ASSERT_EQ(t.totalMessages(), 1u);
            }
        }
    }
}

TEST(Torus, TableLookupsRejectOutOfRangeNodes)
{
    Torus2D t(2, 2);
    EXPECT_DEATH(t.hops(4, 0), "node out of range");
    EXPECT_DEATH(t.hops(0, 4), "node out of range");
    EXPECT_DEATH(t.latency(4, 0), "node out of range");
    EXPECT_DEATH(t.sendMessage(0, 4, 8), "node out of range");
}

} // namespace
