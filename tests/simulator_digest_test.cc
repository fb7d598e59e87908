/**
 * @file
 * Pins the simulator's output: an FNV-1a digest of every workload's
 * trace (all events and all metadata) at a small scale, for each
 * protocol and placement policy at 16 nodes, for 4 and 64 nodes, and
 * with the online forwarding hook attached.  Any change in the
 * workloads, the machine's interleaving, the caches or the protocol
 * engine that changes a single event bit fails here.
 *
 * A second digest per workload covers what the trace does not carry:
 * every `protocol.*` counter (latency, network traffic, the nodes'
 * hit/miss/eviction counts) and the readers-per-kill histogram the
 * machine exports, so a change to LRU order or to the torus model
 * that leaves the events alone still fails here.
 *
 * The committed trace digests were computed before the controller's
 * per-block record store replaced its hash containers, the counter
 * digests before the single-scan cache hit path and the torus route
 * tables.  On a failure the message prints the digest the current
 * code produces; refresh a digest only for a change that is meant to
 * alter the simulator's output.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "forward/online.hh"
#include "obs/registry.hh"
#include "sweep/name.hh"
#include "workloads/registry.hh"

namespace {

using namespace ccp;
using mem::PlacementPolicy;
using mem::ProtocolKind;

constexpr double digestScale = 0.02;
constexpr std::uint64_t digestSeed = 0x5eed;

/** Byte-wise FNV-1a 64 (every input bit enters at the low byte). */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void word(std::uint64_t v) { bytes(&v, sizeof(v)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
hex(const Fnv &h)
{
    char out[17];
    std::snprintf(out, sizeof(out), "%016" PRIx64, h.value());
    return out;
}

/** FNV-1a over a trace's name, shape, metadata and every event. */
std::string
traceDigest(const trace::SharingTrace &tr)
{
    Fnv h;
    h.bytes(tr.name().data(), tr.name().size());
    h.word(tr.nNodes());
    h.word(tr.events().size());
    const trace::TraceMeta &m = tr.meta();
    for (std::uint64_t v :
         {m.maxStaticStoresPerNode, m.maxPredictedStoresPerNode,
          m.blocksTouched, m.totalOps, m.reads, m.writes, m.readMisses,
          m.writeMisses, m.writeFaults, m.silentUpgrades,
          m.invalidationsSent, m.downgrades, m.interventions})
        h.word(v);
    for (const auto &e : tr.events())
        for (std::uint64_t v :
             {std::uint64_t{e.pid}, std::uint64_t{e.dir}, e.pc, e.block,
              e.invalidated.raw(), e.readers.raw(), e.prevWriterPc,
              std::uint64_t{e.prevWriterPid},
              std::uint64_t{e.hasPrevWriter}, e.prevEvent})
            h.word(v);
    return hex(h);
}

/** FNV-1a over every `protocol.*` counter and histogram in
 *  @p shard, path names included. */
std::string
counterDigest(const obs::StatsRegistry &shard)
{
    Fnv h;
    for (const std::string &path : shard.paths()) {
        if (path.rfind("protocol.", 0) != 0)
            continue;
        h.bytes(path.data(), path.size());
        if (const auto *c = shard.findCounter(path)) {
            h.word(c->value);
        } else if (const Histogram *hist = shard.findHistogram(path)) {
            h.word(hist->size());
            for (std::size_t i = 0; i < hist->size(); ++i)
                h.word(hist->bucket(i));
            h.word(hist->overflow());
            h.word(hist->total());
        } else {
            ADD_FAILURE() << path << " is neither counter nor histogram";
        }
    }
    return hex(h);
}

struct DigestCase
{
    const char *label;
    unsigned nodes;
    ProtocolKind protocol;
    PlacementPolicy placement;
    /** Run with an `inter(pid+pc8)2` online forwarder attached. */
    bool online;
    /** One trace digest per workload, in workloadNames() order. */
    std::array<const char *, 7> digests;
    /** One counterDigest() per workload, in the same order. */
    std::array<const char *, 7> counterDigests;
};

void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << c.label;
}

/** Generate workload @p name under @p c; the machine exports its
 *  counters into @p shard, not the process-wide registry (whose
 *  readers-per-kill histogram is sized by the node count). */
trace::SharingTrace
generate(const DigestCase &c, const std::string &name,
         obs::StatsRegistry &shard)
{
    workloads::WorkloadParams params;
    params.nNodes = c.nodes;
    params.seed = digestSeed;
    params.scale = digestScale;
    obs::ScopedRegistry route(shard);
    mem::MachineConfig cfg;
    cfg.nNodes = c.nodes;
    cfg.protocol = c.protocol;
    cfg.placement = c.placement;
    if (!c.online)
        return workloads::generateTrace(name, params, cfg);

    // generateTrace() with the forwarder attached to the machine.
    sim::Machine machine(cfg, name, params.seed ^ 0xfeedbeef);
    forward::OnlineForwarder fwd(
        sweep::parseScheme("inter(pid+pc8)2")->scheme, cfg.nNodes);
    fwd.attach(machine.controller());
    workloads::makeWorkload(name, params)->run(machine);
    return machine.finish();
}

class SimulatorDigest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(SimulatorDigest, EveryWorkloadTraceMatchesItsDigest)
{
    const DigestCase &c = GetParam();
    const auto &names = workloads::workloadNames();
    ASSERT_EQ(names.size(), c.digests.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        obs::StatsRegistry shard;
        EXPECT_EQ(traceDigest(generate(c, names[i], shard)), c.digests[i])
            << names[i] << " under " << c.label;
    }
}

TEST_P(SimulatorDigest, EveryWorkloadCounterSetMatchesItsDigest)
{
    const DigestCase &c = GetParam();
    const auto &names = workloads::workloadNames();
    ASSERT_EQ(names.size(), c.counterDigests.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        obs::StatsRegistry shard;
        generate(c, names[i], shard);
        ASSERT_TRUE(shard.findCounter("protocol.l1_hits"));
        EXPECT_EQ(counterDigest(shard), c.counterDigests[i])
            << names[i] << " under " << c.label;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SimulatorDigest,
    ::testing::Values(
        DigestCase{"msi_first_touch_16", 16, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, false,
                   {"c876b68bb7e22182", "b63cac9277900e2e", "556f6c627ba4138c",
                    "cf0d27d60bf1c13e", "438010994f60365a", "da5eb922f4ee724c",
                    "09cc977bffafd682"},
                   {"8d1b6587ace76807", "7e95fd0b70267d50", "752f2e54ab8f5871",
                    "e6931a404c6c749f", "ffc52d589a87b309", "18e337ce08f00b59",
                    "0eb5d0e5c75bd2f4"}},
        DigestCase{"msi_interleaved_16", 16, ProtocolKind::MSI,
                   PlacementPolicy::Interleaved, false,
                   {"7dda9b0c43c9472c", "24c27a62c5e00417", "351ed22fba69013c",
                    "84b786a75bcced62", "add235bf7bbf529a", "03994021fcfb73e2",
                    "647d2f7b9825efea"},
                   {"3024624a61af71ea", "6fc309e72d92c126", "78b28368fea2f418",
                    "ae0bfb96bbd93f58", "d14d727b9e608db9", "2a0f90968ee0cd5c",
                    "e5c8fe48f583e227"}},
        DigestCase{"mesi_first_touch_16", 16, ProtocolKind::MESI,
                   PlacementPolicy::FirstTouch, false,
                   {"ac21a16640b9ff64", "b63cac9277900e2e", "3f049fe46b6ee599",
                    "ce7831d6252e7c7a", "e13249927e3aa88d", "da5eb922f4ee724c",
                    "09cc977bffafd682"},
                   {"af4242d16976c680", "7e95fd0b70267d50", "01c93941c4b9b98b",
                    "e3660460891556e5", "8e0f80b802a450bd", "18e337ce08f00b59",
                    "0eb5d0e5c75bd2f4"}},
        DigestCase{"mesi_interleaved_16", 16, ProtocolKind::MESI,
                   PlacementPolicy::Interleaved, false,
                   {"3462a472a148649d", "24c27a62c5e00417", "1e5104410323e4fd",
                    "04ee2e2e1fc28096", "da360387c922880d", "03994021fcfb73e2",
                    "647d2f7b9825efea"},
                   {"54bcea2bbb245d11", "6fc309e72d92c126", "6bdc13e23b8056a3",
                    "a8f87febc25066ea", "0dc7a79d387bb7e6", "2a0f90968ee0cd5c",
                    "e5c8fe48f583e227"}},
        DigestCase{"msi_first_touch_4", 4, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, false,
                   {"97211d029f034d1d", "a0c05e062d93fbc0", "ee9d007a83e02d8b",
                    "00664074b065d644", "3bd3f38b22f03002", "1ec36c9614dfd8fc",
                    "b8ddcbeab8f51d39"},
                   {"c4e8879b70488c4c", "641ac1d9b64c4785", "4510dc4e439d1118",
                    "14415026724b90d5", "da4d2759569eaf85", "8933782bdc2f0769",
                    "3418f493abc53df1"}},
        DigestCase{"msi_first_touch_64", 64, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, false,
                   {"3c4b75e4dff84075", "0289589c4cd88ff3", "df3653e2f8fbbbfe",
                    "2e1549d1d42d2550", "00bc466bfe7f09bf", "b3ab422502104596",
                    "8e6c5d125880634b"},
                   {"278218fe26b55d7f", "48c1c66ff4e29879", "e4e03dc1fa03abf9",
                    "13ab0c8e56e792c8", "7896a13548dc280f", "7919fe3e9a1424d0",
                    "d320b0ced6971323"}},
        DigestCase{"msi_first_touch_16_online", 16, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, true,
                   {"620710ba8ab1e1d9", "766b04978e2d60fa", "a54cddddc27070df",
                    "ac227d1035cd27d2", "94db4bfba4429a55", "f267e4476b89583a",
                    "d6e9b388396c890c"},
                   {"3ef00ba4ddaf8bbd", "a38e4276b84b92f9", "165608eca38b3d15",
                    "8d5ee1fe413262ba", "3f644ab87c662299", "9910bcc1b3ce4781",
                    "a4a0e693188d239f"}}),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
