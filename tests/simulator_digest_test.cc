/**
 * @file
 * Pins the simulator's output: an FNV-1a digest of every workload's
 * trace (all events and all metadata) at a small scale, for each
 * protocol and placement policy at 16 nodes, for 4 and 64 nodes, and
 * with the online forwarding hook attached.  Any change in the
 * workloads, the machine's interleaving, the caches or the protocol
 * engine that changes a single event bit fails here.
 *
 * The committed digests were computed before the controller's
 * per-block record store replaced its hash containers.  On a failure
 * the message prints the digest the current code produces; refresh a
 * digest only for a change that is meant to alter the traces.
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
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, h.value());
    return hex;
}

struct DigestCase
{
    const char *label;
    unsigned nodes;
    ProtocolKind protocol;
    PlacementPolicy placement;
    /** Run with an `inter(pid+pc8)2` online forwarder attached. */
    bool online;
    /** One digest per workload, in workloadNames() order. */
    std::array<const char *, 7> digests;
};

void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << c.label;
}

trace::SharingTrace
generate(const DigestCase &c, const std::string &name)
{
    workloads::WorkloadParams params;
    params.nNodes = c.nodes;
    params.seed = digestSeed;
    params.scale = digestScale;
    // Keep the machines' counters out of the process-wide registry:
    // its readers-per-kill histogram is sized by the node count.
    obs::StatsRegistry shard;
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
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(traceDigest(generate(c, names[i])), c.digests[i])
            << names[i] << " under " << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SimulatorDigest,
    ::testing::Values(
        DigestCase{"msi_first_touch_16", 16, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, false,
                   {"c876b68bb7e22182", "b63cac9277900e2e", "556f6c627ba4138c",
                    "cf0d27d60bf1c13e", "438010994f60365a", "da5eb922f4ee724c",
                    "09cc977bffafd682"}},
        DigestCase{"msi_interleaved_16", 16, ProtocolKind::MSI,
                   PlacementPolicy::Interleaved, false,
                   {"7dda9b0c43c9472c", "24c27a62c5e00417", "351ed22fba69013c",
                    "84b786a75bcced62", "add235bf7bbf529a", "03994021fcfb73e2",
                    "647d2f7b9825efea"}},
        DigestCase{"mesi_first_touch_16", 16, ProtocolKind::MESI,
                   PlacementPolicy::FirstTouch, false,
                   {"ac21a16640b9ff64", "b63cac9277900e2e", "3f049fe46b6ee599",
                    "ce7831d6252e7c7a", "e13249927e3aa88d", "da5eb922f4ee724c",
                    "09cc977bffafd682"}},
        DigestCase{"mesi_interleaved_16", 16, ProtocolKind::MESI,
                   PlacementPolicy::Interleaved, false,
                   {"3462a472a148649d", "24c27a62c5e00417", "1e5104410323e4fd",
                    "04ee2e2e1fc28096", "da360387c922880d", "03994021fcfb73e2",
                    "647d2f7b9825efea"}},
        DigestCase{"msi_first_touch_4", 4, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, false,
                   {"97211d029f034d1d", "a0c05e062d93fbc0", "ee9d007a83e02d8b",
                    "00664074b065d644", "3bd3f38b22f03002", "1ec36c9614dfd8fc",
                    "b8ddcbeab8f51d39"}},
        DigestCase{"msi_first_touch_64", 64, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, false,
                   {"3c4b75e4dff84075", "0289589c4cd88ff3", "df3653e2f8fbbbfe",
                    "2e1549d1d42d2550", "00bc466bfe7f09bf", "b3ab422502104596",
                    "8e6c5d125880634b"}},
        DigestCase{"msi_first_touch_16_online", 16, ProtocolKind::MSI,
                   PlacementPolicy::FirstTouch, true,
                   {"620710ba8ab1e1d9", "766b04978e2d60fa", "a54cddddc27070df",
                    "ac227d1035cd27d2", "94db4bfba4429a55", "f267e4476b89583a",
                    "d6e9b388396c890c"}}),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
