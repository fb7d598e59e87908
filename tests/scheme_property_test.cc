/**
 * @file
 * Parameterized property sweeps over the scheme space on a real
 * (small-scale) workload trace: conservation and range invariants
 * that every scheme/update-mode combination must satisfy, plus
 * notation round-trips for the whole enumerated space.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "common/rng.hh"
#include "predict/evaluator.hh"
#include "sweep/batch.hh"
#include "sweep/name.hh"
#include "sweep/space.hh"
#include "workloads/registry.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::evaluateTrace;
using predict::FunctionKind;
using predict::SchemeSpec;
using predict::UpdateMode;

/** One shared small trace (mp3d at tiny scale: all pattern types). */
const trace::SharingTrace &
sharedTrace()
{
    static const trace::SharingTrace tr = [] {
        workloads::WorkloadParams params;
        params.seed = 31;
        params.scale = 0.05;
        return workloads::generateTrace("mp3d", params);
    }();
    return tr;
}

struct SweepCase
{
    const char *scheme;
    UpdateMode mode;
};

/** Print by value: the default byte dump would put the literal's
 *  address (random under ASLR) into the discovered test name. */
void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << c.scheme << ' ' << predict::updateModeName(c.mode);
}

class SchemePropertyTest : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(SchemePropertyTest, ConservationAndRanges)
{
    const auto &tr = sharedTrace();
    auto parsed = sweep::parseScheme(GetParam().scheme);
    ASSERT_TRUE(parsed.has_value()) << GetParam().scheme;

    Confusion c = evaluateTrace(tr, parsed->scheme, GetParam().mode);

    // Decisions are conserved: one per node per event.
    EXPECT_EQ(c.decisions(), tr.decisions());
    // Actual positives are a property of the trace, not the scheme.
    EXPECT_EQ(c.actualPositives(), tr.sharingEvents());
    // All derived metrics are probabilities.
    for (double m : {c.prevalence(), c.sensitivity(), c.pvp(),
                     c.specificity(), c.pvn(), c.accuracy()}) {
        EXPECT_GE(m, 0.0);
        EXPECT_LE(m, 1.0);
    }
    // Evaluation is repeatable.
    EXPECT_EQ(evaluateTrace(tr, parsed->scheme, GetParam().mode), c);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemePropertyTest,
    ::testing::Values(
        SweepCase{"last()1", UpdateMode::Direct},
        SweepCase{"last(pid+pc8)1", UpdateMode::Forwarded},
        SweepCase{"last(pid+mem8)1", UpdateMode::Ordered},
        SweepCase{"union(dir+add14)4", UpdateMode::Direct},
        SweepCase{"union(pid+dir+add4)2", UpdateMode::Forwarded},
        SweepCase{"union(add16)4", UpdateMode::Ordered},
        SweepCase{"inter(pid+add6)4", UpdateMode::Direct},
        SweepCase{"inter(pid+pc8)2", UpdateMode::Forwarded},
        SweepCase{"inter(pc4+dir+add6)3", UpdateMode::Ordered},
        SweepCase{"pas(pid+add4)2", UpdateMode::Direct},
        SweepCase{"pas(dir+add4)1", UpdateMode::Forwarded},
        SweepCase{"overlap-last(pid+pc8)1", UpdateMode::Direct},
        SweepCase{"overlap-last(dir+add8)1", UpdateMode::Ordered}));

/** Union/inter dominance on the real trace, across depths & modes. */
class DominanceTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DominanceTest, UnionDominatesInterInPositives)
{
    const auto &tr = sharedTrace();
    predict::IndexSpec idx;
    idx.usePid = true;
    idx.addrBits = 6;
    for (auto mode : {UpdateMode::Direct, UpdateMode::Forwarded,
                      UpdateMode::Ordered}) {
        Confusion u = evaluateTrace(
            tr, SchemeSpec{idx, FunctionKind::Union, GetParam()}, mode);
        Confusion i = evaluateTrace(
            tr, SchemeSpec{idx, FunctionKind::Inter, GetParam()}, mode);
        EXPECT_GE(u.tp, i.tp);
        EXPECT_GE(u.fp, i.fp);
        EXPECT_GE(i.tn, u.tn);
        EXPECT_GE(i.fn, u.fn);
    }
}

TEST_P(DominanceTest, OverlapLastIsAFilteredLast)
{
    const auto &tr = sharedTrace();
    predict::IndexSpec idx;
    idx.usePid = true;
    idx.pcBits = GetParam(); // reuse the parameter as pc width
    Confusion last = evaluateTrace(
        tr, SchemeSpec{idx, FunctionKind::Union, 1},
        UpdateMode::Forwarded);
    Confusion overlap = evaluateTrace(
        tr, SchemeSpec{idx, FunctionKind::OverlapLast, 1},
        UpdateMode::Forwarded);
    // Overlap-last only ever suppresses predictions.
    EXPECT_LE(overlap.tp, last.tp);
    EXPECT_LE(overlap.fp, last.fp);
}

INSTANTIATE_TEST_SUITE_P(Depths, DominanceTest,
                         ::testing::Values(2u, 3u, 4u));

TEST(SchemeSpace, EveryEnumeratedSchemeRoundTripsThroughNotation)
{
    sweep::SpaceSpec spec;
    auto schemes = sweep::enumerateSchemes(spec);
    ASSERT_GT(schemes.size(), 1000u);
    for (const auto &s : schemes) {
        auto text = sweep::formatScheme(s);
        auto parsed = sweep::parseScheme(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(parsed->scheme, s) << text;
    }
}

TEST(SchemeSpace, EveryEnumeratedSchemeIsConstructible)
{
    sweep::SpaceSpec spec;
    spec.maxBits = 1ull << 18; // keep the test light
    for (const auto &s : sweep::enumerateSchemes(spec)) {
        auto table = s.makeTable(16);
        EXPECT_EQ(table.sizeBits(), s.sizeBits(16))
            << sweep::formatScheme(s);
    }
}

// ---------------------------------------------------------------------
// The same invariants, asserted through the event-major batched kernel
// (sweep::BatchEvaluator) — the kernel must uphold every scheme
// property the reference evaluator does.

/** Builder that wires invalidation/last-writer chains (needed so
 *  forwarded and ordered update see real writer history). */
class ChainedTraceBuilder
{
  public:
    explicit ChainedTraceBuilder(unsigned n_nodes)
        : trace_("built", n_nodes)
    {
    }

    void
    writeEvent(NodeId pid, Pc pc, Addr block, std::uint64_t readers)
    {
        trace::CoherenceEvent ev;
        ev.pid = pid;
        ev.pc = pc;
        ev.dir = static_cast<NodeId>(block % trace_.nNodes());
        ev.block = block;
        ev.readers = SharingBitmap(readers);
        auto it = lastOnBlock_.find(block);
        if (it != lastOnBlock_.end()) {
            const auto &prev = trace_.events()[it->second];
            ev.invalidated = prev.readers;
            ev.prevWriterPid = prev.pid;
            ev.prevWriterPc = prev.pc;
            ev.hasPrevWriter = true;
            ev.prevEvent = it->second;
        }
        lastOnBlock_[block] = trace_.append(ev);
    }

    trace::SharingTrace take() { return std::move(trace_); }

  private:
    trace::SharingTrace trace_;
    std::unordered_map<Addr, EventSeq> lastOnBlock_;
};

TEST(BatchedKernelProperty, PureAddressSchemesImmuneToUpdateMode)
{
    // Paper section 3.4: schemes whose index carries no writer
    // identity (no pid, no pc) and maps blocks without aliasing see
    // the same feedback stream under all three update mechanisms.
    // The reference evaluator asserts this per scheme; here the whole
    // batch must agree, and match the reference.
    Rng rng(7);
    ChainedTraceBuilder b(16);
    for (int i = 0; i < 1000; ++i)
        b.writeEvent(static_cast<NodeId>(rng.below(16)),
                     0x400 + 4 * rng.below(64), rng.below(64),
                     rng() & 0xffff);
    auto tr = b.take();

    std::vector<SchemeSpec> schemes;
    for (bool use_dir : {false, true}) {
        predict::IndexSpec idx;
        idx.useDir = use_dir;
        idx.addrBits = 6; // full width for blocks < 64: no aliasing
        for (auto kind : {FunctionKind::Union, FunctionKind::Inter,
                          FunctionKind::PAs,
                          FunctionKind::OverlapLast}) {
            for (unsigned depth : {1u, 2u, 4u}) {
                if (kind == FunctionKind::OverlapLast && depth != 1)
                    continue;
                schemes.push_back(SchemeSpec{idx, kind, depth});
            }
        }
    }

    sweep::BatchEvaluator batch(schemes, 16);
    auto direct = batch.evaluateTrace(tr, UpdateMode::Direct);
    auto fwd = batch.evaluateTrace(tr, UpdateMode::Forwarded);
    auto ord = batch.evaluateTrace(tr, UpdateMode::Ordered);
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        EXPECT_EQ(direct[i], fwd[i]) << sweep::formatScheme(schemes[i]);
        EXPECT_EQ(direct[i], ord[i]) << sweep::formatScheme(schemes[i]);
        EXPECT_EQ(direct[i], evaluateTrace(tr, schemes[i],
                                           UpdateMode::Direct))
            << sweep::formatScheme(schemes[i]);
    }
}

TEST(BatchedKernelProperty, BoundsAndConservationOnRandomizedBatches)
{
    // Randomized batches over the real workload trace: every scheme's
    // counts must conserve decisions and actual positives
    // (TP + FN == the trace's sharing events), and every derived
    // metric must be a probability.
    const auto &tr = sharedTrace();
    Rng rng(43);
    std::vector<SchemeSpec> schemes;
    for (unsigned cs = 0; cs < 16; ++cs) {
        for (auto kind : {FunctionKind::Union, FunctionKind::Inter,
                          FunctionKind::OverlapLast,
                          FunctionKind::PAs}) {
            predict::IndexSpec idx;
            idx.usePid = (cs & 8) != 0;
            idx.pcBits = cs & 4 ? 1 + unsigned(rng.below(4)) : 0;
            idx.useDir = (cs & 2) != 0;
            idx.addrBits = cs & 1 ? 1 + unsigned(rng.below(4)) : 0;
            unsigned depth = kind == FunctionKind::PAs
                                 ? 1 + unsigned(rng.below(2))
                                 : 1 + unsigned(rng.below(4));
            schemes.push_back(SchemeSpec{idx, kind, depth});
        }
    }

    sweep::BatchEvaluator batch(schemes, tr.nNodes());
    for (auto mode : {UpdateMode::Direct, UpdateMode::Forwarded,
                      UpdateMode::Ordered}) {
        auto results = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(results.size(), schemes.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const Confusion &c = results[i];
            const auto what = sweep::formatScheme(schemes[i], mode);
            EXPECT_EQ(c.decisions(), tr.decisions()) << what;
            EXPECT_EQ(c.actualPositives(), tr.sharingEvents()) << what;
            EXPECT_EQ(c.tp + c.fn, tr.sharingEvents()) << what;
            for (double m : {c.prevalence(), c.sensitivity(), c.pvp(),
                             c.specificity(), c.pvn(), c.accuracy()}) {
                EXPECT_GE(m, 0.0) << what;
                EXPECT_LE(m, 1.0) << what;
            }
        }
    }
}

} // namespace
