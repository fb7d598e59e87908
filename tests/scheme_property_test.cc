/**
 * @file
 * Parameterized property sweeps over the scheme space on a real
 * (small-scale) workload trace: conservation and range invariants
 * that every scheme/update-mode combination must satisfy, notation
 * round-trips for the whole enumerated space, and the learnKey
 * invariant the batched kernel's shared learned blocks rest on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/rng.hh"
#include "predict/evaluator.hh"
#include "predict/step.hh"
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

// ---------------------------------------------------------------------
// learnKey: schemes on one index whose keys are equal hold the same
// learned state after every event, on the reference evaluator.

/** The window history as a table function, so the reference
 *  PredictorTable drives it exactly as it drives the window rings. */
class WindowHistoryFunction : public predict::PredictionFunction
{
  public:
    explicit WindowHistoryFunction(unsigned depth) : depth_(depth) {}

    FunctionKind kind() const override { return FunctionKind::Union; }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return depth_ + 1; }
    std::uint64_t entryBits(unsigned) const override { return 0; }
    SharingBitmap predict(const std::uint64_t *) const override
    {
        return SharingBitmap();
    }
    void update(std::uint64_t *state, SharingBitmap fb) const override
    {
        predict::windowHistoryPush(state, depth_, fb.raw());
    }
    bool validEntry(const std::uint64_t *state) const override
    {
        return state[0] <= depth_;
    }

  private:
    unsigned depth_;
};

/** Window members, PAs, and a perceptron grid whose Bloom widths
 *  repeat every (depth, weight width, theta) key, on @p idx. */
std::vector<SchemeSpec>
learnKeySchemes(const predict::IndexSpec &idx)
{
    std::vector<SchemeSpec> schemes;
    for (unsigned depth = 1; depth <= 4; ++depth) {
        schemes.push_back(SchemeSpec{idx, FunctionKind::Union, depth});
        if (depth > 1)
            schemes.push_back(SchemeSpec{idx, FunctionKind::Inter, depth});
    }
    schemes.push_back(SchemeSpec{idx, FunctionKind::OverlapLast, 1});
    for (unsigned depth : {1u, 2u, 2u})
        schemes.push_back(SchemeSpec{idx, FunctionKind::PAs, depth});
    for (unsigned depth : {2u, 4u})
        for (unsigned wb : {4u, 5u})
            for (unsigned theta : {1u, 3u})
                for (unsigned bloom : {0u, 8u, 16u}) {
                    SchemeSpec s{idx, FunctionKind::Perceptron, depth};
                    s.perc.weightBits = wb;
                    s.perc.theta = theta;
                    s.perc.bloomBits = bloom;
                    schemes.push_back(s);
                }
    return schemes;
}

/** Entry @p e of @p table. */
const std::uint64_t *
entryOf(const predict::PredictorTable &table, std::uint64_t e)
{
    return table.rawState().data() + e * table.entryWords();
}

/** Where entry @p e of the schemes of one key differ in learned
 *  state: the perceptron's history and weights, a PAs entry, or a
 *  window ring read newest first against the shared history @p h.
 *  Empty when they agree. */
std::string
learnedStateMismatch(const std::vector<SchemeSpec> &schemes,
                     const std::vector<predict::PredictorTable> &tables,
                     const std::vector<std::size_t> &members,
                     const std::uint64_t *h, std::uint64_t e)
{
    const SchemeSpec &first = schemes[members.front()];
    std::size_t learned = tables[members.front()].entryWords();
    if (first.kind == FunctionKind::Perceptron)
        learned = predict::PerceptronFunction(first.depth,
                                              tables.front().nNodes(),
                                              first.perc)
                      .learnedWords();
    for (std::size_t i : members) {
        const std::uint64_t *st = entryOf(tables[i], e);
        const auto who = [&] { return sweep::formatScheme(schemes[i]); };
        switch (predict::learnKey(schemes[i]).kind) {
          case predict::LearnKey::Kind::WindowHistory: {
            const bool overlap = schemes[i].kind == FunctionKind::OverlapLast;
            const unsigned d = overlap ? 2 : schemes[i].depth;
            const std::uint64_t count =
                overlap ? st[0] : st[0] & 0xffffffffu;
            if (count != std::min<std::uint64_t>(h[0], d))
                return who() + ": update count";
            for (unsigned j = 0; j < d; ++j) {
                const std::uint64_t slot =
                    overlap ? st[1 + j] : predict::windowRingSlot(st, d, j);
                if (slot != h[1 + j])
                    return who() + ": slot " + std::to_string(j);
            }
            break;
          }
          case predict::LearnKey::Kind::PAs:
          case predict::LearnKey::Kind::Perceptron: {
            const std::uint64_t *ref =
                entryOf(tables[members.front()], e);
            for (std::size_t w = 0; w < learned; ++w)
                if (st[w] != ref[w])
                    return who() + ": word " + std::to_string(w) + " vs " +
                           sweep::formatScheme(first);
            break;
          }
        }
    }
    return "";
}

/** 4000 writes over 48 blocks from 12 writers x 8 pcs with random
 *  reader sets: every entry builds long, aliased writer chains. */
const trace::SharingTrace &
keyTrace()
{
    static const trace::SharingTrace tr = [] {
        Rng rng(59);
        ChainedTraceBuilder b(16);
        for (int i = 0; i < 4000; ++i)
            b.writeEvent(static_cast<NodeId>(rng.below(12)),
                         0x400 + 4 * rng.below(8), rng.below(48),
                         rng.below(3) ? rng() & rng() & 0xffff
                                      : rng() & 0xffff);
        return b.take();
    }();
    return tr;
}

void
checkEqualKeysShareLearnedState(UpdateMode mode)
{
    const auto &tr = keyTrace();
    const unsigned n_nodes = tr.nNodes();
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    std::vector<predict::IndexSpec> indices(2);
    indices[0].usePid = true;
    indices[0].addrBits = 3;
    indices[1].pcBits = 4;
    indices[1].addrBits = 2;
    indices[1].hashed = true;

    std::vector<SharingBitmap> ordered_fb;
    if (mode == UpdateMode::Ordered)
        ordered_fb = predict::orderedFeedback(tr);

    for (const predict::IndexSpec &idx : indices) {
        SCOPED_TRACE(idx.fieldsName());
        const std::vector<SchemeSpec> schemes = learnKeySchemes(idx);
        std::vector<predict::PredictorTable> tables;
        for (const SchemeSpec &s : schemes)
            tables.push_back(s.makeTable(n_nodes));
        constexpr unsigned history_depth = 4;
        predict::PredictorTable history(
            idx, std::make_shared<WindowHistoryFunction>(history_depth),
            n_nodes);

        // The schemes of each key, in list order.
        std::vector<predict::LearnKey> keys;
        std::vector<std::vector<std::size_t>> sets;
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            const predict::LearnKey key = predict::learnKey(schemes[i]);
            const std::size_t k = static_cast<std::size_t>(
                std::find(keys.begin(), keys.end(), key) - keys.begin());
            if (k == keys.size()) {
                keys.push_back(key);
                sets.emplace_back();
            }
            sets[k].push_back(i);
        }
        // Window history, PAs 1, PAs 2 (twice), and 8 perceptron keys
        // of three Bloom widths each.
        ASSERT_EQ(sets.size(), 11u);

        EventSeq seq = 0;
        for (const trace::CoherenceEvent &ev : tr.events()) {
            const SharingBitmap fb = mode == UpdateMode::Ordered
                                         ? ordered_fb[seq]
                                         : SharingBitmap();
            for (predict::PredictorTable &t : tables)
                predict::stepEvent(t, ev, mode, fb);
            predict::stepEvent(history, ev, mode, fb);
            // Only the predicting and the learning entry can change.
            const predict::Learner who = predict::learner(ev, mode);
            for (std::uint64_t e :
                 {idx.indexOf(ev, node_bits),
                  idx.index(who.pid, who.pc, ev.dir, ev.block,
                            node_bits)}) {
                for (const auto &members : sets)
                    ASSERT_EQ(learnedStateMismatch(schemes, tables,
                                                   members,
                                                   entryOf(history, e), e),
                              "")
                        << "entry " << e << " after event " << seq;
            }
            ++seq;
        }
    }
}

TEST(LearnKeyProperty, EqualKeysShareLearnedStateDirect)
{
    checkEqualKeysShareLearnedState(UpdateMode::Direct);
}

TEST(LearnKeyProperty, EqualKeysShareLearnedStateForwarded)
{
    checkEqualKeysShareLearnedState(UpdateMode::Forwarded);
}

TEST(LearnKeyProperty, EqualKeysShareLearnedStateOrdered)
{
    checkEqualKeysShareLearnedState(UpdateMode::Ordered);
}

TEST(LearnKeyProperty, KeyLeavesOutOnlyOutputFields)
{
    predict::IndexSpec idx;
    idx.addrBits = 4;
    const auto key = [&](FunctionKind kind, unsigned depth,
                         unsigned wb = 5, unsigned theta = 2,
                         unsigned bloom = 0) {
        SchemeSpec s{idx, kind, depth};
        s.perc = {wb, theta, bloom};
        return predict::learnKey(s);
    };
    // Window depth and union/inter/overlap-last share one history.
    EXPECT_EQ(key(FunctionKind::Union, 1), key(FunctionKind::Inter, 4));
    EXPECT_EQ(key(FunctionKind::Union, 3),
              key(FunctionKind::OverlapLast, 1));
    // PAs depth is learned.
    EXPECT_EQ(key(FunctionKind::PAs, 2), key(FunctionKind::PAs, 2));
    EXPECT_NE(key(FunctionKind::PAs, 1), key(FunctionKind::PAs, 2));
    EXPECT_NE(key(FunctionKind::PAs, 1), key(FunctionKind::Union, 1));
    // Bloom width is output-only; depth, weight width and theta are
    // learned.
    const auto perc = key(FunctionKind::Perceptron, 2, 5, 2, 0);
    EXPECT_EQ(perc, key(FunctionKind::Perceptron, 2, 5, 2, 16));
    EXPECT_NE(perc, key(FunctionKind::Perceptron, 4, 5, 2, 0));
    EXPECT_NE(perc, key(FunctionKind::Perceptron, 2, 4, 2, 0));
    EXPECT_NE(perc, key(FunctionKind::Perceptron, 2, 5, 3, 0));
}

} // namespace
