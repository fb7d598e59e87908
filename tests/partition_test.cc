/**
 * @file
 * Tests for the per-trace partition rule (sweep/partition.hh) and the
 * batched sweep that copies results across schemes by it.
 *
 * The rule lets ParallelSweep evaluate one scheme per class and copy
 * its Confusion to the others, so any unsound merge shows up as an
 * exact-count mismatch against the reference kernel, which evaluates
 * every scheme.  Scheme lists here force sharing three ways — unhashed
 * widths past the trace's field range, hashed specs of one field set
 * and width under different pc/addr splits, and hashed chains that
 * collide at small widths — and hand-built traces pin down the three
 * ways the rule can go wrong: merging equal counts that do not refine
 * each other, ignoring forwarded update's learner tuples, and
 * dropping a function field from the key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "obs/registry.hh"
#include "predict/evaluator.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/partition.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::FunctionKind;
using predict::IndexSpec;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;
using trace::CoherenceEvent;
using trace::SharingTrace;

constexpr UpdateMode kModes[] = {UpdateMode::Direct,
                                 UpdateMode::Forwarded,
                                 UpdateMode::Ordered};

IndexSpec
indexOf(bool pid, unsigned pc_bits, bool dir, unsigned addr_bits,
        bool hashed = false)
{
    IndexSpec idx;
    idx.usePid = pid;
    idx.pcBits = pc_bits;
    idx.useDir = dir;
    idx.addrBits = addr_bits;
    idx.hashed = hashed;
    return idx;
}

SchemeSpec
perceptronOf(const IndexSpec &idx, unsigned weight_bits, unsigned theta,
             unsigned bloom_bits)
{
    SchemeSpec s{idx, FunctionKind::Perceptron, 2};
    s.perc.weightBits = weight_bits;
    s.perc.theta = theta;
    s.perc.bloomBits = bloom_bits;
    return s;
}

/** Appends events with real invalidation / previous-writer chains. */
class TraceBuilder
{
  public:
    TraceBuilder(const char *name, unsigned n_nodes) : trace_(name, n_nodes)
    {
    }

    TraceBuilder &
    write(NodeId pid, Pc pc, Addr block, std::uint64_t readers)
    {
        CoherenceEvent ev;
        ev.pid = pid;
        ev.pc = pc;
        ev.dir = static_cast<NodeId>(block % trace_.nNodes());
        ev.block = block;
        ev.readers = SharingBitmap(readers);
        auto it = last_.find(block);
        if (it != last_.end()) {
            const CoherenceEvent &prev = trace_.events()[it->second];
            ev.invalidated = prev.readers;
            ev.prevWriterPid = prev.pid;
            ev.prevWriterPc = prev.pc;
            ev.hasPrevWriter = true;
            ev.prevEvent = it->second;
        }
        last_[block] = trace_.append(ev);
        return *this;
    }

    SharingTrace take() { return std::move(trace_); }

  private:
    SharingTrace trace_;
    std::unordered_map<Addr, EventSeq> last_;
};

/**
 * Random writes over 64 blocks from @p n_pcs store pcs (pc words
 * 0x100 + k).  With @p cut_in, the trace starts mid-run: every
 * block's first write names a writer from before the cut (a pc no
 * event stores from, a random pid), so forwarded update trains
 * entries through learner tuples no event writes.
 */
SharingTrace
randomTrace(Rng &rng, unsigned n_nodes, std::size_t events,
            unsigned n_pcs, bool cut_in, const char *name)
{
    const std::uint64_t mask = n_nodes >= 64
                                   ? ~std::uint64_t(0)
                                   : (std::uint64_t(1) << n_nodes) - 1;
    TraceBuilder b(name, n_nodes);
    for (std::size_t i = 0; i < events; ++i) {
        const Addr block = rng.below(64);
        // Readers follow the block, with noise, so indices that keep
        // blocks apart learn something.
        std::uint64_t readers = (std::uint64_t(0x11) << (block % 8)) & mask;
        if (rng.below(3) == 0)
            readers ^= rng() & mask;
        b.write(static_cast<NodeId>(rng.below(n_nodes)),
                0x400 + 4 * rng.below(n_pcs), block, readers);
    }
    SharingTrace tr = b.take();
    if (cut_in) {
        for (CoherenceEvent &ev : tr.mutableEvents()) {
            if (!ev.hasPrevWriter) {
                ev.hasPrevWriter = true;
                ev.prevWriterPid = static_cast<NodeId>(rng.below(n_nodes));
                ev.prevWriterPc = 4 * (0x40 + rng.below(8));
                ev.invalidated = SharingBitmap(rng() & mask);
            }
        }
    }
    return tr;
}

void
expectSameConfusion(const Confusion &got, const Confusion &want,
                    const std::string &what)
{
    EXPECT_EQ(got.tp, want.tp) << what;
    EXPECT_EQ(got.fp, want.fp) << what;
    EXPECT_EQ(got.tn, want.tn) << what;
    EXPECT_EQ(got.fn, want.fn) << what;
}

bool
sameConfusion(const Confusion &a, const Confusion &b)
{
    return a.tp == b.tp && a.fp == b.fp && a.tn == b.tn && a.fn == b.fn;
}

/**
 * The batched sweep at 1 and 4 threads against the reference kernel,
 * bit for bit per trace, under @p mode.  @return the scheme-traces
 * the batched sweep shared (equal at both thread counts).
 */
std::uint64_t
expectSweepMatchesReference(const std::vector<SharingTrace> &suite,
                            const std::vector<SchemeSpec> &schemes,
                            UpdateMode mode)
{
    const auto want = sweep::ParallelSweep(2, sweep::SweepKernel::Reference)
                          .evaluate(suite, schemes, mode);
    std::uint64_t shared = 0;
    for (unsigned threads : {1u, 4u}) {
        obs::StatsRegistry reg;
        std::vector<SuiteResult> got;
        {
            obs::ScopedRegistry route(reg);
            got = sweep::ParallelSweep(threads, sweep::SweepKernel::Batched)
                      .evaluate(suite, schemes, mode);
        }
        EXPECT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            const std::string what = sweep::formatScheme(schemes[i]) + " " +
                                     predict::updateModeName(mode) + " @" +
                                     std::to_string(threads);
            EXPECT_EQ(got[i].scheme, schemes[i]) << what;
            expectSameConfusion(got[i].pooled, want[i].pooled, what);
            for (std::size_t t = 0; t < suite.size(); ++t) {
                EXPECT_EQ(got[i].perTrace[t].traceName, suite[t].name());
                expectSameConfusion(got[i].perTrace[t].confusion,
                                    want[i].perTrace[t].confusion,
                                    what + " on " + suite[t].name());
            }
        }
        const auto *counter = reg.findCounter("sweep.shared_scheme_traces");
        EXPECT_NE(counter, nullptr);
        if (counter == nullptr)
            continue;
        if (threads == 1)
            shared = counter->value;
        EXPECT_EQ(counter->value, shared) << threads << " threads";
    }
    return shared;
}

// ---------------------------------------------------------------------
// The rule on hand-computed cases

TEST(PartitionRule, SharedCountOnHandComputedCase)
{
    // Two store pcs (pc words 0x100, 0x101: one bit tells them apart)
    // and eight blocks (three bits).  pc2/pc4/pc8 split the tuples as
    // pc1 does, add4/add8 as add3 does; add2 is coarser (4 entries).
    TraceBuilder b("hand", 4);
    for (unsigned i = 0; i < 64; ++i)
        b.write(i % 4, 0x400 + 4 * (i / 8 % 2), i % 8, 1u << (i % 3));
    const std::vector<SharingTrace> suite = {b.take()};
    const std::vector<SchemeSpec> schemes = {
        SchemeSpec{indexOf(false, 2, false, 0), FunctionKind::Union, 1},
        SchemeSpec{indexOf(false, 4, false, 0), FunctionKind::Union, 1},
        SchemeSpec{indexOf(false, 2, false, 0), FunctionKind::Inter, 2},
        SchemeSpec{indexOf(false, 8, false, 0), FunctionKind::Union, 1},
        SchemeSpec{indexOf(false, 0, false, 2), FunctionKind::Union, 1},
        SchemeSpec{indexOf(false, 0, false, 4), FunctionKind::Union, 1},
        SchemeSpec{indexOf(false, 4, false, 0), FunctionKind::Inter, 2},
        SchemeSpec{indexOf(false, 0, false, 8), FunctionKind::Union, 1},
    };
    const sweep::PartitionClassifier classifier(schemes, 4);
    EXPECT_EQ(classifier.plans(), 6u);
    const sweep::TraceSharing got =
        classifier.classify(suite.front(), UpdateMode::Direct);
    const std::vector<std::size_t> want_rep = {0, 0, 2, 0, 4, 5, 2, 5};
    EXPECT_EQ(got.rep, want_rep);
    EXPECT_EQ(got.shared, 4u);
    EXPECT_EQ(got.classes, 3u);

    obs::StatsRegistry reg;
    {
        obs::ScopedRegistry route(reg);
        EXPECT_EQ(expectSweepMatchesReference(suite, schemes,
                                              UpdateMode::Direct),
                  4u);
        sweep::ParallelSweep(2).evaluate(suite, schemes, UpdateMode::Direct);
    }
    // The kernel walked only the four evaluated schemes.
    const auto *walked = reg.findCounter("batch.scheme_events");
    ASSERT_NE(walked, nullptr);
    EXPECT_EQ(walked->value, 4 * suite.front().events().size());
    const auto *classes = reg.findCounter("sweep.partition_classes");
    ASSERT_NE(classes, nullptr);
    EXPECT_EQ(classes->value, 3u);
    const auto *classify = reg.findSummary("sweep.classify_seconds");
    ASSERT_NE(classify, nullptr);
    EXPECT_EQ(classify->count(), 1u);
}

TEST(PartitionRule, EqualCountsWithoutRefinementDoNotShare)
{
    // pc1 and add1 both split the trace in two, but differently:
    // (pc A, block 0), (pc B, block 1), (pc A, block 1), (pc B,
    // block 0) ...  Readers follow the block, so a two-deep union
    // through one pc mixes both blocks' readers where one through a
    // block does not, and neither index refines the other.
    TraceBuilder b("crossed", 4);
    for (unsigned i = 0; i < 200; ++i) {
        const Addr block = (i + i / 2) % 2;
        b.write(i % 4, 0x400 + 4 * (i % 2), block, block ? 0x4 : 0x2);
    }
    const std::vector<SharingTrace> suite = {b.take()};
    const std::vector<SchemeSpec> schemes = {
        SchemeSpec{indexOf(false, 0, false, 1), FunctionKind::Union, 2},
        SchemeSpec{indexOf(false, 1, false, 0), FunctionKind::Union, 2},
    };
    for (UpdateMode mode : kModes) {
        EXPECT_FALSE(sameConfusion(
            predict::evaluateTrace(suite.front(), schemes[0], mode),
            predict::evaluateTrace(suite.front(), schemes[1], mode)));
        EXPECT_EQ(expectSweepMatchesReference(suite, schemes, mode), 0u);
    }
}

TEST(PartitionRule, ForwardedUpdateCountsLearnerTuples)
{
    // Node 0 writes every event, so pid+add1 splits the writers' tuples
    // exactly as add1 does.  But the trace starts mid-run: each
    // block's first write names node 3 as the dying version's writer,
    // so forwarded update trains pid+add1's (3, block) entry, which
    // nothing reads, where add1 trains the entry it then predicts
    // through.
    SharingTrace tr("cut", 4);
    for (unsigned i = 0; i < 40; ++i) {
        CoherenceEvent ev;
        ev.pid = 0;
        ev.pc = 0x400;
        ev.block = i % 2;
        ev.dir = static_cast<NodeId>(ev.block);
        ev.readers = SharingBitmap(0x4);
        ev.invalidated = SharingBitmap(0x4);
        ev.hasPrevWriter = true;
        ev.prevWriterPid = i < 2 ? 3 : 0;
        ev.prevWriterPc = 0x400;
        ev.prevEvent = i < 2 ? trace::noEvent : i - 2;
        tr.append(ev);
    }
    const std::vector<SharingTrace> suite = {std::move(tr)};
    const std::vector<SchemeSpec> schemes = {
        SchemeSpec{indexOf(false, 0, false, 1), FunctionKind::Union, 1},
        SchemeSpec{indexOf(true, 0, false, 1), FunctionKind::Union, 1},
    };
    EXPECT_FALSE(sameConfusion(
        predict::evaluateTrace(suite.front(), schemes[0],
                               UpdateMode::Forwarded),
        predict::evaluateTrace(suite.front(), schemes[1],
                               UpdateMode::Forwarded)));
    EXPECT_EQ(
        expectSweepMatchesReference(suite, schemes, UpdateMode::Forwarded),
        0u);
    // Direct update trains the writer's own entry: the two agree.
    EXPECT_EQ(
        expectSweepMatchesReference(suite, schemes, UpdateMode::Direct),
        1u);
}

TEST(PartitionRule, FunctionFieldsStayInTheKey)
{
    // pc4 and pc8 split a trace of eight pcs identically, so each
    // pair below shares its index partition and differs in exactly
    // one function field: kind, depth, weight width, theta, Bloom
    // width.  Only the exact twin on pc8 may copy.
    Rng rng(5);
    const std::vector<SharingTrace> suite = {
        randomTrace(rng, 16, 3000, 8, false, "eight-pcs")};
    const IndexSpec pc4 = indexOf(false, 4, false, 0);
    const IndexSpec pc8 = indexOf(false, 8, false, 0);
    const std::vector<std::pair<SchemeSpec, SchemeSpec>> pairs = {
        {{pc4, FunctionKind::Union, 2}, {pc8, FunctionKind::Inter, 2}},
        {{pc4, FunctionKind::Union, 2}, {pc8, FunctionKind::Union, 3}},
        {{pc4, FunctionKind::PAs, 1}, {pc8, FunctionKind::PAs, 2}},
        {perceptronOf(pc4, 5, 2, 0), perceptronOf(pc8, 2, 2, 0)},
        {perceptronOf(pc4, 5, 2, 0), perceptronOf(pc8, 5, 6, 0)},
        {perceptronOf(pc4, 5, 2, 0), perceptronOf(pc8, 5, 2, 16)},
    };
    for (const auto &[first, second] : pairs) {
        const std::vector<SchemeSpec> schemes = {first, second};
        SCOPED_TRACE(sweep::formatScheme(second));
        for (UpdateMode mode : kModes) {
            EXPECT_FALSE(sameConfusion(
                predict::evaluateTrace(suite.front(), first, mode),
                predict::evaluateTrace(suite.front(), second, mode)));
            EXPECT_EQ(expectSweepMatchesReference(suite, schemes, mode),
                      0u);
        }
        SchemeSpec twin = first;
        twin.index = pc8;
        EXPECT_EQ(expectSweepMatchesReference(suite, {first, twin},
                                              UpdateMode::Direct),
                  1u);
    }
}

// ---------------------------------------------------------------------
// Forced sharing under the batched sweep, against the reference

/**
 * Schemes that share heavily on randomTrace: unhashed pc and addr
 * widths well past its 8 or 32 pcs and 64 blocks, hashed specs of one
 * field set and width under several pc/addr splits, and hashed chains
 * that collide at narrow widths and not at wide ones; every family.
 */
std::vector<SchemeSpec>
sharingSchemes(unsigned n_nodes)
{
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    std::vector<IndexSpec> indices;
    for (bool pid : {false, true})
        for (bool dir : {false, true})
            for (unsigned pc : {0u, 2u, 5u, 7u, 12u})
                for (unsigned add : {0u, 3u, 6u, 9u, 14u})
                    if (indexOf(pid, pc, dir, add).indexBits(node_bits) <= 16)
                        indices.push_back(indexOf(pid, pc, dir, add));
    std::vector<SchemeSpec> schemes;
    for (const IndexSpec &idx : indices) {
        schemes.push_back({idx, FunctionKind::Union, 1});
        schemes.push_back({idx, FunctionKind::Inter, 2});
        if (idx.indexBits(node_bits) <= 14)
            schemes.push_back({idx, FunctionKind::PAs, 2});
    }
    // One field set and width, three splits.
    for (auto [pc, add] : {std::pair{4u, 6u}, {6u, 4u}, {2u, 8u}}) {
        schemes.push_back(perceptronOf(indexOf(false, pc, false, add, true),
                                       5, 2, 0));
        schemes.push_back(perceptronOf(indexOf(true, pc, false, add, true),
                                       5, 2, 16));
        schemes.push_back({indexOf(false, pc, true, add, true),
                           FunctionKind::Union, 2});
    }
    // A chain over the 64 blocks, colliding up to 14 bits of hash.
    for (unsigned add = 2; add <= 16; add += 2) {
        if (add <= 14)
            schemes.push_back(
                perceptronOf(indexOf(false, 0, false, add, true), 4, 3, 0));
        schemes.push_back({indexOf(false, 0, false, add, true),
                           FunctionKind::Union, 1});
    }
    // Ten bits of hash over dir+addr: as many entries as add10 has
    // on the 64 blocks, but other ones.
    schemes.push_back({indexOf(false, 0, true, 10 - node_bits, true),
                       FunctionKind::Union, 1});
    return schemes;
}

void
runForcedSharing(std::uint64_t seed, unsigned n_nodes)
{
    Rng rng(seed);
    std::vector<SharingTrace> suite;
    suite.push_back(randomTrace(rng, n_nodes, 1500, 8, false, "few-pcs"));
    suite.push_back(randomTrace(rng, n_nodes, 1200, 32, true, "cut-in"));
    suite.push_back(SharingTrace("empty", n_nodes));
    const auto schemes = sharingSchemes(n_nodes);
    // On the eight-pc trace: wide pc fields copy pc5 (three bits tell
    // the pcs apart), each hashed split copies the first, and the
    // hashed chain copies where its counts stop growing.
    const auto at = [&](const SchemeSpec &s) {
        return static_cast<std::size_t>(
            std::find(schemes.begin(), schemes.end(), s) - schemes.begin());
    };
    const sweep::TraceSharing few =
        sweep::PartitionClassifier(schemes, n_nodes)
            .classify(suite.front(), UpdateMode::Direct);
    const SchemeSpec pc5{indexOf(false, 5, false, 0), FunctionKind::Union, 1};
    for (unsigned pc : {7u, 12u}) {
        SchemeSpec wide = pc5;
        wide.index.pcBits = pc;
        EXPECT_EQ(few.rep[at(wide)], at(pc5)) << pc;
    }
    const SchemeSpec split =
        perceptronOf(indexOf(false, 4, false, 6, true), 5, 2, 0);
    for (auto [pc, add] : {std::pair{6u, 4u}, {2u, 8u}})
        EXPECT_EQ(few.rep[at(perceptronOf(indexOf(false, pc, false, add, true),
                                          5, 2, 0))],
                  at(split));
    const auto chain = [&](unsigned add) {
        return at({indexOf(false, 0, false, add, true), FunctionKind::Union, 1});
    };
    // The 64 blocks fold to 4, 16, 39, 57, 63, 63, 63 and 64 distinct
    // hashes at 2, 4, ..., 16 bits: add10, add12 and add14 collide on
    // the same pair, add16 on none.
    for (unsigned add = 2; add <= 10; add += 2)
        EXPECT_EQ(few.rep[chain(add)], chain(add)) << add;
    EXPECT_EQ(few.rep[chain(12)], chain(10));
    EXPECT_EQ(few.rep[chain(14)], chain(10));
    EXPECT_EQ(few.rep[chain(16)], chain(16));
    const std::size_t dir_add = at({indexOf(false, 0, true,
                                            10 - predict::nodeBitsFor(n_nodes),
                                            true),
                                    FunctionKind::Union, 1});
    EXPECT_EQ(few.rep[dir_add], dir_add);
    for (UpdateMode mode : kModes) {
        SCOPED_TRACE(predict::updateModeName(mode));
        const std::uint64_t shared =
            expectSweepMatchesReference(suite, schemes, mode);
        // Every scheme but the first of its kind copies on the empty
        // trace; most copy on the others too.
        EXPECT_GT(shared, schemes.size());
    }
}

TEST(PartitionSweep, MatchesReferenceFourNodes)
{
    runForcedSharing(/*seed=*/11, /*n_nodes=*/4);
}

TEST(PartitionSweep, MatchesReferenceSixteenNodes)
{
    runForcedSharing(/*seed=*/13, /*n_nodes=*/16);
}

TEST(PartitionSweep, MatchesReferenceSixtyFourNodes)
{
    runForcedSharing(/*seed=*/17, /*n_nodes=*/64);
}

TEST(PartitionSweep, ProgressIsMonotonicAndEndsAtSchemeCount)
{
    Rng rng(19);
    std::vector<SharingTrace> suite;
    suite.push_back(randomTrace(rng, 16, 800, 8, false, "a"));
    suite.push_back(randomTrace(rng, 16, 500, 32, true, "b"));
    const auto schemes = sharingSchemes(16);
    std::vector<std::size_t> dones;
    sweep::ParallelSweep(4).evaluate(suite, schemes, UpdateMode::Direct,
                                     [&](const obs::Progress &p) {
                                         dones.push_back(p.done);
                                         EXPECT_EQ(p.total, schemes.size());
                                     });
    ASSERT_FALSE(dones.empty());
    for (std::size_t i = 1; i < dones.size(); ++i)
        EXPECT_GE(dones[i], dones[i - 1]) << "tick " << i;
    EXPECT_EQ(dones.back(), schemes.size());
}

} // namespace
