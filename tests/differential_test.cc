/**
 * @file
 * Differential tests: the event-major BatchEvaluator against the
 * reference per-scheme Evaluator, asserting *exact* equality of
 * Confusion counts on randomized traces.
 *
 * The batched kernel re-implements the per-entry state transitions
 * (window, overlap-last) and the index computation (IndexPlan), so the
 * reference evaluator is kept alive as the oracle: any divergence in
 * semantics — update ordering, window rotation, index packing, word
 * boundaries — shows up here as an exact-count mismatch.
 *
 * Coverage: all 16 indexing classes of Table 1 x all five function
 * families (the perceptron with randomized weight widths, thresholds,
 * Bloom sizes, and hashed-vs-flat indexing) x history depths 1..4 x
 * all three update modes, on machines of 4, 16, and 64 nodes (the
 * last stressing full-width 64-bit sharing bitmaps).  Both entry-id
 * maps of the kernel — the raw index for tables small next to the
 * trace, first-touch dense ids for wide ones — meet in one batch;
 * schemes that share a learned block (window depths, perceptron Bloom
 * widths) are mixed with ones that must not, in one batch and split
 * across batches; PAs and perceptron keys of both lane widths run
 * their fused learn-then-predict op where forwarded update's learner
 * entry is the predicting one and their two ops where it is not; and
 * a zero-event trace must come out all zero.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "obs/registry.hh"
#include "predict/evaluator.hh"
#include "sweep/batch.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/partition.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::FunctionKind;
using predict::IndexSpec;
using predict::SchemeSpec;
using predict::UpdateMode;
using trace::CoherenceEvent;
using trace::SharingTrace;

constexpr UpdateMode kModes[] = {UpdateMode::Direct,
                                 UpdateMode::Forwarded,
                                 UpdateMode::Ordered};

/** Builder that wires invalidation/last-writer chains automatically
 *  (ordered update needs real prevEvent chains). */
class TraceBuilder
{
  public:
    explicit TraceBuilder(unsigned n_nodes, const char *name = "built")
        : trace_(name, n_nodes)
    {
    }

    TraceBuilder &
    writeEvent(NodeId pid, Pc pc, Addr block, std::uint64_t readers)
    {
        CoherenceEvent ev;
        ev.pid = pid;
        ev.pc = pc;
        ev.dir = static_cast<NodeId>(block % trace_.nNodes());
        ev.block = block;
        ev.readers = SharingBitmap(readers);

        auto it = lastOnBlock_.find(block);
        if (it != lastOnBlock_.end()) {
            const CoherenceEvent &prev = trace_.events()[it->second];
            ev.invalidated = prev.readers;
            ev.prevWriterPid = prev.pid;
            ev.prevWriterPc = prev.pc;
            ev.hasPrevWriter = true;
            ev.prevEvent = it->second;
        }
        lastOnBlock_[block] = trace_.append(ev);
        return *this;
    }

    SharingTrace take() { return std::move(trace_); }

  private:
    SharingTrace trace_;
    std::unordered_map<Addr, EventSeq> lastOnBlock_;
};

SharingTrace
randomTrace(Rng &rng, unsigned n_nodes, std::size_t events,
            const char *name = "random")
{
    const std::uint64_t reader_mask =
        n_nodes >= 64 ? ~std::uint64_t(0)
                      : (std::uint64_t(1) << n_nodes) - 1;
    TraceBuilder b(n_nodes, name);
    for (std::size_t i = 0; i < events; ++i) {
        // 64 blocks and 32 store pcs: enough reuse that every block
        // builds long writer chains and table entries alias under
        // narrow indexing.
        b.writeEvent(static_cast<NodeId>(rng.below(n_nodes)),
                     0x400 + 4 * rng.below(32), rng.below(64),
                     rng() & reader_mask);
    }
    return b.take();
}

/** Randomize the swept perceptron dimensions onto @p scheme; the
 *  hashed index fold is flipped on half the non-empty indices. */
void
randomizePerceptron(Rng &rng, SchemeSpec &scheme, bool non_empty_index)
{
    scheme.index.hashed = non_empty_index && rng.below(2) == 0;
    const unsigned widths[] = {2, 4, 5, 8};
    scheme.perc.weightBits = widths[rng.below(4)];
    scheme.perc.theta = 1 + unsigned(rng.below(6));
    const unsigned blooms[] = {0, 8, 16, 32};
    scheme.perc.bloomBits = blooms[rng.below(4)];
}

/**
 * One scheme per (Table-1 class x function family), with randomized
 * pc/addr widths and history depths 1..4: 80 schemes per call.
 */
std::vector<SchemeSpec>
randomSchemes(Rng &rng, unsigned max_field_bits, unsigned max_pas_depth)
{
    const FunctionKind kinds[] = {FunctionKind::Union,
                                  FunctionKind::Inter,
                                  FunctionKind::OverlapLast,
                                  FunctionKind::PAs,
                                  FunctionKind::Perceptron};
    std::vector<SchemeSpec> schemes;
    for (unsigned cs = 0; cs < 16; ++cs) {
        for (FunctionKind kind : kinds) {
            IndexSpec idx;
            idx.usePid = (cs & 8) != 0;
            idx.pcBits =
                cs & 4 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
            idx.useDir = (cs & 2) != 0;
            idx.addrBits =
                cs & 1 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
            // PAs state grows exponentially in depth; keep its grid
            // narrower so the oracle runs stay fast.
            unsigned depth =
                kind == FunctionKind::PAs
                    ? 1 + unsigned(rng.below(max_pas_depth))
                    : 1 + unsigned(rng.below(4));
            SchemeSpec scheme{idx, kind, depth};
            if (kind == FunctionKind::Perceptron)
                randomizePerceptron(rng, scheme, cs != 0);
            schemes.push_back(scheme);
        }
    }
    return schemes;
}

/**
 * Perceptron-only schemes over all 16 index classes: every non-empty
 * index appears as a hashed/flat *twin pair* on otherwise identical
 * dimensions, so the two index paths face the same trace and layout.
 */
std::vector<SchemeSpec>
perceptronSchemes(Rng &rng, unsigned max_field_bits)
{
    std::vector<SchemeSpec> schemes;
    for (unsigned cs = 0; cs < 16; ++cs) {
        IndexSpec idx;
        idx.usePid = (cs & 8) != 0;
        idx.pcBits =
            cs & 4 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
        idx.useDir = (cs & 2) != 0;
        idx.addrBits =
            cs & 1 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
        SchemeSpec scheme{idx, FunctionKind::Perceptron,
                          1 + unsigned(rng.below(4))};
        randomizePerceptron(rng, scheme, cs != 0);
        schemes.push_back(scheme);
        if (cs != 0) {
            SchemeSpec twin = scheme;
            twin.index.hashed = !scheme.index.hashed;
            schemes.push_back(twin);
        }
    }
    return schemes;
}

void
expectExactMatch(const Confusion &got, const Confusion &want,
                 const SchemeSpec &scheme, UpdateMode mode)
{
    EXPECT_EQ(got.tp, want.tp) << sweep::formatScheme(scheme) << " "
                               << predict::updateModeName(mode);
    EXPECT_EQ(got.fp, want.fp) << sweep::formatScheme(scheme) << " "
                               << predict::updateModeName(mode);
    EXPECT_EQ(got.tn, want.tn) << sweep::formatScheme(scheme) << " "
                               << predict::updateModeName(mode);
    EXPECT_EQ(got.fn, want.fn) << sweep::formatScheme(scheme) << " "
                               << predict::updateModeName(mode);
}

void
runDifferential(std::uint64_t seed, unsigned n_nodes,
                std::size_t events, unsigned max_field_bits,
                unsigned max_pas_depth)
{
    Rng rng(seed);
    auto schemes = randomSchemes(rng, max_field_bits, max_pas_depth);
    ASSERT_GE(schemes.size(), 64u);
    auto tr = randomTrace(rng, n_nodes, events);

    sweep::BatchEvaluator batch(schemes, n_nodes);
    ASSERT_EQ(batch.size(), schemes.size());

    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            Confusion want =
                predict::evaluateTrace(tr, schemes[i], mode);
            expectExactMatch(got[i], want, schemes[i], mode);
        }
    }
}

TEST(Differential, SixtyFourRandomSchemesSixteenNodes)
{
    runDifferential(/*seed=*/1, /*n_nodes=*/16, /*events=*/2000,
                    /*max_field_bits=*/3, /*max_pas_depth=*/4);
}

TEST(Differential, SmallMachineFourNodes)
{
    runDifferential(/*seed=*/2, /*n_nodes=*/4, /*events=*/1500,
                    /*max_field_bits=*/4, /*max_pas_depth=*/4);
}

TEST(Differential, FullWordMachineSixtyFourNodes)
{
    // 64 nodes: sharing bitmaps use all 64 bits, so popcount-based
    // confusion accumulation has no headroom for mask slips.
    runDifferential(/*seed=*/3, /*n_nodes=*/64, /*events=*/1200,
                    /*max_field_bits=*/2, /*max_pas_depth=*/2);
}

/** The perceptron pair: reference oracle vs batched kernel, over
 *  hashed/flat index twins. */
void
runPerceptronDifferential(std::uint64_t seed, unsigned n_nodes,
                          std::size_t events, unsigned max_field_bits)
{
    Rng rng(seed);
    auto schemes = perceptronSchemes(rng, max_field_bits);
    ASSERT_GE(schemes.size(), 31u);
    auto tr = randomTrace(rng, n_nodes, events);

    sweep::BatchEvaluator batch(schemes, n_nodes);
    ASSERT_EQ(batch.size(), schemes.size());

    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            Confusion want =
                predict::evaluateTrace(tr, schemes[i], mode);
            expectExactMatch(got[i], want, schemes[i], mode);
        }
    }
}

TEST(Differential, PerceptronSixteenNodes)
{
    runPerceptronDifferential(/*seed=*/41, /*n_nodes=*/16,
                              /*events=*/2000, /*max_field_bits=*/3);
}

TEST(Differential, PerceptronSmallMachineFourNodes)
{
    runPerceptronDifferential(/*seed=*/43, /*n_nodes=*/4,
                              /*events=*/1500, /*max_field_bits=*/4);
}

TEST(Differential, PerceptronFullWordMachineSixtyFourNodes)
{
    runPerceptronDifferential(/*seed=*/47, /*n_nodes=*/64,
                              /*events=*/1200, /*max_field_bits=*/2);
}

TEST(Differential, SuiteResultsMatchReferenceSuite)
{
    Rng rng(17);
    auto schemes = randomSchemes(rng, /*max_field_bits=*/3,
                                 /*max_pas_depth=*/2);
    std::vector<SharingTrace> suite;
    suite.push_back(randomTrace(rng, 16, 800, "alpha"));
    suite.push_back(randomTrace(rng, 16, 1200, "beta"));
    suite.push_back(randomTrace(rng, 16, 400, "gamma"));

    sweep::BatchEvaluator batch(schemes, 16);
    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateSuite(suite, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            auto want = predict::evaluateSuite(suite, schemes[i], mode);
            EXPECT_EQ(got[i].scheme, want.scheme);
            EXPECT_EQ(got[i].mode, mode);
            expectExactMatch(got[i].pooled, want.pooled, schemes[i],
                             mode);
            ASSERT_EQ(got[i].perTrace.size(), want.perTrace.size());
            for (std::size_t t = 0; t < want.perTrace.size(); ++t) {
                EXPECT_EQ(got[i].perTrace[t].traceName,
                          want.perTrace[t].traceName);
                expectExactMatch(got[i].perTrace[t].confusion,
                                 want.perTrace[t].confusion,
                                 schemes[i], mode);
            }
        }
    }
}

TEST(Differential, StateIsClearedBetweenTraces)
{
    // Evaluating the same trace twice through one BatchEvaluator must
    // give identical counts: no state may leak across evaluations.
    Rng rng(23);
    auto schemes = randomSchemes(rng, /*max_field_bits=*/3,
                                 /*max_pas_depth=*/2);
    auto tr = randomTrace(rng, 16, 600);
    sweep::BatchEvaluator batch(schemes, 16);
    for (UpdateMode mode : kModes) {
        auto first = batch.evaluateTrace(tr, mode);
        auto second = batch.evaluateTrace(tr, mode);
        for (std::size_t i = 0; i < schemes.size(); ++i)
            expectExactMatch(second[i], first[i], schemes[i], mode);
    }
}

// ---------------------------------------------------------------------
// Entry ids: the identity map (raw index) for tables small next to
// the trace, first-touch dense ids for wide ones, in one batch.

/** Event pcs are 0x400 + 4k (k < 32): pc words 0x100 + k, low six
 *  bits k.  Ghost writer pcs have pc words 0x20 + k, low six bits
 *  32 + k, so no event ever predicts through their entry once six or
 *  more pc bits index it. */
constexpr Pc ghostPc(unsigned k) { return 4 * (0x20 + k); }

/**
 * A random trace in which every third event with a previous writer
 * names a ghost writer (a pc no event stores from, a random pid), so
 * forwarded update trains entries no event predicts through.
 */
SharingTrace
ghostWriterTrace(Rng &rng, unsigned n_nodes, std::size_t events)
{
    SharingTrace tr = randomTrace(rng, n_nodes, events, "ghosts");
    std::size_t i = 0;
    for (CoherenceEvent &ev : tr.mutableEvents()) {
        if (ev.hasPrevWriter && i++ % 3 == 0) {
            ev.prevWriterPid = static_cast<NodeId>(rng.below(n_nodes));
            ev.prevWriterPc = ghostPc(unsigned(rng.below(32)));
        }
    }
    return tr;
}

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

void
runIdMapDifferential(std::uint64_t seed, unsigned n_nodes)
{
    constexpr std::size_t events = 3000;
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    // Tables of at most events / identityEventsPerEntry entries take
    // the raw index as id; the rest are wider than log2(events) bits
    // and take dense ids.
    const std::vector<IndexSpec> identity = {
        indexOf(false, 3, false, 0), indexOf(false, 0, false, 3),
        indexOf(true, 0, false, 0), indexOf(false, 0, true, 1)};
    const std::vector<IndexSpec> dense = {
        indexOf(true, 8, false, 4), indexOf(false, 6, true, 6),
        indexOf(false, 10, false, 4, true), indexOf(false, 0, false, 14)};

    // Every family on every index, interleaved so one IndexSpec's
    // schemes are not adjacent in the batch.
    std::vector<IndexSpec> indices = identity;
    indices.insert(indices.end(), dense.begin(), dense.end());
    const std::pair<FunctionKind, unsigned> fns[] = {
        {FunctionKind::Union, 1},       {FunctionKind::Inter, 2},
        {FunctionKind::Union, 3},       {FunctionKind::OverlapLast, 1},
        {FunctionKind::PAs, 2},         {FunctionKind::Perceptron, 2}};
    std::vector<SchemeSpec> schemes;
    for (const auto &[kind, depth] : fns)
        for (const IndexSpec &idx : indices)
            schemes.push_back(SchemeSpec{idx, kind, depth});

    for (const IndexSpec &idx : identity)
        ASSERT_LE((std::size_t(1) << idx.indexBits(node_bits)) *
                      sweep::identityEventsPerEntry,
                  events)
            << idx.fieldsName();
    for (const IndexSpec &idx : dense)
        ASSERT_GT(std::size_t(1) << idx.indexBits(node_bits), events)
            << idx.fieldsName();

    Rng rng(seed);
    const SharingTrace tr = ghostWriterTrace(rng, n_nodes, events);
    // The ghosts must reach entries no event predicts through.
    {
        const IndexSpec &wide = dense.front();
        std::set<std::uint64_t> predicting, learner_only;
        for (const CoherenceEvent &ev : tr.events())
            predicting.insert(wide.indexOf(ev, node_bits));
        for (const CoherenceEvent &ev : tr.events())
            if (ev.hasPrevWriter) {
                const std::uint64_t idx =
                    wide.index(ev.prevWriterPid, ev.prevWriterPc, ev.dir,
                               ev.block, node_bits);
                if (!predicting.count(idx))
                    learner_only.insert(idx);
            }
        ASSERT_FALSE(learner_only.empty());
    }

    sweep::BatchEvaluator batch(schemes, n_nodes);
    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i)
            expectExactMatch(got[i],
                             predict::evaluateTrace(tr, schemes[i], mode),
                             schemes[i], mode);
    }
}

TEST(Differential, IdentityAndDenseIdsFourNodes)
{
    runIdMapDifferential(/*seed=*/61, /*n_nodes=*/4);
}

TEST(Differential, IdentityAndDenseIdsSixteenNodes)
{
    runIdMapDifferential(/*seed=*/67, /*n_nodes=*/16);
}

TEST(Differential, IdentityAndDenseIdsSixtyFourNodes)
{
    runIdMapDifferential(/*seed=*/71, /*n_nodes=*/64);
}

// ---------------------------------------------------------------------
// Learned blocks: schemes of one index that share a learnKey share
// one block of learned state in the kernel.

/** A perceptron on @p idx. */
SchemeSpec
perceptronOf(const IndexSpec &idx, unsigned depth, unsigned weight_bits,
             unsigned theta, unsigned bloom_bits)
{
    SchemeSpec s{idx, FunctionKind::Perceptron, depth};
    s.perc.weightBits = weight_bits;
    s.perc.theta = theta;
    s.perc.bloomBits = bloom_bits;
    return s;
}

/**
 * Window groups that mix last, union/inter of depths 2-4 and
 * overlap-last (the history's depth is the deepest member's, or 2
 * for overlap-last alone), PAs twins, and perceptron keys on one
 * index that several Bloom widths share next to ones whose weight
 * width or theta differs — interleaved, so no key's members are
 * adjacent in the batch.
 */
std::vector<SchemeSpec>
learnedBlockSchemes()
{
    const IndexSpec narrow = indexOf(false, 3, false, 0);
    const IndexSpec wide = indexOf(true, 6, false, 4);
    const IndexSpec hashed = indexOf(false, 4, true, 4, true);
    const IndexSpec solo = indexOf(false, 0, false, 5);
    std::vector<SchemeSpec> s = {
        SchemeSpec{narrow, FunctionKind::Union, 1},
        perceptronOf(hashed, 2, 5, 2, 16),
        SchemeSpec{wide, FunctionKind::Inter, 3},
        SchemeSpec{narrow, FunctionKind::Inter, 2},
        perceptronOf(hashed, 2, 5, 2, 0),
        SchemeSpec{solo, FunctionKind::OverlapLast, 1},
        SchemeSpec{narrow, FunctionKind::OverlapLast, 1},
        perceptronOf(hashed, 2, 4, 2, 16),
        SchemeSpec{wide, FunctionKind::Union, 1},
        SchemeSpec{narrow, FunctionKind::Union, 4},
        perceptronOf(hashed, 2, 5, 2, 8),
        SchemeSpec{wide, FunctionKind::PAs, 2},
        SchemeSpec{narrow, FunctionKind::Inter, 4},
        perceptronOf(hashed, 2, 5, 3, 8),
        SchemeSpec{wide, FunctionKind::OverlapLast, 1},
        perceptronOf(wide, 4, 5, 2, 0),
        SchemeSpec{narrow, FunctionKind::Union, 2},
        perceptronOf(hashed, 2, 5, 2, 16),
        SchemeSpec{wide, FunctionKind::PAs, 2},
        SchemeSpec{narrow, FunctionKind::Inter, 3},
        perceptronOf(hashed, 2, 5, 3, 0),
        perceptronOf(wide, 4, 5, 2, 32),
        SchemeSpec{narrow, FunctionKind::Union, 3},
        perceptronOf(hashed, 4, 5, 2, 16),
        SchemeSpec{wide, FunctionKind::Union, 2},
    };
    return s;
}

/** Learned blocks of learnedBlockSchemes(): windows on narrow, wide
 *  and solo; one PAs; on hashed, (2,5,2) with b0/b8/b16/b16,
 *  (2,4,2), (2,5,3) with b0/b8 and (4,5,2); on wide, (4,5,2). */
constexpr std::size_t kLearnedBlocks = 9;

void
expectBatchMatchesReference(const std::vector<SchemeSpec> &schemes,
                            const SharingTrace &tr, unsigned n_nodes)
{
    sweep::BatchEvaluator batch(schemes, n_nodes);
    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i)
            expectExactMatch(got[i],
                             predict::evaluateTrace(tr, schemes[i], mode),
                             schemes[i], mode);
    }
}

void
runLearnedBlockDifferential(std::uint64_t seed, unsigned n_nodes)
{
    Rng rng(seed);
    const SharingTrace tr = ghostWriterTrace(rng, n_nodes, 2500);
    const std::vector<SchemeSpec> schemes = learnedBlockSchemes();
    {
        obs::StatsRegistry reg;
        obs::ScopedRegistry route(reg);
        expectBatchMatchesReference(schemes, tr, n_nodes);
        const auto *blocks = reg.findCounter("batch.learned_blocks");
        ASSERT_NE(blocks, nullptr);
        EXPECT_EQ(blocks->value, 3 * tr.events().size() * kLearnedBlocks);
    }

    // The same schemes with each index group contiguous, cut into
    // batches of four: a key's members land in different batches, and
    // each batch learns its share alone.
    std::vector<SchemeSpec> grouped = schemes;
    std::stable_sort(grouped.begin(), grouped.end(),
                     [](const SchemeSpec &a, const SchemeSpec &b) {
                         return a.index.fieldsName() < b.index.fieldsName();
                     });
    const auto plan = sweep::planBatches(grouped, n_nodes,
                                         std::size_t(4) << 20,
                                         /*max_schemes=*/4);
    std::vector<std::size_t> batch_of(grouped.size());
    for (std::size_t b = 0; b < plan.size(); ++b)
        for (std::size_t i = plan[b].first; i < plan[b].second; ++i)
            batch_of[i] = b;
    bool split_key = false;
    for (std::size_t i = 0; i < grouped.size(); ++i)
        for (std::size_t j = i + 1; j < grouped.size(); ++j)
            split_key |= grouped[i].index == grouped[j].index &&
                         predict::learnKey(grouped[i]) ==
                             predict::learnKey(grouped[j]) &&
                         batch_of[i] != batch_of[j];
    ASSERT_TRUE(split_key);
    for (const auto &[first, last] : plan)
        expectBatchMatchesReference(
            std::vector<SchemeSpec>(grouped.begin() + first,
                                    grouped.begin() + last),
            tr, n_nodes);
}

TEST(Differential, LearnedBlocksFourNodes)
{
    runLearnedBlockDifferential(/*seed=*/89, /*n_nodes=*/4);
}

TEST(Differential, LearnedBlocksSixteenNodes)
{
    runLearnedBlockDifferential(/*seed=*/97, /*n_nodes=*/16);
}

TEST(Differential, LearnedBlocksSixtyFourNodes)
{
    runLearnedBlockDifferential(/*seed=*/101, /*n_nodes=*/64);
}

// ---------------------------------------------------------------------
// Fused steps: the kernel runs a learned block's learn and predict as
// one op when one entry does both, and as two ops otherwise.

/**
 * PAs and perceptron keys on indices where the forwarded learner's
 * entry is always the predicting one (address only), sometimes (a
 * narrow pc field aliases writers) and mostly not (pid + pc); the
 * perceptron keys run in byte lanes (w5, w4) and in 16-bit lanes (w8,
 * w6 at depth 4, w5 at depth 8), each with Bloom members.
 */
std::vector<SchemeSpec>
fusedStepSchemes(const std::vector<IndexSpec> &indices)
{
    std::vector<SchemeSpec> s;
    for (const IndexSpec &idx : indices) {
        s.push_back(SchemeSpec{idx, FunctionKind::PAs, 2});
        s.push_back(perceptronOf(idx, 2, 5, 2, 0));
        s.push_back(perceptronOf(idx, 2, 8, 6, 16));
        s.push_back(perceptronOf(idx, 4, 6, 4, 8));
        s.push_back(SchemeSpec{idx, FunctionKind::PAs, 4});
        s.push_back(perceptronOf(idx, 2, 5, 2, 16));
        s.push_back(perceptronOf(idx, 8, 5, 2, 0));
        s.push_back(perceptronOf(idx, 2, 8, 6, 0));
        s.push_back(perceptronOf(idx, 4, 4, 1, 32));
        s.push_back(perceptronOf(idx, 4, 6, 4, 0));
    }
    return s;
}

void
runFusedStepDifferential(std::uint64_t seed, unsigned n_nodes)
{
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    const std::vector<IndexSpec> indices = {
        indexOf(false, 0, true, 6), indexOf(false, 2, false, 0),
        indexOf(true, 6, false, 0), indexOf(true, 4, false, 4, true)};
    Rng rng(seed);
    const SharingTrace tr = ghostWriterTrace(rng, n_nodes, 2500);

    // Forwarded update must both fuse and not fuse on each of the
    // last three indices; the address-only one always fuses.
    for (std::size_t k = 0; k < indices.size(); ++k) {
        std::size_t same = 0, other = 0;
        for (const CoherenceEvent &ev : tr.events()) {
            if (!ev.hasPrevWriter)
                continue;
            const predict::Learner who =
                predict::learner(ev, UpdateMode::Forwarded);
            const bool eq =
                indices[k].indexOf(ev, node_bits) ==
                indices[k].index(who.pid, who.pc, ev.dir, ev.block,
                                 node_bits);
            ++(eq ? same : other);
        }
        EXPECT_GT(same, 0u) << indices[k].fieldsName();
        if (k == 0)
            EXPECT_EQ(other, 0u);
        else
            EXPECT_GT(other, 0u) << indices[k].fieldsName();
    }

    const std::vector<SchemeSpec> schemes = fusedStepSchemes(indices);
    bool byte = false, wide = false;
    for (const SchemeSpec &sc : schemes) {
        if (sc.kind != FunctionKind::Perceptron)
            continue;
        const bool b = predict::PerceptronFunction(sc.depth, n_nodes, sc.perc)
                           .byteLanes();
        byte |= b;
        wide |= !b;
    }
    ASSERT_TRUE(byte && wide);
    expectBatchMatchesReference(schemes, tr, n_nodes);
}

TEST(Differential, FusedStepsFourNodes)
{
    runFusedStepDifferential(/*seed=*/103, /*n_nodes=*/4);
}

TEST(Differential, FusedStepsSixteenNodes)
{
    runFusedStepDifferential(/*seed=*/107, /*n_nodes=*/16);
}

TEST(Differential, FusedStepsSixtyFourNodes)
{
    runFusedStepDifferential(/*seed=*/109, /*n_nodes=*/64);
}

TEST(Differential, ZeroEventTraceIsAllZeroInEveryMode)
{
    Rng rng(73);
    auto schemes = randomSchemes(rng, /*max_field_bits=*/3,
                                 /*max_pas_depth=*/2);
    const SharingTrace empty("empty", 16);
    sweep::BatchEvaluator batch(schemes, 16);
    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(empty, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            EXPECT_EQ(got[i].decisions(), 0u);
            expectExactMatch(
                got[i], predict::evaluateTrace(empty, schemes[i], mode),
                schemes[i], mode);
        }
    }
}

TEST(BatchStats, StateWordsAreDenseAndTableWordsFull)
{
    // One wide table over a short trace: the dense state is what the
    // trace touches, far below the full table the stats also report.
    // Its three window schemes share one depth-2 history (3 words per
    // entry where their rings took 3 + 3 + 2), so one learned block
    // serves them.
    Rng rng(79);
    const SharingTrace tr = randomTrace(rng, 16, 500);
    const IndexSpec wide = indexOf(true, 8, false, 8);
    const std::vector<SchemeSpec> schemes = {
        SchemeSpec{wide, FunctionKind::Union, 2},
        SchemeSpec{indexOf(false, 2, false, 0), FunctionKind::Inter, 2},
        SchemeSpec{wide, FunctionKind::Inter, 2},
        SchemeSpec{wide, FunctionKind::Union, 1}};
    std::uint64_t table_words = 0;
    for (const SchemeSpec &s : schemes)
        table_words += sweep::schemeStateWords(s, 16);

    const auto counters = [&](const std::vector<SchemeSpec> &batch) {
        obs::StatsRegistry reg;
        {
            obs::ScopedRegistry route(reg);
            sweep::BatchEvaluator(batch, 16)
                .evaluateTrace(tr, UpdateMode::Forwarded);
        }
        std::map<std::string, std::uint64_t> got;
        for (const char *name :
             {"batch.state_words", "batch.table_words",
              "batch.scheme_events", "batch.learned_blocks"}) {
            const auto *c = reg.findCounter(name);
            got[name] = c ? c->value : 0;
        }
        return got;
    };
    auto got = counters(schemes);
    EXPECT_EQ(got["batch.table_words"], table_words);
    EXPECT_EQ(got["batch.scheme_events"], 4 * 500u);
    EXPECT_EQ(got["batch.learned_blocks"], 2 * 500u);
    EXPECT_GT(got["batch.state_words"], 0u);
    // <= 2 entries per event for the wide table (forwarded learners),
    // the whole 4-entry table for the narrow one.
    EXPECT_LE(got["batch.state_words"], 2 * 500 * 3 + 4 * 3);

    // Batched one scheme each, the wide ones keep a ring apiece over
    // the same entries: 8 words per entry where sharing keeps 3.
    std::uint64_t alone = 0, blocks = 0;
    for (const SchemeSpec &s : schemes) {
        auto one = counters({s});
        alone += one["batch.state_words"];
        blocks += one["batch.learned_blocks"];
    }
    EXPECT_EQ(blocks, 4 * 500u);
    const std::uint64_t narrow = 4 * 3;
    EXPECT_EQ((got["batch.state_words"] - narrow) * 8,
              (alone - narrow) * 3);
}

TEST(BatchStats, FootprintIsBoundedByTheTablesAtAnyTraceLength)
{
    // Identity and dense index groups under forwarded update (two ids
    // per event): however long the trace, the batch holds at most its
    // full tables plus 4.5 bytes per table entry of id maps, so the
    // admission charge (schemeStateWords) keeps bounding it.
    const unsigned node_bits = predict::nodeBitsFor(16);
    const std::vector<IndexSpec> indices = {
        indexOf(false, 3, false, 0),       indexOf(true, 0, false, 2),
        indexOf(false, 0, true, 4),        indexOf(true, 4, false, 2),
        indexOf(true, 8, false, 4),        indexOf(false, 6, true, 6),
        indexOf(false, 10, false, 4, true), indexOf(false, 0, false, 14)};
    std::vector<SchemeSpec> schemes;
    std::size_t bound = 0;
    for (const IndexSpec &idx : indices) {
        schemes.push_back(SchemeSpec{idx, FunctionKind::Union, 2});
        schemes.push_back(SchemeSpec{idx, FunctionKind::PAs, 2});
        bound += (std::size_t(1) << idx.indexBits(node_bits)) * 9 / 2;
    }
    for (const SchemeSpec &s : schemes)
        bound += sweep::schemeStateWords(s, 16) * 8;

    sweep::BatchEvaluator batch(schemes, 16);
    Rng rng(83);
    for (std::size_t events : {1000, 20000, 200000}) {
        const SharingTrace tr = randomTrace(rng, 16, events);
        batch.evaluateTrace(tr, UpdateMode::Forwarded);
        EXPECT_GT(batch.footprintBytes(), 0u);
        EXPECT_LE(batch.footprintBytes(), bound) << events << " events";
    }
}

// ---------------------------------------------------------------------
// schemeStateWords overflow hardening: adversarial index widths must
// die with a structured error instead of wrapping size_t and
// under-allocating state.

using SchemeStateWordsDeathTest = ::testing::Test;

TEST(SchemeStateWordsDeathTest, RejectsIndexPastTableCeiling)
{
    SchemeSpec s;
    s.index.addrBits = 40; // 2^40 entries: over maxTableIndexBits
    s.kind = FunctionKind::Union;
    s.depth = 1;
    EXPECT_DEATH(sweep::schemeStateWords(s, 16), "index width");
}

TEST(SchemeStateWordsDeathTest, RejectsShiftThatWouldWrapSizeT)
{
    // 2^62 entries x 2 words wraps a 64-bit size_t outright — the
    // classic under-allocation. The width gate must fire first.
    SchemeSpec s;
    s.index.addrBits = 62;
    s.kind = FunctionKind::Union;
    s.depth = 1;
    EXPECT_DEATH(sweep::schemeStateWords(s, 16), "index width");
}

TEST(SchemeStateWordsDeathTest, BatchConstructorRejectsWideIndex)
{
    std::vector<SchemeSpec> schemes;
    SchemeSpec s;
    s.index.addrBits = 40;
    s.kind = FunctionKind::Union;
    s.depth = 1;
    schemes.push_back(s);
    EXPECT_DEATH(sweep::BatchEvaluator(schemes, 16), "index width");
}

TEST(SchemeStateWords, AcceptsTheWidestLegalScheme)
{
    SchemeSpec s;
    s.index.addrBits = 18; // + dir(4) + pid(4) stays <= 26 at 16 nodes
    s.index.useDir = true;
    s.index.usePid = true;
    s.kind = FunctionKind::Union;
    s.depth = 32;
    EXPECT_EQ(sweep::schemeStateWords(s, 16),
              (std::size_t(1) << 26) * 33);
}

// ---------------------------------------------------------------------
// planBatches: the partition the parallel sweep hands to this kernel.

TEST(PlanBatches, CoversEverySchemeContiguouslyInOrder)
{
    Rng rng(5);
    auto schemes = randomSchemes(rng, 3, 4);
    auto plan = sweep::planBatches(schemes, 16);
    ASSERT_FALSE(plan.empty());
    std::size_t next = 0;
    for (const auto &[first, last] : plan) {
        EXPECT_EQ(first, next);
        EXPECT_LT(first, last);
        next = last;
    }
    EXPECT_EQ(next, schemes.size());
}

TEST(PlanBatches, RespectsSchemeCountBudget)
{
    Rng rng(6);
    auto schemes = randomSchemes(rng, 2, 2);
    auto plan = sweep::planBatches(schemes, 16,
                                   /*max_state_words=*/std::size_t(4)
                                       << 20,
                                   /*max_schemes=*/8);
    for (const auto &[first, last] : plan)
        EXPECT_LE(last - first, 8u);
}

TEST(PlanBatches, OversizedSchemeStillFormsItsOwnBatch)
{
    // A single scheme over the state budget must not be dropped or
    // wedge the planner.
    std::vector<SchemeSpec> schemes;
    IndexSpec big;
    big.addrBits = 16;
    schemes.push_back(SchemeSpec{big, FunctionKind::Union, 4});
    schemes.push_back(SchemeSpec{{}, FunctionKind::Union, 1});
    auto plan = sweep::planBatches(schemes, 16,
                                   /*max_state_words=*/1024,
                                   /*max_schemes=*/32);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0], (std::pair<std::size_t, std::size_t>{0, 1}));
    EXPECT_EQ(plan[1], (std::pair<std::size_t, std::size_t>{1, 2}));
}

/** Contiguous IndexSpec groups of the given sizes (group k indexed
 *  by add(k+1)), each cycling through the window families. */
std::vector<SchemeSpec>
groupedSchemes(const std::vector<std::size_t> &sizes)
{
    std::vector<SchemeSpec> schemes;
    for (std::size_t k = 0; k < sizes.size(); ++k)
        for (std::size_t j = 0; j < sizes[k]; ++j)
            schemes.push_back(
                SchemeSpec{indexOf(false, 0, false, unsigned(k) + 1),
                           j % 2 ? FunctionKind::Inter
                                 : FunctionKind::Union,
                           1 + unsigned(j % 4)});
    return schemes;
}

TEST(PlanBatches, CutsAtIndexSpecGroupBoundariesWhenGroupsFit)
{
    auto schemes = groupedSchemes({5, 7, 3, 8, 6, 2, 5, 9, 1});
    std::size_t largest_group_words = 0;
    for (std::size_t g = 0; g < schemes.size();) {
        std::size_t end = g, words = 0;
        while (end < schemes.size() &&
               schemes[end].index == schemes[g].index)
            words += sweep::schemeStateWords(schemes[end++], 16);
        largest_group_words = std::max(largest_group_words, words);
        g = end;
    }
    // Under a scheme-count cap, then under a state-word cap, that
    // every group fits alone.
    for (const auto &[max_words, max_schemes] :
         {std::pair<std::size_t, std::size_t>{std::size_t(4) << 20, 10},
          {largest_group_words, 32}}) {
        auto plan = sweep::planBatches(schemes, 16, max_words,
                                       max_schemes);
        ASSERT_GT(plan.size(), 1u);
        for (const auto &[first, last] : plan) {
            EXPECT_LE(last - first, max_schemes);
            if (first > 0) {
                EXPECT_NE(schemes[first - 1].index, schemes[first].index)
                    << "cut inside a group at " << first;
            }
        }
    }
}

TEST(PlanBatches, GroupLargerThanMaxSchemesStillSplits)
{
    auto schemes = groupedSchemes({3, 20, 4});
    auto plan = sweep::planBatches(schemes, 16,
                                   /*max_state_words=*/std::size_t(4)
                                       << 20,
                                   /*max_schemes=*/8);
    // The 20-scheme group starts a batch and splits 8 + 8 + 4; its
    // tail shares a batch with the next group, which fits.
    const std::vector<std::pair<std::size_t, std::size_t>> want = {
        {0, 3}, {3, 11}, {11, 19}, {19, 27}};
    EXPECT_EQ(plan, want);
}

TEST(PlanBatches, PlanDoesNotDependOnThreadCount)
{
    // The sweep evaluates exactly planBatches' partition at every
    // thread count, with identical results.
    Rng rng(83);
    auto schemes = groupedSchemes({6, 40, 3, 11, 2});
    std::vector<SharingTrace> suite;
    suite.push_back(randomTrace(rng, 16, 400, "alpha"));
    suite.push_back(randomTrace(rng, 16, 300, "beta"));
    const auto plan = sweep::planBatches(schemes, 16);
    ASSERT_GE(plan.size(), 3u);
    std::size_t tasks = 0;
    for (const SharingTrace &tr : suite) {
        const sweep::TraceSharing sharing =
            sweep::PartitionClassifier(schemes, 16)
                .classify(tr, UpdateMode::Forwarded);
        std::vector<SchemeSpec> evaluated;
        for (std::size_t i = 0; i < schemes.size(); ++i)
            if (sharing.rep[i] == i)
                evaluated.push_back(schemes[i]);
        ASSERT_LT(evaluated.size(), schemes.size());
        tasks += sweep::planBatches(evaluated, 16).size();
    }

    std::vector<predict::SuiteResult> first;
    for (unsigned threads : {1u, 3u, 8u}) {
        obs::StatsRegistry reg;
        std::vector<predict::SuiteResult> got;
        {
            obs::ScopedRegistry route(reg);
            got = sweep::ParallelSweep(threads,
                                       sweep::SweepKernel::Batched)
                      .evaluate(suite, schemes, UpdateMode::Forwarded);
        }
        // Repeats within a group copy the group's first of their kind
        // (sweep/partition.hh), so each trace runs the plan of the
        // schemes it evaluates: one task per (trace, batch).
        const auto *batches = reg.findCounter("sweep.batches_evaluated");
        ASSERT_NE(batches, nullptr);
        EXPECT_EQ(batches->value, tasks) << threads << " threads";
        const auto *walks = reg.findCounter("batch.trace_walks");
        ASSERT_NE(walks, nullptr);
        EXPECT_EQ(walks->value, tasks);
        EXPECT_EQ(sweep::planBatches(schemes, 16), plan);
        ASSERT_EQ(got.size(), schemes.size());
        if (first.empty()) {
            first = std::move(got);
            continue;
        }
        for (std::size_t i = 0; i < schemes.size(); ++i)
            for (std::size_t t = 0; t < suite.size(); ++t)
                expectExactMatch(got[i].perTrace[t].confusion,
                                 first[i].perTrace[t].confusion,
                                 schemes[i], UpdateMode::Forwarded);
    }
}

} // namespace
