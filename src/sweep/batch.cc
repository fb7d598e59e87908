#include "sweep/batch.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "predict/table.hh"

namespace ccp::sweep {

using predict::Confusion;
using predict::FunctionKind;
using predict::PAsFunction;
using predict::PerceptronFunction;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;

namespace {

/**
 * The window-function state transitions, inlined (bit-identical to
 * WindowFunction in predict/function.cc: word 0 packs (count,
 * next-slot), words 1..depth are the stored bitmaps).
 */
inline std::uint64_t
windowPredict(const std::uint64_t *st, bool is_union)
{
    unsigned count = static_cast<unsigned>(st[0] & 0xffffffffu);
    if (count == 0)
        return 0;
    std::uint64_t acc = st[1];
    if (is_union) {
        for (unsigned i = 1; i < count; ++i)
            acc |= st[1 + i];
    } else {
        for (unsigned i = 1; i < count; ++i)
            acc &= st[1 + i];
    }
    return acc;
}

inline void
windowUpdate(std::uint64_t *st, unsigned depth, std::uint64_t fb)
{
    unsigned count = static_cast<unsigned>(st[0] & 0xffffffffu);
    unsigned pos = static_cast<unsigned>(st[0] >> 32);
    st[1 + pos] = fb;
    pos = (pos + 1) % depth;
    if (count < depth)
        ++count;
    st[0] = (std::uint64_t(pos) << 32) | count;
}

/** Depth-1 window ("last"): the modular arithmetic collapses. */
inline std::uint64_t
lastPredict(const std::uint64_t *st)
{
    return (st[0] & 0xffffffffu) ? st[1] : 0;
}

inline void
lastUpdate(std::uint64_t *st, std::uint64_t fb)
{
    st[1] = fb;
    st[0] = 1; // count 1, next slot 0 — what windowUpdate produces
}

/** Overlap-last, inlined from OverlapLastFunction. */
inline std::uint64_t
overlapPredict(const std::uint64_t *st)
{
    if (static_cast<unsigned>(st[0]) < 2)
        return 0;
    return (st[1] & st[2]) ? st[1] : 0;
}

inline void
overlapUpdate(std::uint64_t *st, std::uint64_t fb)
{
    st[2] = st[1];
    st[1] = fb;
    if (st[0] < 2)
        ++st[0];
}

/**
 * Validated packed-state size of one table: 2^bits entries x
 * @p entry_words words.  An adversarial sweep config can push
 * indexBits high enough that the shift (or the multiply) wraps
 * size_t and silently under-allocates, so both factors are checked
 * against hard ceilings and rejected as unusable configuration
 * (ccp_fatal) before any arithmetic can overflow.
 */
std::size_t
checkedSchemeStateWords(unsigned bits, std::size_t entry_words)
{
    if (bits > predict::maxTableIndexBits)
        ccp_fatal("scheme index width ", bits,
                  " bits exceeds the table ceiling of ",
                  predict::maxTableIndexBits, " bits");
    const std::size_t entries = std::size_t(1) << bits;
    if (entry_words == 0 ||
        entries > maxSchemeStateWords / entry_words)
        ccp_fatal("scheme state of 2^", bits, " entries x ",
                  entry_words, " words exceeds the ",
                  maxSchemeStateWords, "-word ceiling");
    return entries * entry_words;
}

} // namespace

BatchEvaluator::BatchEvaluator(std::vector<SchemeSpec> schemes,
                               unsigned n_nodes)
    : schemes_(std::move(schemes)), nNodes_(n_nodes),
      nodeBits_(predict::nodeBitsFor(n_nodes))
{
    ccp_assert(!schemes_.empty(), "empty scheme batch");
    compiled_.reserve(schemes_.size());

    std::size_t total_words = 0;
    for (std::size_t i = 0; i < schemes_.size(); ++i) {
        const SchemeSpec &s = schemes_[i];
        Compiled c;
        c.plan = predict::makeIndexPlan(s.index, nodeBits_);
        c.depth = s.depth;
        switch (s.kind) {
          case FunctionKind::Union:
          case FunctionKind::Inter:
            ccp_assert(s.depth >= 1 && s.depth <= 32,
                       "bad window depth ", s.depth);
            c.op = s.depth == 1 ? Op::Last
                   : s.kind == FunctionKind::Union ? Op::Union
                                                   : Op::Inter;
            c.entryWords = s.depth + 1;
            break;
          case FunctionKind::OverlapLast:
            c.op = Op::OverlapLast;
            c.entryWords = 3;
            break;
          case FunctionKind::PAs:
            c.op = Op::PAs;
            c.pas = std::make_shared<const PAsFunction>(s.depth,
                                                        n_nodes);
            c.entryWords = c.pas->entryWords();
            break;
          case FunctionKind::Perceptron:
            c.op = Op::Perceptron;
            c.perc = std::make_shared<const PerceptronFunction>(
                s.depth, n_nodes, s.perc);
            c.entryWords = c.perc->entryWords();
            break;
        }
        c.base = total_words;
        total_words += checkedSchemeStateWords(
            s.index.indexBits(nodeBits_), c.entryWords);
        compiled_.push_back(std::move(c));
    }
    state_.assign(total_words, 0);
    entryScratch_.assign(compiled_.size(), nullptr);
    updScratch_.assign(compiled_.size(), nullptr);
}

template <UpdateMode mode>
inline void
BatchEvaluator::stepScheme(Compiled &c, std::uint64_t *entry,
                           std::uint64_t *upd, bool has_prev,
                           std::uint64_t inval,
                           std::uint64_t fb_ordered, std::uint64_t mask,
                           std::uint64_t actual,
                           std::uint64_t actual_pop)
{
    std::uint64_t pred = 0;
    switch (c.op) {
      case Op::Last:
        if (mode != UpdateMode::Ordered && has_prev)
            lastUpdate(upd, inval);
        pred = lastPredict(entry);
        if (mode == UpdateMode::Ordered)
            lastUpdate(entry, fb_ordered);
        break;
      case Op::Union:
      case Op::Inter:
        if (mode != UpdateMode::Ordered && has_prev)
            windowUpdate(upd, c.depth, inval);
        pred = windowPredict(entry, c.op == Op::Union);
        if (mode == UpdateMode::Ordered)
            windowUpdate(entry, c.depth, fb_ordered);
        break;
      case Op::OverlapLast:
        if (mode != UpdateMode::Ordered && has_prev)
            overlapUpdate(upd, inval);
        pred = overlapPredict(entry);
        if (mode == UpdateMode::Ordered)
            overlapUpdate(entry, fb_ordered);
        break;
      case Op::PAs:
        // Qualified calls: no virtual dispatch in the loop.
        if (mode != UpdateMode::Ordered && has_prev)
            c.pas->PAsFunction::update(upd, SharingBitmap(inval));
        pred = c.pas->PAsFunction::predict(entry).raw();
        if (mode == UpdateMode::Ordered)
            c.pas->PAsFunction::update(entry,
                                       SharingBitmap(fb_ordered));
        break;
      case Op::Perceptron:
        if (mode != UpdateMode::Ordered && has_prev)
            c.perc->PerceptronFunction::update(upd,
                                               SharingBitmap(inval));
        pred = c.perc->PerceptronFunction::predict(entry).raw();
        if (mode == UpdateMode::Ordered)
            c.perc->PerceptronFunction::update(
                entry, SharingBitmap(fb_ordered));
        break;
    }

    // Word-wise confusion: two popcounts, no per-bit work.
    // |pred & ~actual| = |pred| - tp and |actual & ~pred| =
    // |actual| - tp, with |actual| hoisted per event.
    pred &= mask;
    const std::uint64_t tp = std::popcount(pred & actual);
    c.tp += tp;
    c.fp += std::popcount(pred) - tp;
    c.fn += actual_pop - tp;
}

template <UpdateMode mode>
void
BatchEvaluator::runTrace(const trace::SharingTrace &trace,
                         const std::vector<SharingBitmap> &ordered_fb)
{
    const std::uint64_t mask = SharingBitmap::all(nNodes_).raw();
    std::uint64_t *const state = state_.data();
    Compiled *const compiled = compiled_.data();
    const std::size_t n_schemes = compiled_.size();

    std::uint64_t **const ent = entryScratch_.data();
    std::uint64_t **const upd_ptr = updScratch_.data();

    EventSeq seq = 0;
    for (const auto &ev : trace.events()) {
        // Decode once per event, not once per (event, scheme).
        const std::uint64_t pid = ev.pid;
        const std::uint64_t pcw = ev.pc >> 2;
        const std::uint64_t dir = ev.dir;
        const std::uint64_t block = ev.block;
        const std::uint64_t inval = ev.invalidated.raw();
        const std::uint64_t actual = ev.readers.raw() & mask;
        const std::uint64_t actual_pop = std::popcount(actual);
        const bool has_prev = ev.hasPrevWriter;
        const std::uint64_t prev_pid = ev.prevWriterPid;
        const std::uint64_t prev_pcw = ev.prevWriterPc >> 2;
        const std::uint64_t fb_ordered =
            mode == UpdateMode::Ordered ? ordered_fb[seq].raw() : 0;

        // Address pass: resolve (and prefetch) every scheme's entry
        // before any is touched, so the per-scheme cache misses
        // overlap instead of serializing behind each other.  The
        // update entry is the current writer's for direct and
        // ordered, the dying version's writer's for forwarded (same
        // dir/block, different identity fields).
        for (std::size_t i = 0; i < n_schemes; ++i) {
            const Compiled &c = compiled[i];
            std::uint64_t *const slice = state + c.base;
            std::uint64_t *const entry =
                slice +
                c.plan.fromWords(pid, pcw, dir, block) * c.entryWords;
            ent[i] = entry;
            __builtin_prefetch(entry, 1);
            if (mode == UpdateMode::Forwarded) {
                std::uint64_t *upd =
                    has_prev ? slice + c.plan.fromWords(prev_pid,
                                                        prev_pcw, dir,
                                                        block) *
                                           c.entryWords
                             : entry;
                upd_ptr[i] = upd;
                __builtin_prefetch(upd, 1);
            }
        }

        for (std::size_t i = 0; i < n_schemes; ++i) {
            Compiled &c = compiled[i];
            std::uint64_t *const entry = ent[i];
            std::uint64_t *const upd =
                mode == UpdateMode::Forwarded ? upd_ptr[i] : entry;
            stepScheme<mode>(c, entry, upd, has_prev, inval,
                             fb_ordered, mask, actual, actual_pop);
        }
        ++seq;
    }
}

std::vector<Confusion>
BatchEvaluator::evaluateTrace(const trace::SharingTrace &trace,
                              UpdateMode mode)
{
    ccp_assert(trace.nNodes() == nNodes_,
               "batch compiled for ", nNodes_, " nodes, trace has ",
               trace.nNodes());
    std::fill(state_.begin(), state_.end(), 0);
    for (Compiled &c : compiled_)
        c.tp = c.fp = c.fn = 0;

    std::vector<SharingBitmap> ordered_fb;
    if (mode == UpdateMode::Ordered)
        ordered_fb = predict::orderedFeedback(trace);

    CCP_TRACE_SPAN_N("batch", "batch.trace", trace.events().size());
    obs::Stopwatch watch;
    switch (mode) {
      case UpdateMode::Direct:
        runTrace<UpdateMode::Direct>(trace, ordered_fb);
        break;
      case UpdateMode::Forwarded:
        runTrace<UpdateMode::Forwarded>(trace, ordered_fb);
        break;
      case UpdateMode::Ordered:
        runTrace<UpdateMode::Ordered>(trace, ordered_fb);
        break;
    }
    double sec = watch.elapsedSec();

    const std::uint64_t events = trace.events().size();
    const std::uint64_t scheme_events = events * compiled_.size();
    auto &reg = obs::StatsRegistry::current();
    reg.counter("batch.trace_walks") += 1;
    reg.counter("batch.scheme_events") += scheme_events;
    reg.summary("batch.trace_seconds").add(sec);
    if (sec > 0.0 && scheme_events > 0)
        reg.summary("batch.scheme_events_per_sec")
            .add(static_cast<double>(scheme_events) / sec);

    std::vector<Confusion> confs;
    confs.reserve(compiled_.size());
    const std::uint64_t decisions = events * nNodes_;
    for (const Compiled &c : compiled_)
        confs.push_back(
            Confusion::fromPositives(c.tp, c.fp, c.fn, decisions));
    return confs;
}

std::vector<SuiteResult>
BatchEvaluator::evaluateSuite(
    const std::vector<trace::SharingTrace> &traces, UpdateMode mode)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    std::vector<SuiteResult> results(schemes_.size());
    for (std::size_t i = 0; i < schemes_.size(); ++i) {
        results[i].scheme = schemes_[i];
        results[i].mode = mode;
    }
    for (const auto &tr : traces) {
        ccp_assert(tr.nNodes() == traces.front().nNodes(),
                   "mixed machine sizes in suite");
        std::vector<Confusion> confs = evaluateTrace(tr, mode);
        for (std::size_t i = 0; i < confs.size(); ++i) {
            results[i].pooled.merge(confs[i]);
            results[i].perTrace.push_back({tr.name(), confs[i]});
        }
    }
    return results;
}

std::size_t
schemeStateWords(const SchemeSpec &s, unsigned n_nodes)
{
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    std::size_t entry_words =
        s.kind == FunctionKind::PAs
            ? PAsFunction(s.depth, n_nodes).entryWords()
        : s.kind == FunctionKind::Perceptron
            ? PerceptronFunction(s.depth, n_nodes, s.perc)
                  .entryWords()
        : s.kind == FunctionKind::OverlapLast ? 3
                                              : s.depth + 1;
    return checkedSchemeStateWords(s.index.indexBits(node_bits),
                                   entry_words);
}

std::vector<std::pair<std::size_t, std::size_t>>
planBatches(const std::vector<SchemeSpec> &schemes, unsigned n_nodes,
            std::size_t max_state_words, std::size_t max_schemes)
{
    std::vector<std::pair<std::size_t, std::size_t>> batches;
    std::size_t first = 0, words = 0;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        std::size_t scheme_words =
            schemeStateWords(schemes[i], n_nodes);
        bool full = i > first && (i - first >= max_schemes ||
                                  words + scheme_words >
                                      max_state_words);
        if (full) {
            batches.emplace_back(first, i);
            first = i;
            words = 0;
        }
        words += scheme_words;
    }
    if (first < schemes.size())
        batches.emplace_back(first, schemes.size());
    return batches;
}

} // namespace ccp::sweep
