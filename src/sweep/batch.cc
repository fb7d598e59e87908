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
        std::shared_ptr<const predict::PredictionFunction> fn =
            predict::makeFunction(s.kind, s.depth, n_nodes, s.perc);
        c.entryWords = fn->entryWords();
        switch (s.kind) {
          case FunctionKind::Union:
          case FunctionKind::Inter:
            c.op = s.depth == 1 ? Op::Last
                   : s.kind == FunctionKind::Union ? Op::Union
                                                   : Op::Inter;
            break;
          case FunctionKind::OverlapLast:
            c.op = Op::OverlapLast;
            break;
          case FunctionKind::PAs:
            c.op = Op::PAs;
            c.pas = std::static_pointer_cast<const PAsFunction>(fn);
            break;
          case FunctionKind::Perceptron:
            c.op = Op::Perceptron;
            c.perc =
                std::static_pointer_cast<const PerceptronFunction>(fn);
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
                           std::uint64_t *upd,
                           const trace::CoherenceEvent &ev,
                           SharingBitmap fb_ordered, std::uint64_t mask,
                           std::uint64_t actual,
                           std::uint64_t actual_pop)
{
    // The opcode picks the family's transitions; the shared rule
    // orders them.  Op::Last is the window code at a literal depth of
    // 1, so the compiler folds its ring loop and arithmetic away.
    const auto predict_op = [&]() -> std::uint64_t {
        switch (c.op) {
          case Op::Last:
            return predict::windowPredict(entry, 1, true);
          case Op::Union:
            return predict::windowPredict(entry, c.depth, true);
          case Op::Inter:
            return predict::windowPredict(entry, c.depth, false);
          case Op::OverlapLast:
            return predict::overlapLastPredict(entry);
          case Op::PAs:
            // Qualified calls: no virtual dispatch in the loop.
            return c.pas->PAsFunction::predict(entry).raw();
          case Op::Perceptron:
            return c.perc->PerceptronFunction::predict(entry).raw();
        }
        return 0;
    };
    const auto update_op = [&](SharingBitmap fb) {
        switch (c.op) {
          case Op::Last:
            predict::windowUpdate(upd, 1, fb.raw());
            break;
          case Op::Union:
          case Op::Inter:
            predict::windowUpdate(upd, c.depth, fb.raw());
            break;
          case Op::OverlapLast:
            predict::overlapLastUpdate(upd, fb.raw());
            break;
          case Op::PAs:
            c.pas->PAsFunction::update(upd, fb);
            break;
          case Op::Perceptron:
            c.perc->PerceptronFunction::update(upd, fb);
            break;
        }
    };
    const std::uint64_t pred =
        predict::stepWith(ev, mode, fb_ordered, predict_op, update_op) &
        mask;

    // Word-wise confusion: two popcounts, no per-bit work.
    // |pred & ~actual| = |pred| - tp and |actual & ~pred| =
    // |actual| - tp, with |actual| hoisted per event.
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
    for (const trace::CoherenceEvent &ev_ref : trace.events()) {
        // Decode once per event, not once per (event, scheme); the
        // local copy cannot alias the state the schemes write.
        const trace::CoherenceEvent ev = ev_ref;
        const std::uint64_t pid = ev.pid;
        const std::uint64_t pcw = ev.pc >> 2;
        const std::uint64_t dir = ev.dir;
        const std::uint64_t block = ev.block;
        const std::uint64_t actual = ev.readers.raw() & mask;
        const std::uint64_t actual_pop = std::popcount(actual);
        const bool learns_first = predict::learnsFirst(ev, mode);
        const predict::Learner who = predict::learner(ev, mode);
        const std::uint64_t learn_pid = who.pid;
        const std::uint64_t learn_pcw = who.pc >> 2;
        const SharingBitmap fb_ordered =
            mode == UpdateMode::Ordered ? ordered_fb[seq] : SharingBitmap();

        // Address pass: resolve (and prefetch) every scheme's entry
        // before any is touched, so the per-scheme cache misses
        // overlap instead of serializing behind each other.  When the
        // learner is not the current writer and the event trains it,
        // its entry (same dir/block, different identity fields) is
        // resolved too.
        for (std::size_t i = 0; i < n_schemes; ++i) {
            const Compiled &c = compiled[i];
            std::uint64_t *const slice = state + c.base;
            std::uint64_t *const entry =
                slice +
                c.plan.fromWords(pid, pcw, dir, block) * c.entryWords;
            ent[i] = entry;
            __builtin_prefetch(entry, 1);
            if (predict::learnsFromPrevWriter(mode)) {
                std::uint64_t *const upd =
                    learns_first
                        ? slice + c.plan.fromWords(learn_pid, learn_pcw,
                                                   dir, block) *
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
                predict::learnsFromPrevWriter(mode) ? upd_ptr[i] : entry;
            stepScheme<mode>(c, entry, upd, ev, fb_ordered, mask, actual,
                             actual_pop);
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
    const std::size_t entry_words =
        predict::makeFunction(s.kind, s.depth, n_nodes, s.perc)
            ->entryWords();
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
