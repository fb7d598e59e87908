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

/** The unmapped slot of the dense-id map. */
constexpr std::uint32_t unmappedId = ~std::uint32_t(0);

/** A dense group's reset list holds up to 1/8 of its table's raw
 *  indices; a trace that touches more refills the slot array, which
 *  then costs no more than walking the list would. */
constexpr std::size_t maxResetListFraction = 8;

/** Prefetch (for write) every cache line of a @p words-word block. */
inline void
prefetchBlock(std::uint64_t *block, std::size_t words)
{
    __builtin_prefetch(block, 1);
    for (std::size_t w = 8; w < words; w += 8)
        __builtin_prefetch(block + w, 1);
}

} // namespace

BatchEvaluator::BatchEvaluator(std::vector<SchemeSpec> schemes,
                               unsigned n_nodes)
    : schemes_(std::move(schemes)), nNodes_(n_nodes),
      nodeBits_(predict::nodeBitsFor(n_nodes))
{
    ccp_assert(!schemes_.empty(), "empty scheme batch");

    // Group by IndexSpec (specs[g] is groups_[g]'s) and, within a
    // group, by learnKey: each scheme joins its key's block and
    // remembers which of the block's outputs it reads, resolved
    // once the block's depth and Bloom members are known.
    struct Read
    {
        std::size_t block;
        std::size_t bloom; ///< 1 + Bloom member, or 0 (raw decision)
    };
    std::vector<Read> reads;
    reads.reserve(schemes_.size());
    std::vector<predict::IndexSpec> specs;
    for (const SchemeSpec &s : schemes_) {
        std::shared_ptr<const predict::PredictionFunction> fn =
            predict::makeFunction(s.kind, s.depth, n_nodes, s.perc);
        const unsigned bits = s.index.indexBits(nodeBits_);
        tableWords_ += checkedSchemeStateWords(bits, fn->entryWords());
        const std::size_t g = static_cast<std::size_t>(
            std::find(specs.begin(), specs.end(), s.index) -
            specs.begin());
        if (g == specs.size()) {
            specs.push_back(s.index);
            Group grp;
            grp.plan = predict::makeIndexPlan(s.index, nodeBits_);
            grp.bits = bits;
            groups_.push_back(std::move(grp));
        }

        const predict::LearnKey key = predict::learnKey(s);
        std::size_t b = 0;
        while (b < blocks_.size() &&
               !(blocks_[b].group == g && blocks_[b].key == key))
            ++b;
        if (b == blocks_.size()) {
            Block blk;
            blk.key = key;
            blk.group = g;
            switch (key.kind) {
              case predict::LearnKey::Kind::WindowHistory:
                blk.op = Op::Window;
                break;
              case predict::LearnKey::Kind::PAs:
                blk.op = Op::PAs;
                blk.pas = std::static_pointer_cast<const PAsFunction>(fn);
                break;
              case predict::LearnKey::Kind::Perceptron: {
                blk.op = Op::Perceptron;
                // The learner needs no Bloom word of its own.
                predict::PerceptronParams learner = s.perc;
                learner.bloomBits = 0;
                blk.perc = std::make_shared<const PerceptronFunction>(
                    s.depth, n_nodes, learner);
                break;
              }
            }
            blocks_.push_back(std::move(blk));
        }
        Block &blk = blocks_[b];
        Read r{b, 0};
        if (blk.op == Op::Window)
            blk.depth = std::max(
                blk.depth, s.kind == FunctionKind::OverlapLast ? 2u
                                                               : s.depth);
        if (blk.op == Op::Perceptron && s.perc.bloomBits > 0) {
            blk.blooms.push_back(
                std::static_pointer_cast<const PerceptronFunction>(fn));
            r.bloom = blk.blooms.size();
        }
        reads.push_back(r);
    }

    // Lay each group out block by block, and number the outputs.
    std::size_t n_outs = 0;
    for (Block &blk : blocks_) {
        std::size_t words = 0, outs = 1;
        switch (blk.op) {
          case Op::Window:
            words = blk.depth + 1;
            outs = predict::windowHistoryOutputs(blk.depth);
            break;
          case Op::PAs:
            words = blk.pas->entryWords();
            break;
          case Op::Perceptron:
            words = blk.perc->learnedWords() + blk.blooms.size();
            outs = 1 + blk.blooms.size();
            break;
        }
        Group &grp = groups_[blk.group];
        blk.offset = grp.stride;
        grp.stride += words;
        blk.out = n_outs;
        n_outs += outs;
    }
    outs_.assign(n_outs, 0);

    tallies_.resize(schemes_.size());
    for (std::size_t i = 0; i < schemes_.size(); ++i) {
        const Read &r = reads[i];
        const Block &blk = blocks_[r.block];
        const SchemeSpec &s = schemes_[i];
        std::size_t at = r.bloom;
        if (blk.op == Op::Window) {
            switch (s.kind) {
              case FunctionKind::Union:
                at = s.depth - 1;
                break;
              case FunctionKind::Inter:
                at = blk.depth + s.depth - 1;
                break;
              default:
                at = 2 * std::size_t(blk.depth);
                break;
            }
        }
        tallies_[i].out = blk.out + at;
    }

    rawScratch_.assign(groups_.size(), 0);
    learnRawScratch_.assign(groups_.size(), 0);
    entryScratch_.assign(groups_.size(), nullptr);
    updScratch_.assign(groups_.size(), nullptr);
}

void
BatchEvaluator::startTrace(std::size_t n_events, UpdateMode mode)
{
    // Dense ids count at most two raw indices per event (the event's
    // own and, under forwarded update, its learner's), and must stay
    // below unmappedId.
    ccp_assert(n_events < (std::size_t(1) << 31),
               "trace of ", n_events, " events is too long for u32 ids");
    const std::size_t max_ids =
        n_events * (predict::learnsFromPrevWriter(mode) ? 2 : 1);
    for (Group &g : groups_) {
        const std::size_t table = std::size_t(1) << g.bits;
        // Leave the last dense trace's slots all unmapped: through
        // the reset list if it held every id, else by a refill.
        if (g.entries <= g.raws.size()) {
            for (std::uint32_t i = 0; i < g.entries; ++i)
                g.slots[g.raws[i]] = unmappedId;
        } else {
            std::fill(g.slots.begin(), g.slots.end(), unmappedId);
        }
        g.entries = 0;
        g.identity = table * identityEventsPerEntry <= n_events;
        // Dense state is appended (and zeroed) by first touch, at
        // most one entry per raw index the trace can reach.
        const std::size_t entries =
            g.identity ? table : std::min(table, max_ids);
        if (g.stateCap < entries * g.stride) {
            g.stateCap = entries * g.stride;
            g.stateBuf =
                std::make_unique_for_overwrite<std::uint64_t[]>(g.stateCap);
        }
        g.state = g.stateBuf.get();
        if (g.identity) {
            std::fill_n(g.state, table * g.stride, 0);
        } else if (g.slots.empty() && n_events > 0) {
            g.slots.assign(table, unmappedId);
            g.raws.resize(table / maxResetListFraction);
        }
    }
}

inline std::uint64_t
BatchEvaluator::denseId(Group &g, std::uint64_t raw)
{
    std::uint32_t &slot = g.slots[raw];
    if (slot == unmappedId) [[unlikely]] {
        slot = g.entries;
        if (g.entries < g.raws.size())
            g.raws[g.entries] = static_cast<std::uint32_t>(raw);
        std::fill_n(g.state + std::size_t(g.entries) * g.stride, g.stride,
                    0);
        ++g.entries;
    }
    return slot;
}

template <UpdateMode mode>
inline void
BatchEvaluator::stepBlock(const Block &b, std::uint64_t *entry,
                          std::uint64_t *upd,
                          const trace::CoherenceEvent &ev,
                          SharingBitmap fb_ordered, std::uint64_t *out)
{
    // The opcode picks the family's transitions; the shared rule
    // orders them, fusing a learned family's two halves when one
    // entry learns and predicts.  Predicting writes every output the
    // members read.
    const auto window = [&](auto depth) {
        predict::stepWith(
            ev, mode, fb_ordered,
            [&] {
                predict::windowHistoryPredict(entry, depth, out);
                return 0;
            },
            [&](SharingBitmap fb) {
                predict::windowHistoryPush(upd, depth, fb.raw());
            });
    };
    switch (b.op) {
      case Op::Window:
        predict::withLiteralDepth(b.depth, window);
        break;
      case Op::PAs: {
        // Qualified calls: no virtual dispatch in the loop.
        const PAsFunction &pas = *b.pas;
        const auto predict = [&] {
            out[0] = pas.PAsFunction::predict(entry).raw();
            return 0;
        };
        const auto learn = [&](SharingBitmap fb) {
            pas.PAsFunction::update(upd, fb);
        };
        predict::stepFused(
            ev, mode, fb_ordered, upd == entry, predict, learn,
            [&](SharingBitmap fb) {
                out[0] = pas.updatePredict(entry, fb).raw();
                return 0;
            },
            [&](SharingBitmap fb) {
                predict();
                learn(fb);
                return 0;
            });
        break;
      }
      case Op::Perceptron: {
        // One dot-product pass and one training step for the key;
        // each Bloom member gates the raw decision with its own word
        // and records the raw positives that died in it.
        const PerceptronFunction &perc = *b.perc;
        const std::size_t learned = perc.learnedWords();
        const std::size_t n_blooms = b.blooms.size();
        const auto gate = [&](std::uint64_t raw) {
            out[0] = raw;
            for (std::size_t k = 0; k < n_blooms; ++k)
                out[1 + k] = b.blooms[k]->bloomGate(raw, entry[learned + k]);
        };
        const auto record = [&](std::uint64_t *state, std::uint64_t dead) {
            for (std::size_t k = 0; k < n_blooms; ++k)
                b.blooms[k]->bloomRecord(state[learned + k], dead);
        };
        predict::stepFused(
            ev, mode, fb_ordered, upd == entry,
            [&] {
                gate(perc.rawPredict(entry));
                return 0;
            },
            [&](SharingBitmap fb) {
                record(upd, perc.learn(upd, fb.raw()) & ~fb.raw());
            },
            [&](SharingBitmap fb) {
                const PerceptronFunction::Decisions d =
                    perc.learnPredict(entry, fb.raw());
                record(entry, d.seen & ~fb.raw());
                gate(d.next);
                return 0;
            },
            [&](SharingBitmap fb) {
                // The prediction is the decision the trainer sees.
                const std::uint64_t raw = perc.learn(entry, fb.raw());
                gate(raw);
                record(entry, raw & ~fb.raw());
                return 0;
            });
        break;
      }
    }
}

template <UpdateMode mode>
void
BatchEvaluator::runTrace(const trace::SharingTrace &trace,
                         const std::vector<SharingBitmap> &ordered_fb)
{
    constexpr bool learns = predict::learnsFromPrevWriter(mode);
    const std::uint64_t mask = SharingBitmap::all(nNodes_).raw();
    Group *const groups = groups_.data();
    const std::size_t n_groups = groups_.size();
    const Block *const blocks = blocks_.data();
    const std::size_t n_blocks = blocks_.size();
    Tally *const tallies = tallies_.data();
    const std::size_t n_schemes = tallies_.size();
    std::uint64_t *const outs = outs_.data();
    const std::span<const trace::CoherenceEvent> events = trace.events();
    const std::size_t n_events = events.size();
    if (n_events == 0)
        return;

    std::uint64_t *const raw_at = rawScratch_.data();
    std::uint64_t *const learn_raw_at = learnRawScratch_.data();
    std::uint64_t **const ent = entryScratch_.data();
    std::uint64_t **const upd_ptr = updScratch_.data();

    // Where a raw index leads: prefetched one event ahead, the slot of
    // a dense group (the entry follows once the id is known) or the
    // entry of an identity group.
    const auto prefetch_raw = [](const Group &grp, std::uint64_t raw) {
        if (grp.identity)
            __builtin_prefetch(grp.state + raw * grp.stride, 1);
        else
            __builtin_prefetch(grp.slots.data() + raw, 1);
    };
    {
        const trace::CoherenceEvent &ev = events[0];
        const predict::Learner who = predict::learner(ev, mode);
        for (std::size_t g = 0; g < n_groups; ++g) {
            raw_at[g] = groups[g].plan.fromWords(ev.pid, ev.pc >> 2,
                                                 ev.dir, ev.block);
            learn_raw_at[g] = groups[g].plan.fromWords(
                who.pid, who.pc >> 2, ev.dir, ev.block);
        }
    }

    for (std::size_t seq = 0; seq < n_events; ++seq) {
        // Decode once per event, not once per (event, scheme); the
        // local copy cannot alias the state the schemes write.
        const trace::CoherenceEvent ev = events[seq];
        const std::uint64_t actual = ev.readers.raw() & mask;
        const std::uint64_t actual_pop = std::popcount(actual);
        const bool learns_first = learns && predict::learnsFirst(ev, mode);
        const SharingBitmap fb_ordered =
            mode == UpdateMode::Ordered ? ordered_fb[seq] : SharingBitmap();
        // The next event's fields (the last event looks at itself).
        const trace::CoherenceEvent &next =
            events[seq + 1 < n_events ? seq + 1 : seq];
        const std::uint64_t next_pid = next.pid;
        const std::uint64_t next_pcw = next.pc >> 2;
        const std::uint64_t next_dir = next.dir;
        const std::uint64_t next_block = next.block;
        const bool next_learns_first =
            learns && predict::learnsFirst(next, mode);
        const predict::Learner next_who = predict::learner(next, mode);

        // Address pass: per index group, this event's entry block
        // (dense ids assigned on first touch) is resolved and
        // prefetched before any scheme touches it, and the next
        // event's raw index is computed — one plan evaluation per
        // group, shared by all its schemes.  When the learner is not
        // the current writer and the event trains it, its block
        // (same dir/block, different identity fields) is resolved
        // too.
        for (std::size_t g = 0; g < n_groups; ++g) {
            Group &grp = groups[g];
            std::uint64_t id = raw_at[g];
            if (!grp.identity)
                id = denseId(grp, id);
            std::uint64_t *const entry = grp.state + id * grp.stride;
            ent[g] = entry;
            prefetchBlock(entry, grp.stride);
            if (learns) {
                std::uint64_t *upd = entry;
                if (learns_first) {
                    std::uint64_t learn_id = learn_raw_at[g];
                    if (!grp.identity)
                        learn_id = denseId(grp, learn_id);
                    upd = grp.state + learn_id * grp.stride;
                    prefetchBlock(upd, grp.stride);
                }
                upd_ptr[g] = upd;
            }

            const std::uint64_t next_raw = grp.plan.fromWords(
                next_pid, next_pcw, next_dir, next_block);
            raw_at[g] = next_raw;
            prefetch_raw(grp, next_raw);
            if (next_learns_first) {
                const std::uint64_t next_learn_raw = grp.plan.fromWords(
                    next_who.pid, next_who.pc >> 2, next_dir, next_block);
                learn_raw_at[g] = next_learn_raw;
                prefetch_raw(grp, next_learn_raw);
            }
        }

        // Learn and predict once per block, then tally every scheme
        // from its block's outputs: two popcounts, no per-bit work.
        // |pred & ~actual| = |pred| - tp and |actual & ~pred| =
        // |actual| - tp, with |actual| hoisted per event.
        for (std::size_t b = 0; b < n_blocks; ++b) {
            const Block &blk = blocks[b];
            std::uint64_t *const entry = ent[blk.group] + blk.offset;
            std::uint64_t *const upd =
                learns ? upd_ptr[blk.group] + blk.offset : entry;
            stepBlock<mode>(blk, entry, upd, ev, fb_ordered,
                            outs + blk.out);
        }
        for (std::size_t i = 0; i < n_schemes; ++i) {
            Tally &t = tallies[i];
            const std::uint64_t pred = outs[t.out] & mask;
            const std::uint64_t tp = std::popcount(pred & actual);
            t.tp += tp;
            t.fp += std::popcount(pred) - tp;
            t.fn += actual_pop - tp;
        }
    }
}

std::vector<Confusion>
BatchEvaluator::evaluateTrace(const trace::SharingTrace &trace,
                              UpdateMode mode)
{
    ccp_assert(trace.nNodes() == nNodes_,
               "batch compiled for ", nNodes_, " nodes, trace has ",
               trace.nNodes());
    startTrace(trace.events().size(), mode);
    for (Tally &t : tallies_)
        t.tp = t.fp = t.fn = 0;

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
    const std::uint64_t scheme_events = events * tallies_.size();
    auto &reg = obs::StatsRegistry::current();
    reg.counter("batch.trace_walks") += 1;
    reg.counter("batch.scheme_events") += scheme_events;
    reg.counter("batch.learned_blocks") += events * blocks_.size();
    std::uint64_t state_words = 0;
    for (const Group &g : groups_)
        state_words += (g.identity ? std::size_t(1) << g.bits : g.entries) *
                       g.stride;
    reg.counter("batch.state_words") += state_words;
    reg.counter("batch.table_words") += tableWords_;
    reg.summary("batch.trace_seconds").add(sec);
    if (sec > 0.0 && scheme_events > 0)
        reg.summary("batch.scheme_events_per_sec")
            .add(static_cast<double>(scheme_events) / sec);

    std::vector<Confusion> confs;
    confs.reserve(tallies_.size());
    const std::uint64_t decisions = events * nNodes_;
    for (const Tally &t : tallies_)
        confs.push_back(
            Confusion::fromPositives(t.tp, t.fp, t.fn, decisions));
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
BatchEvaluator::footprintBytes() const
{
    std::size_t bytes = 0;
    for (const Group &g : groups_)
        bytes += g.stateCap * sizeof(std::uint64_t) +
                 (g.slots.capacity() + g.raws.capacity()) *
                     sizeof(std::uint32_t);
    return bytes;
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
    auto cut = [&](std::size_t at) {
        batches.emplace_back(first, at);
        first = at;
        words = 0;
    };
    std::vector<std::size_t> scheme_words(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i)
        scheme_words[i] = schemeStateWords(schemes[i], n_nodes);

    for (std::size_t g = 0; g < schemes.size();) {
        // The IndexSpec group at g: its run of consecutive schemes.
        std::size_t end = g + 1;
        std::size_t group_words = scheme_words[g];
        while (end < schemes.size() &&
               schemes[end].index == schemes[g].index)
            group_words += scheme_words[end++];
        // A group that does not fit the open batch starts a new one.
        if (g > first && (end - first > max_schemes ||
                          words + group_words > max_state_words))
            cut(g);
        // Within the group, only one too large for a batch of its
        // own splits.
        for (std::size_t i = g; i < end; ++i) {
            if (i > first && (i - first >= max_schemes ||
                              words + scheme_words[i] > max_state_words))
                cut(i);
            words += scheme_words[i];
        }
        g = end;
    }
    if (first < schemes.size())
        batches.emplace_back(first, schemes.size());
    return batches;
}

} // namespace ccp::sweep
