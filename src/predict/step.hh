/**
 * @file
 * The update mechanisms (paper section 3.4), defined once.
 *
 * Every consumer that runs a predictor over coherence events — the
 * reference evaluator, the distributed predictor, the forwarding
 * overlay, the serve sessions, the online forwarder and the batched
 * sweep kernel — takes its update semantics from here.  (The
 * address-only, direct-only sticky-spatial predictor keeps its own
 * short loop in spatial.cc.)  A mode makes three decisions per event:
 *
 *  - which writer's entry learns: the current writer's under direct
 *    and ordered update, the dying version's writer's under forwarded
 *    update (learner());
 *  - from which feedback: the invalidated reader set, and only when a
 *    *written* version died here (hasPrevWriter), under direct and
 *    forwarded (learnsFirst()); the event's own eventual outcome
 *    (orderedFeedback()), always, under ordered;
 *  - when: before the prediction under direct and forwarded, after it
 *    under ordered (stepFused(), and stepWith() for operations with no
 *    fused form).
 *
 * Direct update is a heuristic when writers alternate: a writer may
 * learn someone else's history.  Ordered update is the oracle: each
 * prediction is immediately followed by its own outcome, so every
 * later prediction through that entry sees perfectly ordered history.
 * It needs each event's successor, i.e. a second pass over the trace,
 * which is how the paper (and this code) simulates it.
 *
 * For pure address-indexed schemes with full-width fields each block
 * has its own entry, which learns its versions' outcomes in order
 * under every mechanism, so all three coincide (the property tests
 * assert this).
 */

#ifndef CCP_PREDICT_STEP_HH
#define CCP_PREDICT_STEP_HH

#include <cstdint>
#include <vector>

#include "common/bitmap.hh"
#include "common/types.hh"
#include "trace/event.hh"
#include "trace/trace.hh"

namespace ccp::predict {

/** The update-mechanism axis of the taxonomy. */
enum class UpdateMode : std::uint8_t
{
    Direct,
    Forwarded,
    Ordered,
};

const char *updateModeName(UpdateMode mode);

/** Whether @p mode trains the dying version's writer rather than the
 *  current one (so the learning entry may differ from the predicting
 *  entry). */
constexpr bool
learnsFromPrevWriter(UpdateMode mode)
{
    return mode == UpdateMode::Forwarded;
}

/** The writer identity fields of the entry that learns. */
struct Learner
{
    NodeId pid;
    Pc pc;
};

/** Which writer's entry learns from @p ev's feedback under @p mode
 *  (dir and block are the event's own). */
constexpr Learner
learner(const trace::CoherenceEvent &ev, UpdateMode mode)
{
    return learnsFromPrevWriter(mode)
               ? Learner{ev.prevWriterPid, ev.prevWriterPc}
               : Learner{ev.pid, ev.pc};
}

/** Whether @p ev trains its learner() before the prediction: under
 *  direct and forwarded update, only when a *written* version died
 *  here (blocks read before their first write carry no attributable
 *  history).  Ordered update trains after the prediction, always. */
constexpr bool
learnsFirst(const trace::CoherenceEvent &ev, UpdateMode mode)
{
    return mode != UpdateMode::Ordered && ev.hasPrevWriter;
}

/**
 * The feedback each event's entry receives under ordered update: the
 * readers its version's death will invalidate (identical in content
 * to forwarded update's feedback, but perfectly ordered).  Versions
 * still live at the end of the trace feed back their full reader set.
 */
std::vector<SharingBitmap>
orderedFeedback(const trace::SharingTrace &trace);

/**
 * One event's order/feedback rule over abstract entry operations, so
 * table consumers and the batched kernel (raw state words) share it.
 * @p predict() reads the predicting entry; @p learn(fb) folds the
 * SharingBitmap @p fb into the learner()'s entry.  When @p fuse (the
 * learner's entry is the predicting one), the pair runs as one op
 * instead: @p learn_predict(fb), exactly learn(fb) then predict(), or
 * @p predict_learn(fb), exactly predict() then learn(fb), returning
 * what predict() would.  @p ordered_fb is read only under ordered
 * update.  @return what predict() returned.
 */
template <class Predict, class Learn, class LearnPredict, class PredictLearn>
inline auto
stepFused(const trace::CoherenceEvent &ev, UpdateMode mode,
          SharingBitmap ordered_fb, bool fuse, Predict &&predict,
          Learn &&learn, LearnPredict &&learn_predict,
          PredictLearn &&predict_learn)
{
    if (mode == UpdateMode::Ordered) {
        if (fuse)
            return predict_learn(ordered_fb);
        auto pred = predict();
        learn(ordered_fb);
        return pred;
    }
    if (learnsFirst(ev, mode)) {
        if (fuse)
            return learn_predict(ev.invalidated);
        learn(ev.invalidated);
    }
    return predict();
}

/** stepFused() for operations with no fused form. */
template <class Predict, class Learn>
inline auto
stepWith(const trace::CoherenceEvent &ev, UpdateMode mode,
         SharingBitmap ordered_fb, Predict &&predict, Learn &&learn)
{
    return stepFused(
        ev, mode, ordered_fb, /*fuse=*/false, predict, learn,
        [&](SharingBitmap fb) {
            learn(fb);
            return predict();
        },
        [&](SharingBitmap fb) {
            auto pred = predict();
            learn(fb);
            return pred;
        });
}

/**
 * Step one event through @p table: anything with
 * predict(pid, pc, dir, block) and update(pid, pc, dir, block, fb),
 * such as PredictorTable or DistributedPredictor.
 */
template <class Table>
inline SharingBitmap
stepEvent(Table &table, const trace::CoherenceEvent &ev,
          UpdateMode mode, SharingBitmap ordered_fb = SharingBitmap())
{
    const Learner who = learner(ev, mode);
    return stepWith(
        ev, mode, ordered_fb,
        [&] { return table.predict(ev.pid, ev.pc, ev.dir, ev.block); },
        [&](SharingBitmap fb) {
            table.update(who.pid, who.pc, ev.dir, ev.block, fb);
        });
}

/**
 * Replay @p trace through @p table under @p mode, calling
 * @p observe(ev, prediction) for every event in order.  The table is
 * used as found (callers clear it for a fresh run).
 */
template <class Table, class Observe>
void
replayTrace(const trace::SharingTrace &trace, Table &table,
            UpdateMode mode, Observe &&observe)
{
    std::vector<SharingBitmap> ordered_fb;
    if (mode == UpdateMode::Ordered)
        ordered_fb = orderedFeedback(trace);

    EventSeq seq = 0;
    for (const auto &ev : trace.events()) {
        const SharingBitmap fb =
            mode == UpdateMode::Ordered ? ordered_fb[seq] : SharingBitmap();
        observe(ev, stepEvent(table, ev, mode, fb));
        ++seq;
    }
}

} // namespace ccp::predict

#endif // CCP_PREDICT_STEP_HH
