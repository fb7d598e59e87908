/**
 * @file
 * Session: one client's online predictor inside the predictd engine.
 *
 * A session owns a PredictorTable built from one SchemeSpec and
 * consumes that client's coherence event stream *online*: for each
 * event it folds in the feedback the event carries (the shared
 * predict::stepEvent, which the offline evaluator — its byte-identical
 * oracle — replays too), emits the prediction for the event,
 * and scores it into both a cumulative Confusion and a sliding-window
 * Confusion over the last N events, so clients see current PVP /
 * sensitivity rather than a lifetime average that a phase change
 * would hide behind.
 *
 * Ordered update is rejected: it needs the successor of every event
 * (a second pass over the trace) and therefore cannot be served
 * online — the paper simulates it, a server cannot.
 *
 * Sessions also encode/decode their full state (table words, event
 * count, confusion counts, window ring) for the server's CCPS
 * snapshots, so a killed server restores byte-identical predictor
 * state.
 */

#ifndef CCP_SERVE_SESSION_HH
#define CCP_SERVE_SESSION_HH

#include <cstdint>
#include <vector>

#include "predict/evaluator.hh"
#include "predict/metrics.hh"
#include "predict/table.hh"
#include "trace/event.hh"

namespace ccp::serve {

/** The predictor a session runs: scheme, update mode, window size. */
struct SessionConfig
{
    predict::SchemeSpec scheme;
    /** Direct or Forwarded; Ordered is not online-servable. */
    predict::UpdateMode mode = predict::UpdateMode::Direct;
    /** Sliding-window length of the rolling screening stats. */
    std::size_t windowEvents = 4096;
};

/** A session's screening stats at one instant. */
struct SessionStats
{
    std::uint64_t events = 0;
    predict::Confusion total;
    /** Confusion over the last windowEvents events only. */
    predict::Confusion window;

    bool operator==(const SessionStats &) const = default;
};

class Session
{
  public:
    Session(std::uint64_t id, const SessionConfig &config,
            unsigned n_nodes);

    std::uint64_t id() const { return id_; }
    std::uint64_t eventsProcessed() const { return events_; }
    unsigned nNodes() const { return nNodes_; }
    const predict::PredictorTable &table() const { return table_; }

    /**
     * Consume one event: update the table with the event's feedback
     * (per the configured mode), predict, score.  @return the
     * predicted sharing bitmap for this event.
     */
    SharingBitmap onEvent(const trace::CoherenceEvent &ev);

    /** Cumulative + sliding-window confusion counts. */
    SessionStats stats() const;

    /** Append this session's full state to @p out (see session.cc
     *  for the fixed little-endian layout). */
    void encode(std::vector<char> &out) const;

    /**
     * Restore state encoded by encode() from @p p, advancing it past
     * the consumed bytes.  @p end bounds the readable range.
     * @return false (session unchanged on geometry mismatch, possibly
     * partially consumed input on truncation) when the bytes do not
     * match this session's configuration.
     */
    bool decode(const char *&p, const char *end);

  private:
    std::uint64_t id_;
    unsigned nNodes_;
    predict::UpdateMode mode_;
    predict::PredictorTable table_;

    std::uint64_t events_ = 0;
    predict::Confusion total_;

    /** Sliding window: per-event {tp, fp, fn} (each <= 64 nodes, so
     *  a byte per count); tn falls out by conservation. */
    struct WindowCell
    {
        std::uint8_t tp = 0;
        std::uint8_t fp = 0;
        std::uint8_t fn = 0;
    };
    std::vector<WindowCell> window_;
    std::size_t winCount_ = 0;
    /** Next write position (== oldest cell once the ring is full). */
    std::size_t winPos_ = 0;
    /** Running sums over the live window cells. */
    std::uint64_t winTp_ = 0, winFp_ = 0, winFn_ = 0;
};

} // namespace ccp::serve

#endif // CCP_SERVE_SESSION_HH
