/**
 * @file
 * PredictServer — the long-running "predictd" engine (ROADMAP item 2,
 * docs/SERVING.md).
 *
 * Architecture (the RACoherence per-producer log-buffer shape):
 *
 *   client threads ──push──▶ per-session SpscRing ──pop──▶ agents
 *                                                            │
 *   client threads ◀──pop── per-session response ring ◀──────┘
 *
 *  - N sessions, each a sharded Session (its own PredictorTable);
 *    session s is owned by agent s % agents, so every session's
 *    stream is consumed by exactly one thread in submit order — state
 *    after k events is deterministic at ANY agent count, which is
 *    what makes snapshots restore byte-identically.
 *  - Agents are jobs on the existing ThreadPool, launched from a
 *    driver thread so start()/stop() stay non-blocking for callers.
 *  - submit() is wait-free for the producer (one SPSC push); a full
 *    ring is backpressure, reported to the caller and counted.
 *  - Rolling screening stats per session (sliding-window PVP /
 *    sensitivity) and ingest-to-predict / queue-wait latency
 *    LogHistograms (p50/p99, over one event in latencySampleEvery)
 *    merged into the caller's StatsRegistry at stop().
 *  - Periodic + final snapshots go through the CCPS state-blob
 *    container (sweep/checkpoint.hh): validated header, whole-file
 *    checksum, fsync-durable atomic writes.  restore() before start()
 *    brings a killed server back byte-identical.
 *
 * Threading contract: one producer thread per session (the SPSC
 * discipline; distinct sessions may be fed from distinct threads),
 * and one consumer per session's response ring.  stats() and
 * snapshotNow() may be called from any thread.
 */

#ifndef CCP_SERVE_SERVER_HH
#define CCP_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "serve/session.hh"
#include "serve/spsc.hh"
#include "sweep/checkpoint.hh"
#include "trace/event.hh"

namespace ccp::serve {

struct ServeOptions
{
    /** Predictor every session runs (scheme, mode, window). */
    SessionConfig session;
    /** Machine size of the event streams. */
    unsigned nNodes = 16;
    /** Client sessions (sharded predictor instances). */
    unsigned sessions = 4;
    /** Agent threads draining the rings; 0 = all hardware threads. */
    unsigned agents = 2;
    /** Per-session ingest ring capacity (rounded to a power of 2). */
    std::size_t ringCapacity = 1 << 12;
    /** Per-session response ring capacity; 0 = ringCapacity. */
    std::size_t responseCapacity = 0;
    /** CCPS snapshot file; empty = snapshotting disabled. */
    std::string snapshotPath;
    /** Seconds between periodic snapshots; 0 = only the final
     *  snapshot at stop() (and explicit snapshotNow() calls). */
    double snapshotIntervalSec = 30.0;
};

/** One served prediction, delivered on the session's response ring. */
struct Prediction
{
    /** Submit ordinal within the session (0-based). */
    std::uint64_t seq = 0;
    SharingBitmap predicted;
};

class PredictServer
{
  public:
    explicit PredictServer(ServeOptions options);
    ~PredictServer();

    PredictServer(const PredictServer &) = delete;
    PredictServer &operator=(const PredictServer &) = delete;

    unsigned sessions() const { return nSessions_; }
    unsigned agents() const { return nAgents_; }

    /**
     * Restore every session from the snapshot at snapshotPath.  Must
     * be called before start().  Missing is a fresh start, not an
     * error; Invalid / KeyMismatch leave the sessions untouched.
     */
    sweep::CheckpointLoad restore();

    /** Launch the agents.  @return false if already running. */
    bool start();

    /**
     * Drain every ring, write the final snapshot (when snapshotPath
     * is set), join the agents, and merge their stat shards into the
     * registry that was current() at start().  Producers must stop
     * submitting first (submit() refuses once stop begins).
     */
    void stop();

    /**
     * Enqueue one event for @p session (wait-free; the session's
     * producer thread only).  @return false on backpressure (ring
     * full — retry) or when the server is not accepting.
     */
    bool submit(unsigned session, const trace::CoherenceEvent &ev);

    /** Pop up to @p max served predictions for @p session into
     *  @p out (appended); the session's consumer thread only.
     *  @return the number popped. */
    std::size_t pollPredictions(unsigned session,
                                std::vector<Prediction> &out,
                                std::size_t max);

    /** The session's screening stats right now (locks the session
     *  briefly; callable from any thread). */
    SessionStats stats(unsigned session) const;

    /** Events accepted by submit() for @p session so far. */
    std::uint64_t submitted(unsigned session) const;

    /** Submissions refused for ring-full backpressure. */
    std::uint64_t backpressure() const;

    /** Responses dropped because a response ring was full. */
    std::uint64_t responsesDropped() const;

    /**
     * Serialize every session into one CCPS blob at snapshotPath
     * (durable atomic write).  Safe while running; each session is
     * locked only while its bytes are captured.  @return false when
     * snapshotPath is empty or the write fails.
     */
    bool snapshotNow();

    /** Identity hash of this server's snapshot layout (scheme, mode,
     *  nodes, session count, window, and the state-layout revision of
     *  the PAs and perceptron families) — the CCPS key. */
    std::uint64_t snapshotKey() const;

  private:
    /** Ingest ring payload: the event plus its enqueue timestamp, set
     *  on one event in latencySampleEvery (0 = not sampled), so agents
     *  measure ingest-to-predict latency on a sample. */
    struct Ingest
    {
        trace::CoherenceEvent ev;
        std::uint64_t enqueueNs = 0;
    };
    // The ring's stride: one 64-byte event plus its stamp, so every
    // slot spans two cache lines.  A change here changes every ring's
    // allocation; measure serve_stream before and after.
    static_assert(sizeof(Ingest) == 72, "ingest slot is 72 bytes");

    /** Everything one session owns, cache-line separated per shard:
     *  rings for its producer/consumer, the predictor, a mutex
     *  serializing drain vs stats vs snapshot. */
    struct Shard
    {
        Shard(std::uint64_t id, const SessionConfig &cfg,
              unsigned n_nodes, std::size_t ring_cap,
              std::size_t resp_cap)
            : in(ring_cap), out(resp_cap), session(id, cfg, n_nodes)
        {
        }

        SpscRing<Ingest> in;
        SpscRing<Prediction> out;
        Session session;
        mutable std::mutex mutex;
        /** Written by the session's producer only; read anywhere. */
        std::atomic<std::uint64_t> submitted{0};
    };

    /** One agent's stats, resolved once per agentLoop so no drain
     *  looks a registry path up. */
    struct AgentStats
    {
        LogHistogram &ingestToPredict;
        LogHistogram &queueWait;
        obs::StatsRegistry::Counter &served;
        obs::StatsRegistry::Counter &dropped;
        /** Summed drain time (first item to the end of the burst). */
        std::uint64_t busyNs = 0;
    };

    void agentLoop(unsigned agent);

    /** Drain up to one burst from @p shard; @return events served. */
    std::size_t drainShard(Shard &shard, AgentStats &stats);

    void maybeSnapshot();

    ServeOptions opts_;
    unsigned nSessions_;
    unsigned nAgents_;

    std::vector<std::unique_ptr<Shard>> shards_;

    ThreadPool pool_;
    std::thread driver_;
    bool running_ = false;

    /** submit() gate; cleared first in stop(). */
    std::atomic<bool> accepting_{false};
    /** Agents exit once set and their rings are drained. */
    std::atomic<bool> stopRequested_{false};

    /** Registry that was current() at start(); shards merge here. */
    obs::StatsRegistry *parent_ = nullptr;
    std::vector<obs::StatsRegistry> agentRegs_;

    std::atomic<std::uint64_t> backpressure_{0};
    std::atomic<std::uint64_t> responsesDropped_{0};

    std::atomic<std::uint64_t> lastSnapshotNs_{0};
    /** Serializes whole-file snapshot writes (agent 0 vs callers). */
    std::mutex snapshotMutex_;
};

/**
 * One event in this many carries a submit timestamp, chosen by the
 * session's submit ordinal (0, 64, 128, ...); only those events feed
 * serve.queue_wait_ns and serve.ingest_to_predict_ns.  Exported as
 * serve.latency_sample_every at every stop().
 */
constexpr unsigned latencySampleEvery = 64;

/** Monotonic nanoseconds (steady clock; latency timestamps). */
std::uint64_t nowNs();

} // namespace ccp::serve

#endif // CCP_SERVE_SERVER_HH
