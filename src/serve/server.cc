#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "sweep/name.hh"
#include "trace/format.hh"

namespace ccp::serve {

namespace {

/** Events one agent serves per shard-lock acquisition: long enough
 *  to amortize the lock, short enough that stats() callers never
 *  wait on a whole ring. */
constexpr std::size_t drainBurst = 256;

void
putWord(std::vector<char> &out, std::uint64_t v)
{
    const std::size_t off = out.size();
    out.resize(off + 8);
    std::memcpy(out.data() + off, &v, 8);
}

bool
getWord(const char *&p, const char *end, std::uint64_t &v)
{
    if (end - p < 8)
        return false;
    std::memcpy(&v, p, 8);
    p += 8;
    return true;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

PredictServer::PredictServer(ServeOptions options)
    : opts_(std::move(options)),
      nSessions_(opts_.sessions),
      nAgents_(opts_.agents > 0 ? opts_.agents
                                : ThreadPool::defaultThreads()),
      pool_(nAgents_), agentRegs_(nAgents_)
{
    ccp_assert(nSessions_ >= 1, "server needs at least one session");
    ccp_assert(opts_.nNodes >= 1 && opts_.nNodes <= maxNodes,
               "bad node count ", opts_.nNodes);
    const std::size_t resp_cap = opts_.responseCapacity > 0
                                     ? opts_.responseCapacity
                                     : opts_.ringCapacity;
    shards_.reserve(nSessions_);
    for (unsigned s = 0; s < nSessions_; ++s)
        shards_.push_back(std::make_unique<Shard>(
            s, opts_.session, opts_.nNodes, opts_.ringCapacity,
            resp_cap));
}

PredictServer::~PredictServer()
{
    if (running_)
        stop();
}

std::uint64_t
PredictServer::snapshotKey() const
{
    trace::Fnv1a h;
    auto word = [&h](std::uint64_t v) { h.update(&v, sizeof(v)); };
    auto str = [&h](const std::string &s) {
        h.update(s.data(), s.size());
        h.update("\0", 1);
    };
    str("ccp.serve.v1");
    str(sweep::formatScheme(opts_.session.scheme));
    str(predict::updateModeName(opts_.session.mode));
    word(opts_.nNodes);
    word(nSessions_);
    word(std::max<std::size_t>(opts_.session.windowEvents, 1));
    // PAs and perceptron state is bit-planes and weight-index-major
    // rows.  A blob in the earlier per-node packing has the same word
    // count at 16 nodes, so only the key can tell the two apart.
    const predict::FunctionKind kind = opts_.session.scheme.kind;
    if (kind == predict::FunctionKind::PAs ||
        kind == predict::FunctionKind::Perceptron)
        str("state.planes.v2");
    return h.digest();
}

sweep::CheckpointLoad
PredictServer::restore()
{
    ccp_assert(!running_, "restore() must precede start()");
    std::vector<char> payload;
    auto status = sweep::loadStateBlob(opts_.snapshotPath,
                                       snapshotKey(), payload);
    if (status != sweep::CheckpointLoad::Ok)
        return status;

    const char *p = payload.data();
    const char *end = p + payload.size();
    std::uint64_t count = 0;
    if (!getWord(p, end, count) || count != nSessions_)
        return sweep::CheckpointLoad::Invalid;

    // Decode into copies first so a truncated or inconsistent blob
    // leaves every live session untouched.
    std::vector<Session> fresh;
    fresh.reserve(nSessions_);
    for (unsigned s = 0; s < nSessions_; ++s) {
        Session restored = shards_[s]->session;
        if (!restored.decode(p, end))
            return sweep::CheckpointLoad::Invalid;
        fresh.push_back(std::move(restored));
    }
    if (p != end)
        return sweep::CheckpointLoad::Invalid;
    for (unsigned s = 0; s < nSessions_; ++s)
        shards_[s]->session = std::move(fresh[s]);
    return sweep::CheckpointLoad::Ok;
}

bool
PredictServer::start()
{
    if (running_)
        return false;
    parent_ = &obs::StatsRegistry::current();
    for (auto &reg : agentRegs_)
        reg.clear();
    stopRequested_.store(false, std::memory_order_release);
    lastSnapshotNs_.store(nowNs(), std::memory_order_relaxed);
    accepting_.store(true, std::memory_order_release);
    driver_ = std::thread([this] {
        pool_.forEach(
            nAgents_,
            [this](std::size_t job, unsigned) {
                agentLoop(static_cast<unsigned>(job));
            },
            1);
    });
    running_ = true;
    return true;
}

void
PredictServer::stop()
{
    if (!running_)
        return;
    accepting_.store(false, std::memory_order_release);
    stopRequested_.store(true, std::memory_order_release);
    driver_.join();
    running_ = false;

    // Final snapshot after the agents quiesced, so a clean shutdown
    // always leaves a restorable image of the complete stream.
    if (!opts_.snapshotPath.empty()) {
        if (!snapshotNow())
            ccp_warn("final serve snapshot failed at ",
                     opts_.snapshotPath);
    }

    for (auto &reg : agentRegs_) {
        parent_->merge(reg);
        reg.clear();
    }
    // One sample per run, so a merged report still reads the period.
    parent_->summary("serve.latency_sample_every")
        .add(latencySampleEvery);
}

bool
PredictServer::submit(unsigned session, const trace::CoherenceEvent &ev)
{
    if (!accepting_.load(std::memory_order_acquire))
        return false;
    Shard &shard = *shards_[session];
    // Single writer (this session's producer): no locked add.  The
    // count moves only on success, so a refused submit and its retry
    // make the same sampling choice.
    const std::uint64_t n =
        shard.submitted.load(std::memory_order_relaxed);
    Ingest item;
    item.ev = ev;
    if (n % latencySampleEvery == 0)
        item.enqueueNs = nowNs();
    if (!shard.in.push(item)) {
        backpressure_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    shard.submitted.store(n + 1, std::memory_order_relaxed);
    return true;
}

std::size_t
PredictServer::pollPredictions(unsigned session,
                               std::vector<Prediction> &out,
                               std::size_t max)
{
    return shards_[session]->out.consume(
        max, [&out](const Prediction &p) { out.push_back(p); });
}

SessionStats
PredictServer::stats(unsigned session) const
{
    const Shard &shard = *shards_[session];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.session.stats();
}

std::uint64_t
PredictServer::submitted(unsigned session) const
{
    return shards_[session]->submitted.load(
        std::memory_order_relaxed);
}

std::uint64_t
PredictServer::backpressure() const
{
    return backpressure_.load(std::memory_order_relaxed);
}

std::uint64_t
PredictServer::responsesDropped() const
{
    return responsesDropped_.load(std::memory_order_relaxed);
}

std::size_t
PredictServer::drainShard(Shard &shard, AgentStats &stats)
{
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::optional<obs::TraceSpan> span;
    std::uint64_t start = 0;
    std::size_t dropped = 0;
    const std::size_t served =
        shard.in.consume(drainBurst, [&](const Ingest &item) {
            if (!span) {
                // The drain starts at its first item: one clock read
                // stamps every sampled event's queue wait.
                span.emplace("serve", "serve.drain");
                start = nowNs();
            }
            Prediction p;
            p.seq = shard.session.eventsProcessed();
            p.predicted = shard.session.onEvent(item.ev);
            if (item.enqueueNs != 0) {
                const std::uint64_t now = nowNs();
                const std::uint64_t enq = item.enqueueNs;
                stats.queueWait.add(start > enq ? start - enq : 0);
                stats.ingestToPredict.add(now > enq ? now - enq : 0);
            }
            if (!shard.out.push(p))
                ++dropped;
        });
    if (served == 0)
        return 0;
    stats.busyNs += nowNs() - start;
    stats.served += served;
    if (dropped > 0) {
        responsesDropped_.fetch_add(dropped, std::memory_order_relaxed);
        stats.dropped += dropped;
    }
    return served;
}

void
PredictServer::agentLoop(unsigned agent)
{
    obs::StatsRegistry &reg = agentRegs_[agent];
    obs::ScopedRegistry scoped(reg);
    AgentStats stats{reg.latency("serve.ingest_to_predict_ns"),
                     reg.latency("serve.queue_wait_ns"),
                     reg.counter("serve.events_served"),
                     reg.counter("serve.responses_dropped")};
    const std::uint64_t begin = nowNs();
    for (;;) {
        std::size_t served = 0;
        for (unsigned s = agent; s < nSessions_; s += nAgents_)
            served += drainShard(*shards_[s], stats);
        if (agent == 0)
            maybeSnapshot();
        if (served > 0)
            continue;
        if (stopRequested_.load(std::memory_order_acquire)) {
            // Only this agent pops its sessions' rings, so empty
            // rings + no new submissions mean the drain is complete.
            bool drained = true;
            for (unsigned s = agent; s < nSessions_; s += nAgents_)
                drained = drained && shards_[s]->in.empty();
            if (drained)
                break;
        }
        std::this_thread::yield();
    }
    const std::uint64_t run = nowNs() - begin;
    reg.summary("serve.agent_busy_frac")
        .add(run > 0 ? static_cast<double>(stats.busyNs) /
                           static_cast<double>(run)
                     : 0.0);
}

void
PredictServer::maybeSnapshot()
{
    if (opts_.snapshotPath.empty() || opts_.snapshotIntervalSec <= 0)
        return;
    const std::uint64_t now = nowNs();
    const std::uint64_t last =
        lastSnapshotNs_.load(std::memory_order_relaxed);
    const double elapsed_sec =
        static_cast<double>(now - last) * 1e-9;
    if (elapsed_sec < opts_.snapshotIntervalSec)
        return;
    lastSnapshotNs_.store(now, std::memory_order_relaxed);
    if (!snapshotNow())
        ccp_warn("periodic serve snapshot failed at ",
                 opts_.snapshotPath);
}

bool
PredictServer::snapshotNow()
{
    if (opts_.snapshotPath.empty())
        return false;
    CCP_TRACE_SPAN("serve", "serve.snapshot");
    std::lock_guard<std::mutex> snap_lock(snapshotMutex_);

    std::vector<char> payload;
    putWord(payload, nSessions_);
    for (unsigned s = 0; s < nSessions_; ++s) {
        Shard &shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.session.encode(payload);
    }

    // A snapshot holding perceptron state carries the feature bit,
    // so pre-perceptron binaries reject it with structure instead of
    // decoding foreign weight words.
    const std::uint32_t features =
        opts_.session.scheme.kind == predict::FunctionKind::Perceptron
            ? sweep::stateBlobFeaturePerceptron
            : 0;
    const bool ok = sweep::saveStateBlob(
        opts_.snapshotPath, snapshotKey(), payload, features);
    auto &reg = obs::StatsRegistry::current();
    if (ok)
        ++reg.counter("serve.snapshots");
    else
        ++reg.counter("serve.snapshot_failures");
    return ok;
}

} // namespace ccp::serve
