#include "mem/protocol.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccp::mem {

namespace {

/** Modelled latency of an L1 hit, in cycles. */
constexpr Cycles l1HitCycles = 1;
/** Modelled latency of an L2 hit, in cycles. */
constexpr Cycles l2HitCycles = 10;

} // namespace

CoherenceController::CoherenceController(const MachineConfig &config,
                                         trace::SharingTrace *trace)
    : config_(config), trace_(trace),
      torus_(config.torusWidth,
             config.nNodes / std::max(1u, config.torusWidth)),
      readersPerKill_(config.nNodes + 1)
{
    ccp_assert(trace_ != nullptr, "controller needs a trace sink");
    ccp_assert(config_.nNodes >= 1 && config_.nNodes <= maxNodes,
               "unsupported node count ", config_.nNodes);
    ccp_assert(config_.torusWidth >= 1 &&
                   config_.nNodes % config_.torusWidth == 0,
               "torus width must divide the node count");
    caches_.reserve(config_.nNodes);
    for (unsigned i = 0; i < config_.nNodes; ++i)
        caches_.emplace_back(config_.l1, config_.l2);
}

const CacheStats &
CoherenceController::cacheStats(NodeId node) const
{
    ccp_assert(node < config_.nNodes, "node out of range");
    return caches_[node].stats();
}

std::uint64_t
CoherenceController::storeCount(NodeId node,
                                SharingBitmap StorePc::*bits) const
{
    ccp_assert(node < config_.nNodes, "node out of range");
    return std::count_if(storePcs_.begin(), storePcs_.end(),
                         [&](const StorePc &s) {
                             return (s.*bits).test(node);
                         });
}

void
CoherenceController::cacheHit(NodeId node, CacheLine &line)
{
    stats_.latency +=
        caches_[node].access(line) ? l1HitCycles : l2HitCycles;
}

void
CoherenceController::message(NodeId from, NodeId to, bool data)
{
    torus_.sendMessage(from, to,
                       data ? torus_.params().dataMessageBytes
                            : torus_.params().controlMessageBytes);
}

DirectoryEntry &
CoherenceController::touch(Addr block, NodeId node)
{
    DirectoryEntry &dir = blocks_.at(block);
    if (!dir.touched) {
        dir.touched = true;
        dir.home = config_.placement == PlacementPolicy::Interleaved
                       ? static_cast<NodeId>(block % config_.nNodes)
                       : node;
        ++blocksTouched_;
    }
    return dir;
}

CoherenceController::StorePc &
CoherenceController::storePc(Pc pc)
{
    // A workload has a handful of store sites (3-11 per trace), so a
    // scan beats any index.
    for (StorePc &s : storePcs_)
        if (s.pc == pc)
            return s;
    return storePcs_.emplace_back(StorePc{pc, {}, {}});
}

void
CoherenceController::noteForwardedTouch(NodeId node, CacheLine &line)
{
    if (!caches_[node].consumeForwardedTouch(line))
        return;
    // First local use of a prediction-forwarded line: a remote read
    // miss was avoided, and the access bit makes this node a true
    // reader of the current version.
    ++stats_.forwardHits;
    recordReader(blocks_.at(line.block), node);
}

void
CoherenceController::doForwarding(const trace::CoherenceEvent &ev,
                                  DirectoryEntry &dir)
{
    const Addr block = ev.block;
    SharingBitmap targets = forwardHook_(ev);
    targets &= SharingBitmap::all(config_.nNodes);
    targets.reset(ev.pid);
    if (targets.empty())
        return;

    for (NodeId p = 0; p < config_.nNodes; ++p) {
        if (!targets.test(p))
            continue;
        if (caches_[p].state(block) != CacheState::Invalid)
            continue; // already has a copy somehow; nothing to push
        message(dir.home, p, true);
        ++stats_.forwardsSent;
        dir.sharers.set(p);
        auto victim = caches_[p].fill(block, CacheState::Shared,
                                      dir.version, /*forwarded=*/true);
        if (victim) {
            ++stats_.pollutionEvictions;
            handleVictim(p, *victim);
        }
    }

    // The writer yields its write permission upon forwarding (paper
    // footnote 3), guaranteeing the forwarded values are final.
    if (dir.state == DirState::Modified && dir.owner == ev.pid) {
        caches_[ev.pid].downgrade(block);
        dir.state = DirState::Shared;
        ++stats_.downgrades;
    }
}

void
CoherenceController::recordReader(DirectoryEntry &dir, NodeId node)
{
    // The producer of the current version is not a reader of it.
    if (dir.hasLastWriter && dir.lastWriterPid == node)
        return;
    dir.readersSinceExclusive.set(node);
    if (dir.pendingEvent != trace::noEvent)
        trace_->mutableEvents()[dir.pendingEvent].readers.set(node);
}

void
CoherenceController::handleVictim(NodeId node, const CacheLine &victim)
{
    DirectoryEntry &dir = blocks_.at(victim.block);

    if (victim.state == CacheState::Modified) {
        // Under MESI the directory may still believe the line is
        // clean-Exclusive (the upgrade was silent).
        ccp_assert((dir.state == DirState::Modified ||
                    dir.state == DirState::Exclusive) &&
                       dir.owner == node,
                   "writeback from a non-owner");
        dir.state = DirState::Uncached;
        dir.sharers = SharingBitmap();
        message(node, dir.home, true);
    } else if (victim.state == CacheState::Exclusive) {
        ccp_assert(dir.state == DirState::Exclusive &&
                       dir.owner == node,
                   "exclusive replacement from a non-owner");
        dir.state = DirState::Uncached;
        dir.sharers = SharingBitmap();
        message(node, dir.home, false); // clean: no data
    } else {
        // Replacement hint for a Shared copy.  The true-reader record
        // (readersSinceExclusive) deliberately survives: the node did
        // read this version (paper section 3.4's access bits).
        ccp_assert(dir.state == DirState::Shared &&
                       dir.sharers.test(node),
                   "replacement hint from a non-sharer");
        if (victim.forwarded && !victim.accessed)
            ++stats_.wastedForwards; // evicted before it was used
        dir.sharers.reset(node);
        if (dir.sharers.empty())
            dir.state = DirState::Uncached;
        message(node, dir.home, false);
    }
}

void
CoherenceController::invalidateSharers(DirectoryEntry &dir, Addr block,
                                       NodeId except)
{
    SharingBitmap to_kill = dir.sharers.minus(SharingBitmap::single(except));
    for (NodeId s = 0; s < config_.nNodes; ++s) {
        if (!to_kill.test(s))
            continue;
        message(dir.home, s, false);
        auto old = caches_[s].invalidate(block);
        ccp_assert(old && old->state == CacheState::Shared,
                   "invalidated a non-shared copy");
        if (old->forwarded && !old->accessed)
            ++stats_.wastedForwards;
        message(s, dir.home, false);
        ++stats_.invalidationsSent;
    }
}

void
CoherenceController::read(NodeId node, Addr addr)
{
    ccp_assert(node < config_.nNodes, "node out of range");
    Addr block = blockOf(addr);
    ++stats_.reads;

    if (CacheLine *line = caches_[node].find(block)) {
        noteForwardedTouch(node, *line);
        cacheHit(node, *line);
        return;
    }

    ++stats_.readMisses;
    ++caches_[node].stats().misses;

    // Any cached copy means the block was touched before, so only a
    // miss can be a first touch.
    DirectoryEntry &dir = touch(block, node);
    message(node, dir.home, false);
    stats_.latency += torus_.latency(node, dir.home);

    CacheState fill_state = CacheState::Shared;
    switch (dir.state) {
      case DirState::Uncached:
        if (config_.protocol == ProtocolKind::MESI) {
            // Sole reader: grant Exclusive so a subsequent write
            // upgrades silently.
            dir.state = DirState::Exclusive;
            dir.owner = node;
            fill_state = CacheState::Exclusive;
        } else {
            dir.state = DirState::Shared;
        }
        dir.sharers.set(node);
        message(dir.home, node, true);
        break;

      case DirState::Shared:
        dir.sharers.set(node);
        message(dir.home, node, true);
        break;

      case DirState::Exclusive:
      case DirState::Modified: {
        NodeId owner = dir.owner;
        ccp_assert(owner != node,
                   "owner read-missed its own exclusive block");
        message(dir.home, owner, false);
        caches_[owner].downgrade(block);
        ++stats_.downgrades;
        message(owner, node, true);  // cache-to-cache transfer
        message(owner, dir.home, true);  // sharing writeback
        stats_.latency += torus_.latency(dir.home, owner);
        ++stats_.interventions;
        dir.state = DirState::Shared;
        dir.sharers.set(node);
        break;
      }
    }

    recordReader(dir, node);
    auto victim = caches_[node].fill(block, fill_state, dir.version);
    if (victim)
        handleVictim(node, *victim);
}

void
CoherenceController::write(NodeId node, Addr addr, Pc pc)
{
    ccp_assert(node < config_.nNodes, "node out of range");
    Addr block = blockOf(addr);
    ++stats_.writes;
    StorePc &store = storePc(pc);
    store.executed.set(node);

    CacheLine *line = caches_[node].find(block);
    CacheState st = line ? line->state : CacheState::Invalid;
    if (st == CacheState::Exclusive) {
        // MESI: silent E->M upgrade, invisible to the directory and
        // to the predictors (no coherence store miss).
        caches_[node].upgradeSilent(*line);
        ++stats_.silentUpgrades;
    }
    if (st == CacheState::Modified || st == CacheState::Exclusive) {
        cacheHit(node, *line);
        return;
    }

    // Coherence store miss: a write fault (upgrade) or a write miss.
    store.missed.set(node);

    DirectoryEntry &dir = touch(block, node);
    message(node, dir.home, false);
    stats_.latency += torus_.latency(node, dir.home);

    // Capture the feedback for the dying version before mutating.
    // The feedback is the set of nodes actually *invalidated*: the
    // new writer itself is excluded — it keeps (upgrades) its copy,
    // so it never reports an access bit.  This matters: a writer that
    // read-modify-writes would otherwise dominate its own history and
    // poison writer-indexed predictors with a self-bit that can never
    // be a correct prediction.
    trace::CoherenceEvent ev;
    ev.pid = node;
    ev.pc = pc;
    ev.dir = dir.home;
    ev.block = block;
    ev.invalidated =
        dir.readersSinceExclusive.minus(SharingBitmap::single(node));
    ev.prevWriterPid = dir.lastWriterPid;
    ev.prevWriterPc = dir.lastWriterPc;
    ev.hasPrevWriter = dir.hasLastWriter;
    ev.prevEvent = dir.pendingEvent;
    readersPerKill_.add(ev.invalidated.popcount());

    if (st == CacheState::Shared) {
        ++stats_.writeFaults;
        ccp_assert(dir.state == DirState::Shared &&
                       dir.sharers.test(node),
                   "upgrading node absent from sharer set");
        invalidateSharers(dir, block, node);
        caches_[node].upgrade(block, dir.version + 1);
    } else {
        ++stats_.writeMisses;
        ++caches_[node].stats().misses;
        if (dir.state == DirState::Modified ||
            dir.state == DirState::Exclusive) {
            NodeId owner = dir.owner;
            ccp_assert(owner != node,
                       "owner write-missed its own exclusive block");
            message(dir.home, owner, false);
            auto old = caches_[owner].invalidate(block);
            ccp_assert(old && (old->state == CacheState::Modified ||
                               (dir.state == DirState::Exclusive &&
                                old->state == CacheState::Exclusive)),
                       "directory owner lost its copy");
            ++stats_.invalidationsSent;
            // Dirty copies transfer cache-to-cache; clean Exclusive
            // copies are satisfied from memory.
            if (old->state == CacheState::Modified)
                message(owner, node, true);
            else
                message(dir.home, node, true);
            stats_.latency += torus_.latency(dir.home, owner);
            ++stats_.interventions;
        } else {
            invalidateSharers(dir, block, node);
            message(dir.home, node, true);
        }
        auto victim = caches_[node].fill(block, CacheState::Modified,
                                         dir.version + 1);
        if (victim)
            handleVictim(node, *victim);
    }

    dir.state = DirState::Modified;
    dir.owner = node;
    dir.sharers = SharingBitmap::single(node);
    dir.version += 1;
    dir.readersSinceExclusive = SharingBitmap();
    dir.lastWriterPid = node;
    dir.lastWriterPc = pc;
    dir.hasLastWriter = true;
    dir.pendingEvent = trace_->append(ev);

    if (forwardHook_)
        doForwarding(ev, dir);
}

void
CoherenceController::exportStats(obs::StatsRegistry &registry,
                                 const std::string &prefix) const
{
    CacheStats caches;
    for (const NodeCache &c : caches_) {
        const CacheStats &s = c.stats();
        caches.l1Hits += s.l1Hits;
        caches.l2Hits += s.l2Hits;
        caches.misses += s.misses;
        caches.upgrades += s.upgrades;
        caches.l2Evictions += s.l2Evictions;
        caches.writebacks += s.writebacks;
    }
    const std::pair<const char *, std::uint64_t> counters[] = {
        {"reads", stats_.reads}, {"writes", stats_.writes},
        {"read_misses", stats_.readMisses},
        {"write_misses", stats_.writeMisses},
        {"write_faults", stats_.writeFaults},
        {"silent_upgrades", stats_.silentUpgrades},
        {"invalidations", stats_.invalidationsSent},
        {"downgrades", stats_.downgrades},
        {"interventions", stats_.interventions},
        {"latency_cycles", stats_.latency},
        {"forwards_sent", stats_.forwardsSent},
        {"forward_hits", stats_.forwardHits},
        {"wasted_forwards", stats_.wastedForwards},
        {"pollution_evictions", stats_.pollutionEvictions},
        {"blocks_touched", blocksTouched_},
        {"network_messages", torus_.totalMessages()},
        {"network_byte_hops", torus_.totalByteHops()},
        {"l1_hits", caches.l1Hits}, {"l2_hits", caches.l2Hits},
        {"cache_misses", caches.misses}, {"upgrades", caches.upgrades},
        {"l2_evictions", caches.l2Evictions},
        {"writebacks", caches.writebacks},
    };
    for (const auto &[leaf, value] : counters)
        registry.counter(prefix + "." + leaf) += value;
    registry
        .histogram(prefix + ".readers_per_kill", readersPerKill_.size())
        .merge(readersPerKill_);
}

void
CoherenceController::finalizeTrace()
{
    trace::TraceMeta &meta = trace_->meta();
    meta.blocksTouched = blocksTouched_;
    meta.totalOps = stats_.reads + stats_.writes;
    meta.reads = stats_.reads;
    meta.writes = stats_.writes;
    meta.readMisses = stats_.readMisses;
    meta.writeMisses = stats_.writeMisses;
    meta.writeFaults = stats_.writeFaults;
    meta.silentUpgrades = stats_.silentUpgrades;
    meta.invalidationsSent = stats_.invalidationsSent;
    meta.downgrades = stats_.downgrades;
    meta.interventions = stats_.interventions;
    meta.maxStaticStoresPerNode = 0;
    meta.maxPredictedStoresPerNode = 0;
    for (NodeId i = 0; i < config_.nNodes; ++i) {
        meta.maxStaticStoresPerNode = std::max(
            meta.maxStaticStoresPerNode, staticStores(i));
        meta.maxPredictedStoresPerNode = std::max(
            meta.maxPredictedStoresPerNode, predictedStores(i));
    }
}

std::uint64_t
CoherenceController::currentVersion(Addr addr) const
{
    const DirectoryEntry *dir = blocks_.find(blockOf(addr));
    return dir ? dir->version : 0;
}

void
CoherenceController::checkInvariants() const
{
    blocks_.forEachTouched([&](Addr block, const DirectoryEntry &dir) {
        unsigned modified_copies = 0;
        unsigned owned_copies = 0;
        for (NodeId n = 0; n < config_.nNodes; ++n) {
            CacheState cs = caches_[n].state(block);
            if (cs == CacheState::Invalid) {
                ccp_assert(!(dir.state == DirState::Shared &&
                             dir.sharers.test(n)),
                           "sharer bit set for an invalid copy");
                continue;
            }
            if (cs == CacheState::Modified) {
                ++modified_copies;
                ++owned_copies;
                // Under MESI a silently-upgraded copy may still
                // look clean-Exclusive to the directory.
                ccp_assert((dir.state == DirState::Modified ||
                            dir.state == DirState::Exclusive) &&
                               dir.owner == n,
                           "modified copy without ownership");
            }
            if (cs == CacheState::Exclusive) {
                ++owned_copies;
                ccp_assert(dir.state == DirState::Exclusive &&
                               dir.owner == n,
                           "exclusive copy without ownership");
            }
            ccp_assert(dir.sharers.test(n),
                       "cached copy missing from sharer set");
            ccp_assert(caches_[n].version(block) == dir.version,
                       "stale version cached at node ", n);
        }
        ccp_assert(owned_copies <= 1,
                   "multiple owned copies of block ", block);
        if (dir.state == DirState::Modified) {
            ccp_assert(modified_copies == 1,
                       "directory Modified without a dirty copy");
            ccp_assert(dir.sharers ==
                           SharingBitmap::single(dir.owner),
                       "Modified entry sharers != {owner}");
        }
        if (dir.state == DirState::Exclusive) {
            ccp_assert(owned_copies == 1,
                       "directory Exclusive without an owner copy");
            ccp_assert(dir.sharers ==
                           SharingBitmap::single(dir.owner),
                       "Exclusive entry sharers != {owner}");
        }
        if (dir.state == DirState::Uncached) {
            ccp_assert(dir.sharers.empty(),
                       "Uncached entry with sharers");
            ccp_assert(owned_copies == 0,
                       "Uncached entry with an owned copy");
        }
    });
}

} // namespace ccp::mem
