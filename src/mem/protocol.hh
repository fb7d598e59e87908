/**
 * @file
 * CoherenceController: the MSI directory protocol engine.
 *
 * This is the machine's coherence substrate.  It owns the per-node
 * two-level caches and the distributed directory, executes read and
 * write accesses atomically in global program order (trace-driven
 * simulation needs no timing races), accounts network traffic on an
 * optional torus model, and — crucially for this study — appends one
 * CoherenceEvent to the attached SharingTrace for every coherence
 * store miss, wiring up the feedback (invalidated reader bitmap, last
 * writer) and outcome (eventual readers) exactly as defined in paper
 * sections 3.4 and 5.1.
 *
 * Per-access state lives in flat records, not hash containers: each
 * block's directory entry, home and touched bit in a BlockStore
 * (mem/directory.hh), and one StorePc record per store pc.
 */

#ifndef CCP_MEM_PROTOCOL_HH
#define CCP_MEM_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "net/torus.hh"
#include "obs/registry.hh"
#include "trace/trace.hh"

namespace ccp::mem {

/** Global protocol-level counters. */
struct ProtocolStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;   ///< stores with no cached copy
    std::uint64_t writeFaults = 0;   ///< upgrades of Shared copies
    std::uint64_t silentUpgrades = 0; ///< MESI E->M (no transaction)
    std::uint64_t invalidationsSent = 0;
    std::uint64_t downgrades = 0;
    /** Remote misses serviced out of another node's E/M copy. */
    std::uint64_t interventions = 0;
    Cycles latency = 0;              ///< modelled access latency sum

    /** Online-forwarding counters (active when a hook is attached). */
    std::uint64_t forwardsSent = 0;
    /** Forwarded lines touched by their node: read misses avoided. */
    std::uint64_t forwardHits = 0;
    /** Forwarded lines invalidated or evicted untouched. */
    std::uint64_t wastedForwards = 0;
    /** Victims displaced by forwarded fills (cache pollution). */
    std::uint64_t pollutionEvictions = 0;
};

/** The invalidation protocol family the machine runs. */
enum class ProtocolKind : std::uint8_t
{
    /** Three-state MSI: every store to a non-Modified block is a
     *  coherence store miss (the paper's DirNB-style setting). */
    MSI,
    /** MESI: a sole reader is granted Exclusive and upgrades to
     *  Modified silently — read-then-write by one node generates no
     *  coherence store miss and therefore no prediction event. */
    MESI,
};

/** Configuration of the coherence substrate. */
struct MachineConfig
{
    unsigned nNodes = 16;
    CacheGeometry l1 = paperL1;
    CacheGeometry l2 = paperL2;
    PlacementPolicy placement = PlacementPolicy::FirstTouch;
    ProtocolKind protocol = ProtocolKind::MSI;
    /** Torus width; height is nNodes / width. */
    unsigned torusWidth = 4;
};

/**
 * The protocol engine.  All processor accesses funnel through read()
 * and write(); the attached trace receives the coherence events.
 */
class CoherenceController
{
  public:
    /**
     * @param config  Machine geometry.
     * @param trace   Trace to append coherence events to (required).
     */
    CoherenceController(const MachineConfig &config,
                        trace::SharingTrace *trace);

    /**
     * Online forwarding hook: called at every coherence store miss
     * with the freshly built event; the returned bitmap names the
     * nodes to forward the new value to.  Keeping this a callback
     * lets the predictor live in a higher layer (ccp_predict) while
     * the protocol stays self-contained.
     */
    using ForwardHook =
        std::function<SharingBitmap(const trace::CoherenceEvent &)>;

    /**
     * Attach (or clear, with nullptr) the online forwarding hook.
     * When attached, predicted readers receive Shared copies pushed
     * into their caches, the writer yields its write permission
     * (paper footnote 3), and access bits keep the feedback bitmaps
     * limited to true readers (paper section 3.4).
     */
    void setForwardHook(ForwardHook hook) { forwardHook_ = std::move(hook); }

    /** Execute a load by @p node to byte address @p addr. */
    void read(NodeId node, Addr addr);

    /**
     * Execute a store by @p node to byte address @p addr, issued by
     * static store instruction @p pc.
     */
    void write(NodeId node, Addr addr, Pc pc);

    const ProtocolStats &stats() const { return stats_; }
    const CacheStats &cacheStats(NodeId node) const;

    /**
     * Export every protocol counter, the nodes' CacheStats summed
     * over nodes, and the readers-per-kill histogram into
     * @p registry under "<prefix>." paths.  Counters add across
     * calls (registry merge semantics), so exporting several
     * machines accumulates suite-wide totals.
     */
    void exportStats(obs::StatsRegistry &registry,
                     const std::string &prefix = "protocol") const;
    const net::Torus2D &torus() const { return torus_; }

    /** Distinct blocks touched by any access so far. */
    std::uint64_t blocksTouched() const { return blocksTouched_; }

    /** Distinct shared-data static stores executed at @p node. */
    std::uint64_t
    staticStores(NodeId node) const
    {
        return storeCount(node, &StorePc::executed);
    }
    /** Distinct static stores that caused coherence events at
     *  @p node. */
    std::uint64_t
    predictedStores(NodeId node) const
    {
        return storeCount(node, &StorePc::missed);
    }

    /**
     * Copy the run-level statistics into the trace's metadata.  Call
     * once after the workload finishes.
     */
    void finalizeTrace();

    /**
     * Verify the cross-component coherence invariants; panics on
     * violation.  Used by the property tests.
     *
     *  - at most one Modified copy per block, matching the directory
     *    owner;
     *  - every cached copy's node is present in the directory sharer
     *    set and agrees on version;
     *  - Shared directory entries have no Modified cache copies.
     */
    void checkInvariants() const;

    /**
     * The version a read by any node would observe right now — the
     * directory's version counter for the block.  Used by tests to
     * prove readers always see the latest value.  A pure query: it
     * places no block.
     */
    std::uint64_t currentVersion(Addr addr) const;

  private:
    /** Per static store: the nodes that executed it, and those where
     *  it caused a coherence store miss. */
    struct StorePc
    {
        Pc pc;
        SharingBitmap executed;
        SharingBitmap missed;
    };

    /** The entry of @p block on an access by @p node that may be its
     *  first: a first touch fixes the block's home. */
    DirectoryEntry &touch(Addr block, NodeId node);
    /** The record of @p pc, created on first use. */
    StorePc &storePc(Pc pc);
    /** Distinct store pcs whose @p bits include @p node. */
    std::uint64_t storeCount(NodeId node,
                             SharingBitmap StorePc::*bits) const;
    void recordReader(DirectoryEntry &dir, NodeId node);
    void handleVictim(NodeId node, const CacheLine &victim);
    void invalidateSharers(DirectoryEntry &dir, Addr block,
                           NodeId except);
    /** Account a hit on @p line, @p node's L2 line of the block
     *  (LRU and latency). */
    void cacheHit(NodeId node, CacheLine &line);
    void message(NodeId from, NodeId to, bool data);
    void noteForwardedTouch(NodeId node, CacheLine &line);
    void doForwarding(const trace::CoherenceEvent &ev, DirectoryEntry &dir);

    MachineConfig config_;
    trace::SharingTrace *trace_;
    net::Torus2D torus_;
    std::vector<NodeCache> caches_;
    BlockStore blocks_;
    std::uint64_t blocksTouched_ = 0;
    std::vector<StorePc> storePcs_;
    ProtocolStats stats_;
    /** Bucket i: coherence store misses that killed i readers. */
    Histogram readersPerKill_;
    ForwardHook forwardHook_;
};

} // namespace ccp::mem

#endif // CCP_MEM_PROTOCOL_HH
