#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccp::mem {

SetAssocCache::SetAssocCache(const CacheGeometry &geom)
    : geom_(geom), sets_(geom.sets()),
      setMask_((sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0),
      ways_(static_cast<std::size_t>(sets_) * geom.assoc)
{
    ccp_assert(geom.sizeBytes % blockBytes == 0,
               "cache size not a multiple of the block size");
    ccp_assert(geom.lines() % geom.assoc == 0,
               "line count not a multiple of associativity");
    ccp_assert(geom.sets() > 0, "cache has no sets");
}

CacheLine *
SetAssocCache::find(Addr block)
{
    std::uint32_t base = setOf(block) * geom_.assoc;
    for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
        CacheLine &line = ways_[base + w];
        if (line.valid() && line.block == block)
            return &line;
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::find(Addr block) const
{
    return const_cast<SetAssocCache *>(this)->find(block);
}

void
SetAssocCache::touch(Addr block)
{
    // Rotate [MRU, line] right by one so the line becomes MRU (way 0).
    if (CacheLine *line = find(block))
        std::rotate(&ways_[setOf(block) * geom_.assoc], line, line + 1);
}

std::optional<CacheLine>
SetAssocCache::insert(Addr block, CacheState state,
                      std::uint64_t version)
{
    ccp_assert(state != CacheState::Invalid, "inserting invalid line");

    // Replace an existing copy in place if present.
    if (CacheLine *line = find(block)) {
        line->state = state;
        line->version = version;
        touch(block);
        return std::nullopt;
    }

    // Prefer an invalid way; otherwise evict the LRU way (the last).
    CacheLine *set = &ways_[setOf(block) * geom_.assoc];
    CacheLine *way = std::find_if(set, set + geom_.assoc - 1,
                                  [](const CacheLine &l) {
                                      return !l.valid();
                                  });
    std::optional<CacheLine> victim;
    if (way->valid())
        victim = *way;

    // Shift [MRU, way) down and install at the MRU position.
    std::rotate(set, way, way + 1);
    *set = CacheLine{block, state, version};
    return victim;
}

std::optional<CacheLine>
SetAssocCache::invalidate(Addr block)
{
    if (CacheLine *line = find(block)) {
        CacheLine old = *line;
        line->state = CacheState::Invalid;
        return old;
    }
    return std::nullopt;
}

void
SetAssocCache::flush()
{
    for (auto &line : ways_)
        line.state = CacheState::Invalid;
}

std::uint32_t
SetAssocCache::validLines() const
{
    std::uint32_t n = 0;
    for (const auto &line : ways_)
        if (line.valid())
            ++n;
    return n;
}

NodeCache::NodeCache(const CacheGeometry &l1, const CacheGeometry &l2)
    : l1_(l1), l2_(l2)
{
}

CacheState
NodeCache::state(Addr block) const
{
    const CacheLine *line = l2_.find(block);
    return line ? line->state : CacheState::Invalid;
}

std::uint64_t
NodeCache::version(Addr block) const
{
    const CacheLine *line = l2_.find(block);
    return line ? line->version : 0;
}

bool
NodeCache::access(Addr block)
{
    CacheLine *l2_line = l2_.find(block);
    if (!l2_line)
        return false;
    // Copy before touch(): LRU reordering moves lines within the set
    // and invalidates the pointer.
    CacheState l2_state = l2_line->state;
    std::uint64_t l2_version = l2_line->version;
    l2_.touch(block);

    if (l1_.find(block)) {
        l1_.touch(block);
        ++stats_.l1Hits;
        return true;
    }

    // L1 miss that hits in the (inclusive) L2: refill the L1.  The L1
    // victim needs no directory action since the L2 still holds it.
    ++stats_.l2Hits;
    l1_.insert(block, l2_state, l2_version);
    return false;
}

std::optional<CacheLine>
NodeCache::fill(Addr block, CacheState state, std::uint64_t version,
                bool forwarded)
{
    std::optional<CacheLine> victim = l2_.insert(block, state, version);
    if (victim) {
        // Inclusion: an L2 eviction kicks the block out of the L1 too.
        l1_.invalidate(victim->block);
        ++stats_.l2Evictions;
        if (victim->state == CacheState::Modified)
            ++stats_.writebacks;
    }
    if (CacheLine *line = l2_.find(block)) {
        line->forwarded = forwarded;
        line->accessed = false;
    }
    l1_.insert(block, state, version);
    return victim;
}

bool
NodeCache::consumeForwardedTouch(Addr block)
{
    CacheLine *line = l2_.find(block);
    if (!line || !line->forwarded || line->accessed)
        return false;
    line->accessed = true;
    return true;
}

void
NodeCache::upgrade(Addr block, std::uint64_t new_version)
{
    CacheLine *l2_line = l2_.find(block);
    ccp_assert(l2_line && l2_line->state == CacheState::Shared,
               "upgrade of a non-shared block");
    l2_line->state = CacheState::Modified;
    l2_line->version = new_version;
    l2_line->forwarded = false; // consumed by overwriting
    if (CacheLine *l1_line = l1_.find(block)) {
        l1_line->state = CacheState::Modified;
        l1_line->version = new_version;
    }
    ++stats_.upgrades;
}

void
NodeCache::upgradeSilent(Addr block)
{
    CacheLine *l2_line = l2_.find(block);
    ccp_assert(l2_line && l2_line->state == CacheState::Exclusive,
               "silent upgrade of a non-exclusive block");
    l2_line->state = CacheState::Modified;
    if (CacheLine *l1_line = l1_.find(block))
        l1_line->state = CacheState::Modified;
}

void
NodeCache::downgrade(Addr block)
{
    CacheLine *l2_line = l2_.find(block);
    ccp_assert(l2_line && (l2_line->state == CacheState::Modified ||
                           l2_line->state == CacheState::Exclusive),
               "downgrade of a non-owned block");
    l2_line->state = CacheState::Shared;
    if (CacheLine *l1_line = l1_.find(block))
        l1_line->state = CacheState::Shared;
}

std::optional<CacheLine>
NodeCache::invalidate(Addr block)
{
    l1_.invalidate(block);
    return l2_.invalidate(block);
}

} // namespace ccp::mem
