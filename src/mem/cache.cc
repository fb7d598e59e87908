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
    if (CacheLine *line = find(block))
        touch(*line);
}

CacheLine &
SetAssocCache::touch(CacheLine &line)
{
    // Rotate [MRU, line] right by one so the line becomes MRU (way 0).
    CacheLine *set = setBase(line.block);
    ccp_assert(&line >= set && &line < set + geom_.assoc,
               "touch of a line outside this cache");
    std::rotate(set, &line, &line + 1);
    return *set;
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
        touch(*line);
        return std::nullopt;
    }
    return insertAbsent(
        CacheLine{.block = block, .version = version, .state = state});
}

std::optional<CacheLine>
SetAssocCache::insertAbsent(const CacheLine &line)
{
    ccp_assert(line.valid(), "inserting invalid line");

    // Prefer the first invalid way; otherwise evict the LRU way (the
    // last).  One pass picks it and checks the block is absent.
    CacheLine *set = setBase(line.block);
    CacheLine *way = nullptr;
    for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
        ccp_assert(!(set[w].valid() && set[w].block == line.block),
                   "inserting block ", line.block, " already cached");
        if (!way && !set[w].valid())
            way = &set[w];
    }
    if (!way)
        way = &set[geom_.assoc - 1];
    std::optional<CacheLine> victim;
    if (way->valid())
        victim = *way;

    // Shift [MRU, way) down and install at the MRU position.
    std::rotate(set, way, way + 1);
    *set = line;
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
NodeCache::access(CacheLine &line)
{
    const CacheLine &l2_line = l2_.touch(line);

    if (CacheLine *l1_line = l1_.find(l2_line.block)) {
        l1_.touch(*l1_line);
        ++stats_.l1Hits;
        return true;
    }

    // L1 miss that hits in the (inclusive) L2: refill the L1.  The L1
    // victim needs no directory action since the L2 still holds it.
    ++stats_.l2Hits;
    l1_.insertAbsent(
        CacheLine{.block = l2_line.block,
                  .version = l2_line.version,
                  .state = l2_line.state});
    return false;
}

std::optional<CacheLine>
NodeCache::fill(Addr block, CacheState state, std::uint64_t version,
                bool forwarded)
{
    std::optional<CacheLine> victim =
        l2_.insertAbsent(CacheLine{.block = block,
                                   .version = version,
                                   .state = state,
                                   .forwarded = forwarded});
    if (victim) {
        // Inclusion: an L2 eviction kicks the block out of the L1 too.
        l1_.invalidate(victim->block);
        ++stats_.l2Evictions;
        if (victim->state == CacheState::Modified)
            ++stats_.writebacks;
    }
    l1_.insertAbsent(
        CacheLine{.block = block, .version = version, .state = state});
    return victim;
}

bool
NodeCache::consumeForwardedTouch(CacheLine &line)
{
    if (!line.forwarded || line.accessed)
        return false;
    line.accessed = true;
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
NodeCache::upgradeSilent(CacheLine &line)
{
    ccp_assert(line.state == CacheState::Exclusive,
               "silent upgrade of a non-exclusive block");
    line.state = CacheState::Modified;
    if (CacheLine *l1_line = l1_.find(line.block))
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
