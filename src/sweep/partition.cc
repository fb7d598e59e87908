#include "sweep/partition.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>

#include "common/logging.hh"
#include "predict/table.hh"

namespace ccp::sweep {

using predict::IndexPlan;
using predict::SchemeSpec;

namespace {

/** Whether @p coarse's raw index is a function of @p fine's. */
bool
refines(const IndexPlan &fine, const IndexPlan &coarse)
{
    const auto within = [](std::uint64_t a, std::uint64_t b) {
        return (a & ~b) == 0;
    };
    if (fine.hashed() != coarse.hashed())
        return false;
    if (fine.hashed())
        return fine.hashPidMult == coarse.hashPidMult &&
               fine.hashPcMult == coarse.hashPcMult &&
               fine.hashDirMult == coarse.hashDirMult &&
               fine.hashAddrMult == coarse.hashAddrMult &&
               within(coarse.hashFoldMask, fine.hashFoldMask);
    return within(coarse.pidMask, fine.pidMask) &&
           within(coarse.pcMask, fine.pcMask) &&
           within(coarse.dirMask, fine.dirMask) &&
           within(coarse.addrMask, fine.addrMask);
}

/** Call add(pid, pc word, dir, block) for each access tuple of
 *  @p trace under @p mode, repeats included: each event's writer tuple
 *  and, when the mode trains the previous writer's entry, each
 *  training event's learner tuple. */
template <class Add>
void
forEachTuple(const trace::SharingTrace &trace, predict::UpdateMode mode,
             Add &&add)
{
    const bool learners = predict::learnsFromPrevWriter(mode);
    for (const trace::CoherenceEvent &ev : trace.events()) {
        add(ev.pid, ev.pc >> 2, ev.dir, ev.block);
        if (learners && predict::learnsFirst(ev, mode)) {
            const predict::Learner who = predict::learner(ev, mode);
            add(who.pid, who.pc >> 2, ev.dir, ev.block);
        }
    }
}

/**
 * The number of distinct values among those visit(add) passes to add,
 * each below 2^@p bits, counted in the bitmap @p seen (all zero
 * before and after).  @p list is left holding them in first-seen
 * order when there are at most @p limit, and empty otherwise.
 */
template <class Visit>
std::size_t
countDistinct(Visit &&visit, unsigned bits, std::size_t limit,
              std::vector<std::uint64_t> &seen,
              std::vector<std::uint64_t> &list)
{
    const std::size_t words = ((std::size_t(1) << bits) + 63) / 64;
    if (seen.size() < words)
        seen.resize(words, 0);
    std::uint64_t *const bitmap = seen.data();
    list.resize(limit + 1);
    std::uint64_t *const out = list.data();
    std::size_t n = 0;
    visit([&](std::uint64_t v) {
        std::uint64_t &w = bitmap[v >> 6];
        const std::uint64_t bit = std::uint64_t(1) << (v & 63);
        out[std::min(n, limit)] = v;
        n += (w & bit) == 0;
        w |= bit;
    });
    if (n <= limit) {
        list.resize(n);
        for (const std::uint64_t v : list)
            bitmap[v >> 6] = 0;
    } else {
        list.clear();
        std::fill_n(bitmap, words, 0);
    }
    return n;
}

/**
 * The narrowest width w <= @p max_width at which the low w bits of a
 * tuple field (@p field of its pc word and block) split @p trace's
 * tuples as its low @p max_width bits do: cutting a field wider than
 * w to w changes no partition.  Buffers as for countDistinct, which
 * keeps up to @p limit distinct values to search over.
 */
template <class Field>
unsigned
fieldCut(const trace::SharingTrace &trace, predict::UpdateMode mode,
         Field field, unsigned max_width, std::size_t limit,
         std::vector<std::uint64_t> &seen,
         std::vector<std::uint64_t> &values)
{
    const auto over_trace = [&](std::uint64_t mask) {
        return [&, mask](auto &&add) {
            forEachTuple(trace, mode,
                         [&](std::uint64_t, std::uint64_t pc_word,
                             std::uint64_t, std::uint64_t block) {
                             add(field(pc_word, block) & mask);
                         });
        };
    };
    const std::size_t target = countDistinct(
        over_trace((std::uint64_t(1) << max_width) - 1), max_width, limit,
        seen, values);
    std::vector<std::uint64_t> none;
    const auto distinct = [&](unsigned w) {
        const std::uint64_t mask = (std::uint64_t(1) << w) - 1;
        if (values.size() < target)
            return countDistinct(over_trace(mask), w, 0, seen, none);
        return countDistinct(
            [&](auto &&add) {
                for (const std::uint64_t v : values)
                    add(v & mask);
            },
            w, 0, seen, none);
    };
    // The distinct values at width w never fall as w grows, so the cut
    // is where they first reach their count at max_width, which takes
    // at least log2(count) bits.
    unsigned lo = std::min<unsigned>(
        max_width, static_cast<unsigned>(std::bit_width(
                       target - (target > 0 ? 1 : 0))));
    unsigned hi = max_width;
    while (lo < hi) {
        const unsigned mid = (lo + hi) / 2;
        if (distinct(mid) == target)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace

PartitionClassifier::PartitionClassifier(
    const std::vector<SchemeSpec> &schemes, unsigned n_nodes)
    : nodeBits_(predict::nodeBitsFor(n_nodes))
{
    std::vector<IndexPlan> plans;
    std::vector<SchemeSpec> rests;
    planOf_.resize(schemes.size());
    restOf_.resize(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const predict::IndexSpec &spec = schemes[i].index;
        if (i > 0 && spec == schemes[i - 1].index) {
            planOf_[i] = planOf_[i - 1];
        } else {
            const IndexPlan plan = predict::makeIndexPlan(spec, nodeBits_);
            const auto at = std::find(plans.begin(), plans.end(), plan);
            planOf_[i] = static_cast<std::uint32_t>(at - plans.begin());
            if (at == plans.end()) {
                ccp_assert(spec.indexBits(nodeBits_) <=
                               predict::maxTableIndexBits,
                           "index past the table ceiling");
                plans.push_back(plan);
                specs_.push_back(spec);
            }
        }
        SchemeSpec rest = schemes[i];
        rest.index = {};
        const auto at = std::find(rests.begin(), rests.end(), rest);
        restOf_[i] = static_cast<std::uint32_t>(at - rests.begin());
        if (at == rests.end())
            rests.push_back(rest);
    }
}

TraceSharing
PartitionClassifier::classify(const trace::SharingTrace &trace,
                              predict::UpdateMode mode,
                              std::vector<std::uint64_t> &seen) const
{
    // Where the trace's pc words and blocks stop needing more bits.
    unsigned max_pc = 0, max_addr = 0;
    for (const predict::IndexSpec &spec : specs_) {
        if (!spec.hashed) {
            max_pc = std::max(max_pc, spec.pcBits);
            max_addr = std::max(max_addr, spec.addrBits);
        }
    }
    // Lists of distinct values or raw indices are kept while at most
    // half as long as the trace's tuples.
    std::size_t tuples = trace.events().size();
    if (predict::learnsFromPrevWriter(mode))
        for (const trace::CoherenceEvent &ev : trace.events())
            tuples += predict::learnsFirst(ev, mode);
    const std::size_t limit = tuples / 2;
    std::vector<std::uint64_t> raws;
    const unsigned pc_cut = fieldCut(
        trace, mode, [](std::uint64_t pc_word, std::uint64_t) { return pc_word; },
        max_pc, limit, seen, raws);
    const unsigned addr_cut = fieldCut(
        trace, mode, [](std::uint64_t, std::uint64_t block) { return block; },
        max_addr, limit, seen, raws);

    // Canonical plans, narrowest first, so a plan's coarser plans
    // precede it.
    std::vector<predict::IndexSpec> canon;
    std::vector<std::uint32_t> canon_of(specs_.size());
    for (std::size_t p = 0; p < specs_.size(); ++p) {
        predict::IndexSpec c = specs_[p];
        if (!c.hashed) {
            c.pcBits = std::min(c.pcBits, pc_cut);
            c.addrBits = std::min(c.addrBits, addr_cut);
        }
        const auto at = std::find(canon.begin(), canon.end(), c);
        canon_of[p] = static_cast<std::uint32_t>(at - canon.begin());
        if (at == canon.end())
            canon.push_back(c);
    }
    std::vector<std::uint32_t> order(canon.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return canon[a].indexBits(nodeBits_) <
                                canon[b].indexBits(nodeBits_);
                     });
    const std::size_t n = canon.size();
    std::vector<std::uint32_t> rank(n);
    std::vector<IndexPlan> plans;
    std::vector<unsigned> bits;
    for (std::uint32_t r = 0; r < n; ++r) {
        rank[order[r]] = r;
        plans.push_back(predict::makeIndexPlan(canon[order[r]], nodeBits_));
        bits.push_back(canon[order[r]].indexBits(nodeBits_));
    }
    // Only plans in a refining pair need a count.
    std::vector<std::vector<std::uint32_t>> coarser(n);
    std::vector<bool> related(n, false);
    for (std::uint32_t f = 0; f < n; ++f) {
        for (std::uint32_t c = 0; c < f; ++c) {
            if (refines(plans[f], plans[c])) {
                coarser[f].push_back(c);
                related[f] = related[c] = true;
            }
        }
    }

    // Count every plan in a refining pair, widest first, over the
    // shortest list of distinct raw indices a finer plan kept, else
    // over the trace.  Kept lists lie back to back in one buffer of
    // `limit` words, the longest evicted to make room for a shorter
    // one (shorter lists serve more plans).
    struct Kept
    {
        std::uint32_t plan;
        std::size_t at, size;
    };
    std::vector<Kept> kept;
    std::vector<std::uint64_t> pool;
    pool.reserve(limit);
    std::vector<std::uint64_t> count(n, 0);
    for (std::size_t k = n; k-- > 0;) {
        if (!related[k])
            continue;
        const IndexPlan &p = plans[k];
        const Kept *src = nullptr;
        for (const Kept &e : kept)
            if (refines(plans[e.plan], p) && (!src || e.size < src->size))
                src = &e;
        const auto visit = [&](auto &&add) {
            if (!src) {
                forEachTuple(trace, mode,
                             [&](std::uint64_t pid, std::uint64_t pc_word,
                                 std::uint64_t dir, std::uint64_t block) {
                                 add(p.fromWords(pid, pc_word, dir, block));
                             });
                return;
            }
            const std::uint64_t *const from = pool.data() + src->at;
            if (p.hashed()) {
                // Same mix, fewer low bits.
                for (std::size_t i = 0; i < src->size; ++i)
                    add(from[i] & p.hashFoldMask);
                return;
            }
            // Unpack the finer plan's fields and repack them.
            const IndexPlan &f = plans[src->plan];
            for (std::size_t i = 0; i < src->size; ++i)
                add(p.fromWords((from[i] >> f.pidShift) & f.pidMask,
                                (from[i] >> f.pcShift) & f.pcMask,
                                (from[i] >> f.dirShift) & f.dirMask,
                                (from[i] >> f.addrShift) & f.addrMask));
        };
        count[k] = countDistinct(visit, bits[k],
                                 coarser[k].empty() ? 0 : limit, seen, raws);
        if (raws.empty())
            continue;
        while (pool.size() + raws.size() > limit) {
            const auto longest = std::max_element(
                kept.begin(), kept.end(), [](const Kept &a, const Kept &b) {
                    return a.size < b.size;
                });
            if (longest == kept.end() || longest->size <= raws.size())
                break;
            const auto first =
                pool.begin() + static_cast<std::ptrdiff_t>(longest->at);
            pool.erase(first,
                       first + static_cast<std::ptrdiff_t>(longest->size));
            for (Kept &e : kept)
                if (e.at > longest->at)
                    e.at -= longest->size;
            kept.erase(longest);
        }
        if (pool.size() + raws.size() <= limit) {
            kept.push_back({static_cast<std::uint32_t>(k), pool.size(),
                            raws.size()});
            pool.insert(pool.end(), raws.begin(), raws.end());
        }
    }

    // Join refining pairs of equal count.
    std::vector<std::uint32_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    const auto root = [&](std::uint32_t p) {
        while (parent[p] != p)
            p = parent[p] = parent[parent[p]];
        return p;
    };
    for (std::uint32_t p = 0; p < n; ++p)
        for (const std::uint32_t c : coarser[p])
            if (count[c] == count[p])
                parent[root(p)] = root(c);

    TraceSharing out;
    for (std::uint32_t p = 0; p < n; ++p)
        out.classes += root(p) == p;
    out.rep.resize(planOf_.size());
    std::unordered_map<std::uint64_t, std::size_t> first;
    first.reserve(planOf_.size());
    for (std::size_t i = 0; i < planOf_.size(); ++i) {
        const std::uint64_t key =
            std::uint64_t(root(rank[canon_of[planOf_[i]]])) << 32 |
            restOf_[i];
        const std::size_t rep = first.try_emplace(key, i).first->second;
        out.rep[i] = rep;
        out.shared += rep != i;
    }
    return out;
}

TraceSharing
PartitionClassifier::classify(const trace::SharingTrace &trace,
                              predict::UpdateMode mode) const
{
    std::vector<std::uint64_t> seen;
    return classify(trace, mode, seen);
}

} // namespace ccp::sweep
