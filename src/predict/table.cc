#include "predict/table.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace ccp::predict {

unsigned
nodeBitsFor(unsigned n_nodes)
{
    ccp_assert(n_nodes >= 1 && n_nodes <= maxNodes,
               "bad node count ", n_nodes);
    unsigned bits = 0;
    while ((1u << bits) < n_nodes)
        ++bits;
    return bits;
}

PredictorTable::PredictorTable(
    const IndexSpec &spec,
    std::shared_ptr<const PredictionFunction> function, unsigned n_nodes)
    : spec_(spec), function_(std::move(function)), nNodes_(n_nodes),
      nodeBits_(nodeBitsFor(n_nodes))
{
    ccp_assert(function_ != nullptr, "table needs a function");
    unsigned bits = spec_.indexBits(nodeBits_);
    ccp_assert(bits <= maxTableIndexBits, "index too wide: ", bits,
               " bits");
    entries_ = std::uint64_t(1) << bits;
    entryWords_ = function_->entryWords();
    state_.assign(entries_ * entryWords_, 0);
}

std::uint64_t
PredictorTable::sizeBits() const
{
    return entries_ * function_->entryBits(nNodes_);
}

double
PredictorTable::log2SizeBits() const
{
    return std::log2(static_cast<double>(sizeBits()));
}

std::uint64_t *
PredictorTable::entryState(NodeId pid, Pc pc, NodeId dir, Addr block)
{
    std::uint64_t idx = spec_.index(pid, pc, dir, block, nodeBits_);
    return state_.data() + idx * entryWords_;
}

const std::uint64_t *
PredictorTable::entryState(NodeId pid, Pc pc, NodeId dir,
                           Addr block) const
{
    std::uint64_t idx = spec_.index(pid, pc, dir, block, nodeBits_);
    return state_.data() + idx * entryWords_;
}

SharingBitmap
PredictorTable::predict(NodeId pid, Pc pc, NodeId dir, Addr block) const
{
    return function_->predict(entryState(pid, pc, dir, block));
}

void
PredictorTable::update(NodeId pid, Pc pc, NodeId dir, Addr block,
                       SharingBitmap feedback)
{
    function_->update(entryState(pid, pc, dir, block), feedback);
}

void
PredictorTable::clear()
{
    std::fill(state_.begin(), state_.end(), 0);
}

bool
PredictorTable::restoreRawState(const std::vector<std::uint64_t> &words)
{
    if (words.size() != state_.size())
        return false;
    for (std::size_t e = 0; e < entries_; ++e)
        if (!function_->validEntry(words.data() + e * entryWords_))
            return false;
    state_ = words;
    return true;
}

double
PredictorTable::occupancy() const
{
    if (entries_ == 0)
        return 0.0;
    std::uint64_t used = 0;
    for (std::uint64_t e = 0; e < entries_; ++e) {
        const std::uint64_t *words = state_.data() + e * entryWords_;
        for (std::size_t w = 0; w < entryWords_; ++w) {
            if (words[w]) {
                ++used;
                break;
            }
        }
    }
    return static_cast<double>(used) / static_cast<double>(entries_);
}

} // namespace ccp::predict
