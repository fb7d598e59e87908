#include "serve/session.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace ccp::serve {

namespace {

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

Session::Session(std::uint64_t id, const SessionConfig &config,
                 unsigned n_nodes)
    : id_(id), nNodes_(n_nodes), mode_(config.mode),
      table_(config.scheme.makeTable(n_nodes)),
      window_(std::max<std::size_t>(config.windowEvents, 1))
{
    if (mode_ == predict::UpdateMode::Ordered)
        ccp_fatal("ordered update needs each event's successor (a "
                  "second trace pass) and cannot be served online; "
                  "use direct or forwarded");
}

SharingBitmap
Session::onEvent(const trace::CoherenceEvent &ev)
{
    const SharingBitmap pred = predict::stepEvent(table_, ev, mode_);

    // Score once (Confusion::add masks to the machine; the server
    // does not check submitted bitmaps against nNodes) and derive the
    // window cell from the same counts as the cumulative total.
    predict::Confusion scored;
    scored.add(pred, ev.readers, nNodes_);
    total_.merge(scored);
    const WindowCell cell{static_cast<std::uint8_t>(scored.tp),
                          static_cast<std::uint8_t>(scored.fp),
                          static_cast<std::uint8_t>(scored.fn)};
    ++events_;

    if (winCount_ == window_.size()) {
        const WindowCell &old = window_[winPos_];
        winTp_ -= old.tp;
        winFp_ -= old.fp;
        winFn_ -= old.fn;
    } else {
        ++winCount_;
    }
    window_[winPos_] = cell;
    winTp_ += cell.tp;
    winFp_ += cell.fp;
    winFn_ += cell.fn;
    winPos_ = (winPos_ + 1) % window_.size();
    return pred;
}

SessionStats
Session::stats() const
{
    SessionStats s;
    s.events = events_;
    s.total = total_;
    s.window = predict::Confusion::fromPositives(
        winTp_, winFp_, winFn_,
        std::uint64_t(winCount_) * nNodes_);
    return s;
}

void
Session::encode(std::vector<char> &out) const
{
    putWord(out, id_);
    putWord(out, events_);
    putWord(out, total_.tp);
    putWord(out, total_.fp);
    putWord(out, total_.tn);
    putWord(out, total_.fn);

    const std::vector<std::uint64_t> &state = table_.rawState();
    putWord(out, state.size());
    const char *raw = reinterpret_cast<const char *>(state.data());
    out.insert(out.end(), raw, raw + state.size() * 8);

    putWord(out, window_.size());
    putWord(out, winCount_);
    // Logical oldest-to-newest order, so decode rebuilds the ring
    // with the oldest cell at index 0 regardless of where the write
    // cursor happened to be.
    const std::size_t start =
        winCount_ == window_.size() ? winPos_ : 0;
    for (std::size_t i = 0; i < winCount_; ++i) {
        const WindowCell &c =
            window_[(start + i) % window_.size()];
        putWord(out, std::uint64_t(c.tp) | std::uint64_t(c.fp) << 8 |
                         std::uint64_t(c.fn) << 16);
    }
}

bool
Session::decode(const char *&p, const char *end)
{
    std::uint64_t id = 0, events = 0;
    predict::Confusion total;
    if (!getWord(p, end, id) || !getWord(p, end, events) ||
        !getWord(p, end, total.tp) || !getWord(p, end, total.fp) ||
        !getWord(p, end, total.tn) || !getWord(p, end, total.fn))
        return false;
    if (id != id_)
        return false;

    std::uint64_t state_words = 0;
    if (!getWord(p, end, state_words) ||
        state_words != table_.rawState().size())
        return false;
    if (static_cast<std::uint64_t>(end - p) < state_words * 8)
        return false;
    std::vector<std::uint64_t> state(state_words);
    std::memcpy(state.data(), p, state_words * 8);
    p += state_words * 8;

    std::uint64_t capacity = 0, count = 0;
    if (!getWord(p, end, capacity) || capacity != window_.size() ||
        !getWord(p, end, count) || count > capacity)
        return false;
    std::vector<WindowCell> cells(window_.size());
    std::uint64_t tp = 0, fp = 0, fn = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t packed = 0;
        if (!getWord(p, end, packed) || (packed >> 24) != 0)
            return false;
        cells[i].tp = static_cast<std::uint8_t>(packed & 0xff);
        cells[i].fp = static_cast<std::uint8_t>((packed >> 8) & 0xff);
        cells[i].fn = static_cast<std::uint8_t>((packed >> 16) & 0xff);
        tp += cells[i].tp;
        fp += cells[i].fp;
        fn += cells[i].fn;
    }

    if (!table_.restoreRawState(state))
        return false;
    events_ = events;
    total_ = total;
    window_ = std::move(cells);
    winCount_ = count;
    winPos_ = count % window_.size();
    winTp_ = tp;
    winFp_ = fp;
    winFn_ = fn;
    return true;
}

} // namespace ccp::serve
