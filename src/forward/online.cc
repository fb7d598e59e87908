#include "forward/online.hh"

namespace ccp::forward {

OnlineForwarder::OnlineForwarder(const predict::SchemeSpec &scheme,
                                 unsigned n_nodes)
    : table_(scheme.makeTable(n_nodes))
{
}

void
OnlineForwarder::attach(mem::CoherenceController &ctl)
{
    ctl.setForwardHook([this](const trace::CoherenceEvent &ev) {
        // Direct update: the invalidation feedback the event carries
        // is folded in first, then the new version's readers are
        // predicted.  Thanks to the access-bit reporting in the
        // protocol, ev.invalidated contains true readers only, even
        // though the directory's sharer set was polluted by our own
        // earlier forwards.
        return predict::stepEvent(table_, ev,
                                  predict::UpdateMode::Direct);
    });
}

} // namespace ccp::forward
