#include "predict/step.hh"

#include "common/logging.hh"

namespace ccp::predict {

const char *
updateModeName(UpdateMode mode)
{
    switch (mode) {
      case UpdateMode::Direct:
        return "direct";
      case UpdateMode::Forwarded:
        return "forwarded";
      case UpdateMode::Ordered:
        return "ordered";
    }
    ccp_panic("bad UpdateMode");
}

std::vector<SharingBitmap>
orderedFeedback(const trace::SharingTrace &trace)
{
    // Ordered update delivers exactly the feedback forwarded update
    // would (the set of readers *invalidated* when the version dies),
    // just perfectly ordered in time.  The bitmap each event will
    // eventually generate is recorded on its successor; versions
    // still live at the end of the trace feed back their full reader
    // set (final-memory-state semantics, paper section 5.1).
    const auto &events = trace.events();
    std::vector<SharingBitmap> feedback(events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        feedback[i] = events[i].readers;
    for (const auto &ev : events) {
        if (ev.prevEvent != trace::noEvent)
            feedback[ev.prevEvent] = ev.invalidated;
    }
    return feedback;
}

} // namespace ccp::predict
