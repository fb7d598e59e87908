/**
 * @file
 * Per-layer accounting for the benchmark's traced runs.
 *
 * The benchmark reaches each layer of ccp only through that layer's
 * public calls, and times those calls from its own files: one span per
 * call, accumulated per layer into a time and a call count (the
 * per-access-type delay/count bookkeeping of a cache simulator's
 * memory system).  Spans nest; a layer is charged its self time, a
 * span's duration minus the part its child spans cover.
 *
 * A disabled clock records nothing and reads no clock, so the
 * end-to-end (untraced) runs pay only a branch per call.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/** The ccp layers a workload calls into, plus the harness itself. */
enum class Layer : unsigned
{
    Bench,   ///< the benchmark's own loop between layer calls
    Trace,   ///< trace: SharingTrace::saveFile / loadFile
    Sim,     ///< workloads + sim + mem + net: generateTrace
    Sweep,   ///< sweep: enumerateSchemes, ParallelSweep, planBatches
    Rank,    ///< sweep ranking: rankResults
    Predict, ///< predict: the reference evaluator
    Serve,   ///< serve: Session, PredictServer submit / poll
};

inline constexpr unsigned nLayers = 7;

const char *layerName(Layer layer);

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class LayerClock
{
  public:
    explicit LayerClock(bool enabled) : enabled_(enabled) {}

    LayerClock(const LayerClock &) = delete;
    LayerClock &operator=(const LayerClock &) = delete;

    /** RAII span around one call into @p layer. */
    class Span
    {
      public:
        Span(LayerClock &clock, Layer layer) : clock_(clock)
        {
            if (clock_.enabled_)
                clock_.open(layer);
        }
        ~Span()
        {
            if (clock_.enabled_)
                clock_.close();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        LayerClock &clock_;
    };

    double selfSec(Layer layer) const;
    std::uint64_t calls(Layer layer) const;

  private:
    struct Open
    {
        Layer layer;
        Clock::time_point start;
        std::uint64_t childNs = 0;
    };

    void open(Layer layer);
    void close();

    bool enabled_;
    std::vector<Open> stack_;
    std::array<std::uint64_t, nLayers> selfNs_{};
    std::array<std::uint64_t, nLayers> calls_{};
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
