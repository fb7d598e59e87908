/**
 * @file
 * Evaluator: runs a prediction scheme over coherence traces under one
 * of the paper's three update mechanisms (section 3.4).
 *
 * The mechanisms themselves (direct, forwarded, ordered) are defined
 * once, in predict/step.hh, for every consumer; this evaluator is the
 * reference replay of that definition over a PredictorTable and the
 * oracle the batched sweep kernel and the serve sessions are tested
 * against.
 */

#ifndef CCP_PREDICT_EVALUATOR_HH
#define CCP_PREDICT_EVALUATOR_HH

#include <string>
#include <vector>

#include "predict/metrics.hh"
#include "predict/step.hh"
#include "predict/table.hh"
#include "trace/trace.hh"

namespace ccp::predict {

/** A complete scheme: indexing + function family + history depth
 *  (+ the perceptron family's extra dimensions, defaulted and inert
 *  for every other kind). */
struct SchemeSpec
{
    IndexSpec index;
    FunctionKind kind = FunctionKind::Union;
    unsigned depth = 1;
    PerceptronParams perc{};

    /** Build a fresh table for an @p n_nodes machine. */
    PredictorTable makeTable(unsigned n_nodes) const;

    /** Cost in bits for an @p n_nodes machine. */
    std::uint64_t sizeBits(unsigned n_nodes) const;

    bool operator==(const SchemeSpec &) const = default;
};

/**
 * The fields a scheme's *learned* state depends on: two schemes on
 * one index under one update mode whose keys are equal see the same
 * feedback at every entry and so hold the same learned state at every
 * event.  What the key leaves out only shapes the output:
 *
 *  - window history (union, inter, overlap-last, any depth): every
 *    ring holds a prefix of one newest-first history of the feedback
 *    (windowHistoryPush); depth picks the prefix and union vs inter
 *    vs overlap-last is how it is read;
 *  - PAs: (depth);
 *  - perceptron: (depth, weightBits, theta); the Bloom filter is
 *    output-only (see PerceptronFunction), so bloomBits is not in it.
 *
 * The batched sweep kernel keeps one learned block per key and index
 * group; tests/scheme_property_test.cc checks the key on the
 * reference evaluator.
 */
struct LearnKey
{
    enum class Kind : std::uint8_t
    {
        WindowHistory,
        PAs,
        Perceptron,
    };
    Kind kind = Kind::WindowHistory;
    /** History depth (PAs and perceptron; 0 for window history). */
    unsigned depth = 0;
    /** Perceptron weight width and threshold (0 otherwise). */
    unsigned weightBits = 0;
    unsigned theta = 0;

    bool operator==(const LearnKey &) const = default;
};

LearnKey learnKey(const SchemeSpec &scheme);

/** Result of evaluating one scheme on one trace. */
struct TraceResult
{
    std::string traceName;
    Confusion confusion;
};

/**
 * Result of evaluating one scheme across a benchmark suite.
 *
 * The paper's figures report the arithmetic average of the metric over
 * benchmarks, not the pooled ratio; both are available here.
 */
struct SuiteResult
{
    SchemeSpec scheme;
    UpdateMode mode = UpdateMode::Direct;
    std::vector<TraceResult> perTrace;
    Confusion pooled;

    double avgSensitivity() const;
    double avgPvp() const;
    double avgPrevalence() const;
};

/**
 * Evaluate a scheme over one trace using a caller-provided table
 * (cleared first).  @return the per-bit confusion counts.
 */
Confusion evaluateTrace(const trace::SharingTrace &trace,
                        PredictorTable &table, UpdateMode mode);

/** Evaluate a scheme over one trace, building the table internally. */
Confusion evaluateTrace(const trace::SharingTrace &trace,
                        const SchemeSpec &scheme, UpdateMode mode);

/** Evaluate a scheme over a suite of traces (fresh table per trace,
 *  as each benchmark runs alone on the machine). */
SuiteResult evaluateSuite(const std::vector<trace::SharingTrace> &traces,
                          const SchemeSpec &scheme, UpdateMode mode);

} // namespace ccp::predict

#endif // CCP_PREDICT_EVALUATOR_HH
