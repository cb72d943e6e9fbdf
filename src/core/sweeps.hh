/**
 * @file
 * Paired (power-aware vs. baseline) runs for the figure-regeneration
 * benches. Time-series capture (Figs. 6-7) is RunProtocol::bin, in
 * core/experiment.hh.
 */

#ifndef OENET_CORE_SWEEPS_HH
#define OENET_CORE_SWEEPS_HH

#include "core/experiment.hh"

namespace oenet {

/** A power-aware run normalized against its non-power-aware twin
 *  (same traffic, same seed, links pinned at max). */
struct PairedResult
{
    RunMetrics powerAware;
    RunMetrics baseline;
    NormalizedMetrics normalized;
};

PairedResult runPaired(const SystemConfig &config,
                       const TrafficSpec &spec,
                       const RunProtocol &protocol);

/** Copy of @p config with power-awareness disabled (the baseline). */
SystemConfig baselineConfig(const SystemConfig &config);

} // namespace oenet

#endif // OENET_CORE_SWEEPS_HH
