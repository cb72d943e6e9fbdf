/**
 * @file
 * PoeSystem — the fully assembled power-aware opto-electronic networked
 * system, and the repository's primary public entry point.
 *
 * It owns the kernel, the network, the policy engine (when power-aware),
 * and the traffic source; pumps traffic into the nodes each cycle;
 * collects packet latencies over a caller-controlled measurement window;
 * and turns the accumulated state into RunMetrics.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *     SystemConfig cfg;                       // paper defaults
 *     PoeSystem sys(cfg);
 *     sys.setTraffic(std::make_unique<UniformRandomTraffic>(...));
 *     sys.run(20000);                         // warm up
 *     sys.startMeasurement();
 *     sys.run(100000);                        // measure
 *     sys.stopMeasurement();
 *     sys.awaitDrain(200000);
 *     RunMetrics m = sys.metrics();
 */

#ifndef OENET_CORE_POE_SYSTEM_HH
#define OENET_CORE_POE_SYSTEM_HH

#include <memory>

#include "core/metrics.hh"
#include "core/system_config.hh"
#include "trace/shard_mux.hh"
#include "trace/trace.hh"
#include "traffic/injection_process.hh"

namespace oenet {

class FaultInjector;

class PoeSystem final : public PacketSink, public Ticking
{
  public:
    explicit PoeSystem(const SystemConfig &config);
    ~PoeSystem() override;

    /** Install the traffic source (replaces any previous). */
    void setTraffic(std::unique_ptr<TrafficSource> traffic);

    /**
     * Attach a trace sink (null detaches): announces the link table,
     * wires link transitions, DVS/laser decisions, and packet retires,
     * and — when @p metrics_interval > 0 — installs the kernel epoch
     * hook emitting per-kind power snapshots every that many cycles.
     * The sink must outlive the system (the destructor ends the run).
     */
    void setTraceSink(TraceSink *sink, Cycle metrics_interval = 1000);

    /** Advance the system by @p cycles cycles. */
    void run(Cycle cycles);

    /** Begin collecting latency/power statistics. Also restarts the
     *  links' cumulative counters (power integral, flit and transition
     *  counts) so per-link reports exclude warm-up transients; the
     *  whole-run packet counters and the DVS state are untouched. */
    void startMeasurement();

    /** Stop the measurement window (packets created inside it keep
     *  being tracked until they eject). */
    void stopMeasurement();

    /** Run until every packet created during the measurement window has
     *  ejected, or @p limit extra cycles elapse.
     *  @return true if fully drained. */
    bool awaitDrain(Cycle limit);

    /** Metrics for the last measurement window. */
    RunMetrics metrics();

    /**
     * Conservation audit (Debug builds, or `sim.conservation_audit`):
     * stop the traffic source, let in-flight flits and returned
     * credits settle (at most @p settle_limit extra cycles), then
     * check that every flit ever injected is accounted for —
     *
     *   injected + poisoned == ejected + poisonTailsRetired
     *                          + droppedOnFail + droppedDeadPort
     *                          + still-in-fabric
     *
     * — that every corrupt copy a link ever marked was replayed, is
     * still in flight, or was dropped by a hard failure
     * (OpticalLink::CorruptionBooks) — and, when the fabric reached
     * quiescence and no link has hard-failed, that every credit pool
     * was restituted: each router output VC free and back at its
     * downstream depth, each node injection VC back at capacity, no
     * pending credits anywhere.
     * Each violation is warn()ed (never an abort) and counted.
     * Before the books, every router's incremental work masks, every
     * link's event horizon and the kernel's active bitmaps are checked
     * against their flat state (Router::auditMasks,
     * OpticalLink::auditDue, Kernel::auditActive); a stale one is a
     * simulator bug and panics.
     * Detach any trace sink first; the settle cycles emit no events.
     * @return the number of violations (0 = books balance).
     */
    std::uint64_t auditConservation(Cycle settle_limit = 50000);

    /** Instantaneous normalized power (all links, vs. always-max). */
    double normalizedPowerNow();

    // Ticking (traffic pump; registered before routers/nodes).
    void tick(Cycle now) override;

    /** Quiescence (idle elision): with no traffic source installed the
     *  pump has nothing to do; with one installed it must tick every
     *  cycle (sources draw from their RNG per cycle, so eliding a tick
     *  would change the stream). setTraffic is the wake edge. */
    Cycle nextWakeCycle(Cycle now) override
    {
        return traffic_ ? now + 1 : kNeverCycle;
    }

    // PacketSink. During a shard's parallel pass the ejection is
    // buffered (keyed by the ejecting node's tick order) and replayed
    // after the barrier, so latency statistics accumulate in the
    // canonical node order at every shard count.
    void packetEjected(const Flit &tail, Cycle now) override;

    /** Packets created inside the measurement window so far. */
    std::uint64_t measuredCreated() const { return measuredCreated_; }

    /** Packets from the measurement window ejected so far. */
    std::uint64_t measuredEjected() const { return measuredEjected_; }

    /** Streaming latency stats of the measurement window. */
    const RunningStat &latencyStat() const { return latency_; }

    Kernel &kernel() { return kernel_; }
    Network &network() { return *network_; }
    PolicyEngine *engine() { return engine_.get(); }

    /** The fault injector, or null when fault injection is off. */
    FaultInjector *faultInjector() { return faults_.get(); }

    const SystemConfig &config() const { return config_; }
    Cycle now() const { return kernel_.now(); }

  private:
    SystemConfig config_;
    Kernel kernel_;
    std::unique_ptr<Network> network_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<PolicyEngine> engine_;
    std::unique_ptr<TrafficSource> traffic_;
    std::vector<PacketDesc> scratchArrivals_;

    // Measurement state.
    bool measuring_ = false;
    Cycle measureStart_ = 0;
    Cycle measureEnd_ = 0;
    bool measureEnded_ = false;
    double powerIntegralStart_ = 0.0;
    double powerIntegralEnd_ = 0.0;
    double leakIntegralStart_ = 0.0;
    double leakIntegralEnd_ = 0.0;
    std::uint64_t measuredCreated_ = 0;
    std::uint64_t measuredEjected_ = 0;
    std::uint64_t measuredFlitsEjectedStart_ = 0;
    std::uint64_t measuredFlitsEjectedEnd_ = 0;
    double offeredPacketsInWindow_ = 0.0;
    RunningStat latency_;
    Histogram latencyHist_;
    std::uint64_t transitionsStart_ = 0;

    // Tracing. Link-layer events route through the shard mux (they
    // can fire inside a parallel pass); everything emitted from the
    // driving thread goes straight to traceSink_.
    TraceSink *traceSink_ = nullptr;
    std::unique_ptr<ShardTraceMux> traceMux_;

    // Ejections deferred out of the parallel phase, per kernel domain.
    struct PendingEjection
    {
        std::uint32_t order; ///< ejecting node's tick order
        Flit tail;
        Cycle at;
    };
    std::vector<std::vector<PendingEjection>> pendingEjections_;
    std::vector<PendingEjection> ejectScratch_;

    std::uint64_t totalTransitions() const;
    void emitPowerSnapshot(Cycle now);
    void processEjection(const Flit &tail, Cycle now);
    void replayEjections();
};

} // namespace oenet

#endif // OENET_CORE_POE_SYSTEM_HH
