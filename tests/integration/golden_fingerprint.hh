/**
 * @file
 * The golden fingerprint: FNV-1a over every trace event of a fixed
 * warm-up / measure / drain protocol and the final run metrics. Shared
 * by golden_mesh_test.cc, which pins the recorded constants, and
 * sharded_kernel_test.cc, which holds the same constants across shard
 * counts and elision modes.
 */

#ifndef OENET_TESTS_INTEGRATION_GOLDEN_FINGERPRINT_HH
#define OENET_TESTS_INTEGRATION_GOLDEN_FINGERPRINT_HH

#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "fault/fault_injector.hh"

namespace oenet::golden {

struct HashSink final : public TraceSink
{
    std::uint64_t h = 1469598103934665603ull;
    /** Events seen, by fault kind / transition type (not hashed). */
    std::map<std::string, int> kinds;

    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void mixD(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
    void mixS(const char *s)
    {
        while (*s) {
            h ^= static_cast<unsigned char>(*s++);
            h *= 1099511628211ull;
        }
    }

    void beginRun(const std::vector<TraceLinkInfo> &links) override
    {
        mix(links.size());
        for (const auto &l : links) {
            mix(static_cast<std::uint64_t>(l.id));
            mixS(l.name.c_str());
            mixS(l.kind);
        }
    }
    void linkTransition(const LinkTransitionEvent &e) override
    {
        mix(e.startedAt);
        mix(e.completedAt);
        mix(static_cast<std::uint64_t>(e.linkId));
        mix(static_cast<std::uint64_t>(e.fromLevel));
        mix(static_cast<std::uint64_t>(e.toLevel));
        mixS(e.type);
        kinds[e.type]++;
    }
    void dvsDecision(const DvsDecisionEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixD(e.lu);
        mixD(e.avgLu);
        mixD(e.bu);
        mixD(e.thLow);
        mixD(e.thHigh);
        mixS(e.decision);
        mix(e.backlogEscalated ? 1 : 0);
        mix(e.downgradeVetoed ? 1 : 0);
        mix(static_cast<std::uint64_t>(e.level));
    }
    void laserEvent(const LaserTraceEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixS(e.action);
        mix(static_cast<std::uint64_t>(e.fromLevel));
        mix(static_cast<std::uint64_t>(e.toLevel));
    }
    void packetRetire(const PacketRetireEvent &e) override
    {
        mix(e.at);
        mix(e.packet);
        mix(e.src);
        mix(e.dst);
        mix(e.createdAt);
        mix(e.latency);
        mix(static_cast<std::uint64_t>(e.lenFlits));
    }
    void faultEvent(const FaultEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixS(e.kind);
        mix(static_cast<std::uint64_t>(e.attempts));
        mixD(e.aux);
        kinds[e.kind]++;
    }
    void powerSnapshot(const PowerSnapshotEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.numKinds));
        for (int i = 0; i < e.numKinds; i++) {
            mixS(e.kinds[i].kind);
            mix(static_cast<std::uint64_t>(e.kinds[i].count));
            mixD(e.kinds[i].powerMw);
            mixD(e.kinds[i].baselineMw);
            mixD(e.kinds[i].meanLevel);
            mix(e.kinds[i].totalFlits);
        }
        mixD(e.totalPowerMw);
        mixD(e.baselinePowerMw);
        mixD(e.normalizedPower);
    }
};

/** Fingerprint one run; @p kinds, when given, receives the sink's
 *  per-kind event counts. */
inline std::uint64_t
fingerprintRun(const SystemConfig &cfg, double rate, std::uint64_t seed,
               std::map<std::string, int> *kinds = nullptr)
{
    HashSink sink;
    {
        PoeSystem sys(cfg);
        sys.setTraceSink(&sink, 500);
        sys.setTraffic(makeTraffic(TrafficSpec::uniform(rate, 4, seed),
                                   cfg));
        sys.run(1000);
        sys.startMeasurement();
        sys.run(3000);
        sys.stopMeasurement();
        sys.setTraffic(nullptr);
        sys.awaitDrain(20000);
        RunMetrics m = sys.metrics();
        sink.mixD(m.avgLatency);
        sink.mixD(m.p95Latency);
        sink.mixD(m.avgPowerMw);
        sink.mixD(m.normalizedPower);
        sink.mixD(m.throughputFlitsPerCycle);
        sink.mix(m.packetsInjected);
        sink.mix(m.packetsEjected);
        sink.mix(m.transitions);
        sink.mix(m.flitsDroppedDeadPort);
        sink.mix(m.poisonedWormholes);
        sys.setTraceSink(nullptr);
    }
    if (kinds != nullptr)
        *kinds = sink.kinds;
    return sink.h;
}

/**
 * The fault-mix system: the 4x4x2 west-first mesh under every link
 * fault at once — a BER floor (CRC retransmission), CDR lock losses,
 * DVS transitions and a scripted inter-router link kill with orphan
 * reclaim. The VOA command faults are armed too, though this short
 * run dispatches no VOA command.
 */
inline SystemConfig
faultMixConfig()
{
    SystemConfig c;
    c.meshX = 4;
    c.meshY = 4;
    c.clusterSize = 2;
    c.routing = RoutingAlgo::kWestFirst;
    c.powerAware = true;
    c.windowCycles = 200;
    c.fault.enabled = true;
    c.fault.berFloor = 1e-3;
    c.fault.lockLossPerCycle = 2e-4;
    c.fault.voaDelayProb = 0.1;
    c.fault.voaLossProb = 0.05;
    c.fault.killLink = 70; // an inter-router link on the 4x4x2 system
    c.fault.killCycle = 1500;
    c.fault.orphanTimeoutCycles = 300;
    return c;
}

/** faultMixConfig() fingerprints (seed 13), recorded before links
 *  skipped their state walk between fault events. */
inline constexpr std::uint64_t kFaultMixRate03 = 0x5583d833f0b7ded9ull;
inline constexpr std::uint64_t kFaultMixRate08 = 0xea08eec3d003aba3ull;

} // namespace oenet::golden

#endif // OENET_TESTS_INTEGRATION_GOLDEN_FINGERPRINT_HH
