/**
 * @file
 * Shard-count invariance: the sharded kernel must produce the same
 * bytes as the single-shard reference — same trace event stream, same
 * metrics — at every shard count, with idle elision on or off, with
 * and without faults. This is the determinism contract of
 * docs/DETERMINISM.md exercised as a soak: an asymmetric 5x3 mesh (so
 * row stripes are uneven and shard 7 leaves shards empty) driven by
 * seeded random traffic, fingerprinted across the full
 * {shards} x {elision} grid.
 */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "golden_fingerprint.hh"

using namespace oenet;

namespace {

/** FNV-1a over every trace event and the final metrics. */
struct FingerprintSink final : public TraceSink
{
    std::uint64_t h = 1469598103934665603ull;

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

    void linkTransition(const LinkTransitionEvent &e) override
    {
        mix(e.startedAt);
        mix(e.completedAt);
        mix(static_cast<std::uint64_t>(e.linkId));
        mix(static_cast<std::uint64_t>(e.toLevel));
        mixS(e.type);
    }
    void dvsDecision(const DvsDecisionEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixD(e.lu);
        mixS(e.decision);
        mix(static_cast<std::uint64_t>(e.level));
    }
    void packetRetire(const PacketRetireEvent &e) override
    {
        mix(e.at);
        mix(e.packet);
        mix(e.latency);
    }
    void faultEvent(const FaultEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixS(e.kind);
    }
    void powerSnapshot(const PowerSnapshotEvent &e) override
    {
        mix(e.at);
        mixD(e.totalPowerMw);
    }
};

SystemConfig
asymmetricMesh(int shards, bool elision)
{
    SystemConfig c;
    c.meshX = 5;
    c.meshY = 3;
    c.clusterSize = 2;
    c.windowCycles = 200;
    c.shards = shards;
    c.idleElision = elision;
    return c;
}

std::uint64_t
fingerprint(const SystemConfig &cfg, double rate, std::uint64_t seed,
            std::uint64_t &packets_out)
{
    FingerprintSink sink;
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, 500);
    sys.setTraffic(
        makeTraffic(TrafficSpec::uniform(rate, 4, seed), cfg));
    sys.run(500);
    sys.startMeasurement();
    sys.run(2500);
    sys.stopMeasurement();
    sys.setTraffic(nullptr);
    sys.awaitDrain(10000);
    RunMetrics m = sys.metrics();
    sink.mixD(m.avgLatency);
    sink.mixD(m.p95Latency);
    sink.mixD(m.avgPowerMw);
    sink.mixD(m.throughputFlitsPerCycle);
    sink.mix(m.packetsInjected);
    sink.mix(m.packetsEjected);
    sink.mix(m.transitions);
    sys.setTraceSink(nullptr);
    packets_out = m.packetsInjected;
    return sink.h;
}

} // namespace

TEST(ShardedKernel, FingerprintInvariantAcrossShardsAndElision)
{
    // Shard counts straddle the interesting cases: 1 = reference path,
    // 2/4 = balanced and uneven row stripes of the 3-row mesh, 7 = more
    // shards than rows (empty shards).
    for (std::uint64_t seed : {17ull, 400000041ull}) {
        std::uint64_t ref_packets = 0;
        std::uint64_t ref = fingerprint(asymmetricMesh(1, true), 0.8,
                                        seed, ref_packets);
        ASSERT_GT(ref_packets, 0u);
        for (int shards : {1, 2, 4, 7}) {
            for (bool elision : {true, false}) {
                std::uint64_t packets = 0;
                EXPECT_EQ(fingerprint(asymmetricMesh(shards, elision),
                                      0.8, seed, packets),
                          ref)
                    << "shards=" << shards << " elision=" << elision
                    << " seed=" << seed;
                EXPECT_EQ(packets, ref_packets);
            }
        }
    }
}

TEST(ShardedKernel, FingerprintInvariantUnderLinkFailure)
{
    // A scripted inter-router link kill crosses every sharded
    // mechanism at once: failure propagation through the boundary
    // proxy, poison drains, credit reclamation, reroute.
    auto cfg = [](int shards, bool elision) {
        SystemConfig c = asymmetricMesh(shards, elision);
        c.routing = RoutingAlgo::kWestFirst; // route-around capable
        c.fault.enabled = true;
        c.fault.killLink = 64; // an inter-router link on the 5x3x2 mesh
        c.fault.killCycle = 900;
        c.fault.orphanTimeoutCycles = 300;
        return c;
    };
    std::uint64_t ref_packets = 0;
    std::uint64_t ref =
        fingerprint(cfg(1, true), 0.6, 23, ref_packets);
    for (int shards : {2, 4, 7}) {
        for (bool elision : {true, false}) {
            std::uint64_t packets = 0;
            EXPECT_EQ(fingerprint(cfg(shards, elision), 0.6, 23,
                                  packets),
                      ref)
                << "shards=" << shards << " elision=" << elision;
        }
    }
}

TEST(ShardedKernel, DirectBoundaryEquivalenceSoak)
{
    // The same-shard zero-copy specialization (immediate publish,
    // synchronous credits, no per-cycle swap/drain hooks) must be
    // call-sequence-identical to the generic cross-shard channel path.
    // Soak it with randomized seeded traffic across shard counts and
    // elision modes: every (shards, elision, seed) cell must
    // fingerprint identically with the specialization on and off.
    for (std::uint64_t seed : {11ull, 90210ull, 400000087ull}) {
        for (int shards : {1, 2, 4}) {
            for (bool elision : {true, false}) {
                SystemConfig direct = asymmetricMesh(shards, elision);
                SystemConfig generic = direct;
                generic.directBoundary = false;
                std::uint64_t pd = 0, pg = 0;
                EXPECT_EQ(fingerprint(direct, 0.8, seed, pd),
                          fingerprint(generic, 0.8, seed, pg))
                    << "shards=" << shards << " elision=" << elision
                    << " seed=" << seed;
                EXPECT_EQ(pd, pg);
                EXPECT_GT(pd, 0u);
            }
        }
    }
}

TEST(ShardedKernel, DirectBoundaryEquivalenceUnderLinkFailure)
{
    // Same soak through the failure machinery: the direct channel's
    // immediate failure flag and poison-credit path must match the
    // generic swap-published ones cycle for cycle.
    auto cfg = [](bool direct, int shards, bool elision) {
        SystemConfig c = asymmetricMesh(shards, elision);
        c.routing = RoutingAlgo::kWestFirst;
        c.fault.enabled = true;
        c.fault.killLink = 64;
        c.fault.killCycle = 900;
        c.fault.orphanTimeoutCycles = 300;
        c.directBoundary = direct;
        return c;
    };
    for (int shards : {1, 2, 4}) {
        for (bool elision : {true, false}) {
            std::uint64_t pd = 0, pg = 0;
            EXPECT_EQ(fingerprint(cfg(true, shards, elision), 0.6, 23,
                                  pd),
                      fingerprint(cfg(false, shards, elision), 0.6, 23,
                                  pg))
                << "shards=" << shards << " elision=" << elision;
            EXPECT_EQ(pd, pg);
        }
    }
}

TEST(ShardedKernel, RepeatedShardedRunsAreReproducible)
{
    // Same binary, same config, threads and all: run-to-run equality
    // (no hidden dependence on scheduling).
    std::uint64_t pa = 0, pb = 0;
    std::uint64_t a = fingerprint(asymmetricMesh(4, true), 0.8, 5, pa);
    std::uint64_t b = fingerprint(asymmetricMesh(4, true), 0.8, 5, pb);
    EXPECT_EQ(a, b);
    EXPECT_EQ(pa, pb);
}

TEST(ShardedKernel, FaultMixGoldenHoldsAcrossShardsAndElision)
{
    // The fault-mix golden constants (golden_mesh_test.cc) are pinned
    // on the serial, elided run; the sharded kernel and the
    // tick-everything kernel must reproduce the same bytes.
    for (int shards : {1, 2}) {
        for (bool elision : {true, false}) {
            if (shards == 1 && elision)
                continue; // GoldenMesh.FaultMixMatchesPreHorizonBytes
            SystemConfig c = golden::faultMixConfig();
            c.shards = shards;
            c.idleElision = elision;
            EXPECT_EQ(golden::fingerprintRun(c, 0.3, 13),
                      golden::kFaultMixRate03)
                << "shards=" << shards << " elision=" << elision;
            EXPECT_EQ(golden::fingerprintRun(c, 0.8, 13),
                      golden::kFaultMixRate08)
                << "shards=" << shards << " elision=" << elision;
        }
    }
}
