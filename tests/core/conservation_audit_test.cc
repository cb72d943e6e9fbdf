/**
 * @file
 * Tests for the conservation audit: flit-ledger balance and credit
 * restitution on fault-free runs, flit-ledger balance across hard
 * link failures (drops, poison tails, stranded traffic), and the
 * Debug-default / config-override gating.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "core/sweeps.hh"
#include "traffic/uniform.hh"

using namespace oenet;

namespace {

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    c.conservationAudit = true; // run the audit in every build type
    return c;
}

RunProtocol
shortProtocol()
{
    RunProtocol p;
    p.warmup = 1000;
    p.measure = 4000;
    p.drainLimit = 6000;
    return p;
}

} // namespace

TEST(ConservationAudit, FaultFreeRunBalances)
{
    RunMetrics m = runExperiment(smallConfig(),
                                 TrafficSpec::uniform(0.5, 4, 7),
                                 shortProtocol());
    EXPECT_GT(m.packetsMeasured, 0u);
    EXPECT_EQ(m.auditFailures, 0u)
        << "flit or credit books did not balance on a clean run";
}

TEST(ConservationAudit, SaturatedRunBalances)
{
    // Past saturation the drain limit is routinely missed — the audit
    // must balance with traffic still queued at the sources.
    RunMetrics m = runExperiment(smallConfig(),
                                 TrafficSpec::uniform(4.0, 4, 7),
                                 shortProtocol());
    EXPECT_EQ(m.auditFailures, 0u);
}

TEST(ConservationAudit, HardLinkFailureStillBalances)
{
    // Kill a link mid-warmup: its in-flight flits drop, wormholes
    // strand and get poisoned, later flits die at the dead port. The
    // lifetime ledger must absorb all of it (including drops from
    // before startMeasurement resets the windowed counters).
    SystemConfig c = smallConfig();
    c.fault.enabled = true;
    c.fault.killLink = 8;
    c.fault.killCycle = 500; // inside the 1000-cycle warmup
    c.fault.orphanTimeoutCycles = 256;
    RunMetrics m = runExperiment(c, TrafficSpec::uniform(0.6, 4, 11),
                                 shortProtocol());
    EXPECT_EQ(m.linkHardFailures, 1);
    EXPECT_EQ(m.auditFailures, 0u)
        << "flit ledger lost track of dropped/poisoned traffic";
}

TEST(ConservationAudit, FaultedOnOffCorruptionBooksBalance)
{
    // Power gating under a high BER: links are gated off and woken with
    // corrupt copies in flight. Every corrupt copy must end in a
    // replay, still be in flight, or die with its link, and never be
    // delivered as clean.
    SystemConfig c = smallConfig();
    c.policyMode = PolicyMode::kOnOff;
    c.fault.enabled = true;
    c.fault.berFloor = 2e-3;
    c.fault.lockLossPerCycle = 1e-4;
    PoeSystem sys(c);
    sys.setTraffic(std::make_unique<UniformRandomTraffic>(
        UniformRandomTraffic::Params{c.numNodes(), 0.3, 4, 5}));
    sys.run(6000);
    EXPECT_EQ(sys.auditConservation(), 0u);
    OpticalLink::CorruptionBooks books = sys.network().corruptionBooks();
    EXPECT_GT(books.marked, 0u);
    EXPECT_EQ(books.marked, books.replayed + books.inFlight + books.dropped);
}

TEST(ConservationAudit, DirectAuditOnQuiescentSystem)
{
    SystemConfig c = smallConfig();
    PoeSystem sys(c);
    sys.setTraffic(std::make_unique<UniformRandomTraffic>(
        UniformRandomTraffic::Params{c.numNodes(), 0.4, 4, 3}));
    sys.run(3000);
    EXPECT_EQ(sys.auditConservation(), 0u);
    // The audit detached the traffic source; the system is quiescent
    // and every counter accounted for, so a second pass agrees.
    EXPECT_EQ(sys.auditConservation(), 0u);
}

TEST(ConservationAudit, TimelineRunBalances)
{
    TimelineResult r =
        runTimeline(smallConfig(), TrafficSpec::uniform(0.5, 4, 9),
                    4000, 1000, 500);
    EXPECT_EQ(r.metrics.auditFailures, 0u);
}

TEST(ConservationAudit, ConfigOverrideGatesTheAudit)
{
    SystemConfig c;
    c.conservationAudit = false;
    EXPECT_FALSE(c.conservationAuditEnabled());
    c.conservationAudit = true;
    EXPECT_TRUE(c.conservationAuditEnabled());
    c.conservationAudit.reset();
#ifdef NDEBUG
    EXPECT_FALSE(c.conservationAuditEnabled())
        << "audit must be off by default in Release builds";
#else
    EXPECT_TRUE(c.conservationAuditEnabled())
        << "audit must be on by default in Debug builds";
#endif
}
