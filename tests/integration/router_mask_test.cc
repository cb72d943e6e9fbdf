/**
 * @file
 * The router's incremental work masks (arrival-due input ports,
 * SA-ready input VCs, open output VCs, occupied latches) must equal a
 * recomputation from its flat state after every kernel step.
 * Router::auditMasks panics on any mismatch. Each setup drives a
 * different way bits are raised and cleared:
 *  - a faulted west-first 4x4x2 mesh with BER, lock losses and a
 *    mid-run link kill: polled fault-attached injection links, the
 *    dead-output drop path, dead-port VA grants, poison tails;
 *  - --shards 2: cross-shard channels (bit raised by the destination
 *    pre-pass) beside same-shard direct channels (raised at staging);
 *  - --shards 2 with sim.direct_boundary=off: every edge generic.
 * Every link's event horizon (OpticalLink::auditDue) is audited after
 * each step too; the faulted setup is where lock losses, phase ends
 * and the hard failure move it. The single-router stress harness
 * audits masks after every tick (tests/router/router_stress_test.cc).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"

using namespace oenet;

namespace {

enum class Setup
{
    kFaultedKill,
    kTwoShards,
    kTwoShardsGeneric,
};

SystemConfig
configFor(Setup setup)
{
    SystemConfig c;
    c.meshX = 4;
    c.meshY = 4;
    c.clusterSize = 2;
    c.windowCycles = 200;
    switch (setup) {
      case Setup::kFaultedKill:
        c.routing = RoutingAlgo::kWestFirst;
        c.fault.enabled = true;
        c.fault.berFloor = 1e-3;
        c.fault.lockLossPerCycle = 1e-5;
        c.fault.orphanTimeoutCycles = 512;
        c.fault.killCycle = 2500;
        break;
      case Setup::kTwoShards:
        c.shards = 2;
        break;
      case Setup::kTwoShardsGeneric:
        c.shards = 2;
        c.directBoundary = false;
        break;
    }
    return c;
}

/** Index of the first inter-router link of @p c's fabric. */
int
firstInterRouterLink(const SystemConfig &c)
{
    PoeSystem sys(c);
    for (std::size_t i = 0; i < sys.network().numLinks(); i++) {
        if (sys.network().linkSpec(i).kind == LinkKind::kInterRouter)
            return static_cast<int>(i);
    }
    return kInvalid;
}

void
stepAndAudit(PoeSystem &sys, Cycle cycles)
{
    Network &net = sys.network();
    for (Cycle i = 0; i < cycles; i++) {
        sys.run(1);
        for (int r = 0; r < net.numRouters(); r++)
            net.router(r).auditMasks();
        for (std::size_t l = 0; l < net.numLinks(); l++)
            net.link(l).auditDue();
    }
}

} // namespace

class RouterMasks
    : public ::testing::TestWithParam<std::tuple<Setup, std::uint64_t>>
{
};

TEST_P(RouterMasks, MatchFlatStateAfterEveryStep)
{
    auto [setup, seed] = GetParam();
    SystemConfig c = configFor(setup);
    if (setup == Setup::kFaultedKill) {
        c.fault.killLink = firstInterRouterLink(c);
        ASSERT_NE(c.fault.killLink, kInvalid);
    }
    c.validate();

    PoeSystem sys(c);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(0.4, 4, seed), c));
    stepAndAudit(sys, 6000);
    sys.setTraffic(nullptr);
    stepAndAudit(sys, 3000);

    Network &net = sys.network();
    EXPECT_GT(net.flitsEjected(), 0u);
    if (setup == Setup::kFaultedKill) {
        EXPECT_EQ(net.failedLinks(), 1);
        EXPECT_GT(net.flitsDroppedDeadPort() + net.poisonedWormholes(),
                  0u)
            << "the kill must exercise the dead-port paths";
    }
}

namespace {

std::string
setupName(const ::testing::TestParamInfo<RouterMasks::ParamType> &info)
{
    static const char *const kNames[] = {"FaultedKill", "TwoShards",
                                         "TwoShardsGeneric"};
    return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
           "_seed" + std::to_string(std::get<1>(info.param));
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Setups, RouterMasks,
    ::testing::Combine(::testing::Values(Setup::kFaultedKill,
                                         Setup::kTwoShards,
                                         Setup::kTwoShardsGeneric),
                       ::testing::Values(1, 2, 3)),
    setupName);
