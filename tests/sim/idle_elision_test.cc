/**
 * @file
 * Tests for the idle-elision scheduler: the kernel's sleep/wake
 * protocol on stub components, the quiescence invariants of the real
 * system (idle PoeSystem parks everything; injection wakes exactly the
 * path that needs to move), and a randomized soak asserting that
 * elision-on and elision-off runs emit byte-identical trace streams
 * and identical metrics — the property the CI cmp checks enforce at
 * bench scale. Every test steps one cycle at a time and checks the
 * kernel's active bitmaps against the components' sleep state after
 * each step (Kernel::auditActive).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/kernel.hh"
#include "trace/trace_sinks.hh"

using namespace oenet;

namespace {

/** Ticking stub whose wake policy is a per-test knob. */
class Sleeper : public Ticking
{
  public:
    std::vector<Cycle> ticks;
    Cycle wake = kNeverCycle; ///< absolute cycle returned by nextWakeCycle
    std::vector<int> *log = nullptr;
    int id = 0;

    void tick(Cycle now) override
    {
        ticks.push_back(now);
        if (log)
            log->push_back(id);
    }
    Cycle nextWakeCycle(Cycle now) override
    {
        // One-shot alarm: once the armed cycle has been reached the
        // stub has no further work and parks indefinitely.
        return wake > now ? wake : kNeverCycle;
    }
};

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    return c;
}

/** Step @p k @p cycles times, auditing its active set after each. */
void
runAudited(Kernel &k, Cycle cycles)
{
    for (Cycle i = 0; i < cycles; i++) {
        k.step();
        k.auditActive();
    }
}

void
runAudited(PoeSystem &sys, Cycle cycles)
{
    for (Cycle i = 0; i < cycles; i++) {
        sys.run(1);
        sys.kernel().auditActive();
    }
}

std::unique_ptr<TrafficSource>
uniform(double rate, const SystemConfig &cfg, std::uint64_t seed = 1)
{
    return makeTraffic(TrafficSpec::uniform(rate, 4, seed), cfg);
}

} // namespace

// ---------------------------------------------------------------------
// Kernel scheduler mechanics (stub components).
// ---------------------------------------------------------------------

TEST(IdleElision, ComponentReportingNeverParksAfterOneTick)
{
    Kernel k;
    Sleeper s; // wake = kNeverCycle
    k.addTicking(&s);
    EXPECT_EQ(k.activeCount(), 1u);
    runAudited(k, 5);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0})); // ticked once, parked
    EXPECT_TRUE(s.asleep());
    EXPECT_EQ(k.activeCount(), 0u);
    EXPECT_EQ(k.tickingCount(), 1u);
}

TEST(IdleElision, TimedWakeLandsOnTheExactCycle)
{
    Kernel k;
    Sleeper s;
    s.wake = 7; // park until cycle 7 after the first tick
    k.addTicking(&s);
    runAudited(k, 8);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 7}));
}

TEST(IdleElision, SelfReArmingComponentTicksPeriodically)
{
    Kernel k;
    struct Periodic : Ticking
    {
        std::vector<Cycle> ticks;
        void tick(Cycle now) override { ticks.push_back(now); }
        Cycle nextWakeCycle(Cycle now) override { return now + 5; }
    } p;
    k.addTicking(&p);
    runAudited(k, 16);
    EXPECT_EQ(p.ticks, (std::vector<Cycle>{0, 5, 10, 15}));
}

TEST(IdleElision, WakeAtPullsASleeperInEarlier)
{
    Kernel k;
    Sleeper s; // parks indefinitely after cycle 0
    k.addTicking(&s);
    runAudited(k, 2);
    ASSERT_TRUE(s.asleep());
    s.wakeAt(4);
    runAudited(k, 4); // through cycle 5
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 4}));
    EXPECT_TRUE(s.asleep()); // re-parked after the woken tick
}

TEST(IdleElision, EarlierWakeOverridesLaterPendingWake)
{
    Kernel k;
    Sleeper s;
    s.wake = 50;
    k.addTicking(&s);
    runAudited(k, 1); // tick at 0, park until 50
    s.wakeAt(3);
    runAudited(k, 9);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 3}));
}

TEST(IdleElision, LaterWakeAtDoesNotDelayPendingWake)
{
    Kernel k;
    Sleeper s;
    s.wake = 5;
    k.addTicking(&s);
    runAudited(k, 1);
    s.wakeAt(30); // hint later than the armed wake: must not postpone
    runAudited(k, 7);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 5}));
}

TEST(IdleElision, WakeAtIsANoOpWhileActive)
{
    Kernel k;
    struct Active : Ticking
    {
        std::vector<Cycle> ticks;
        void tick(Cycle now) override { ticks.push_back(now); }
        // default nextWakeCycle: stays active every cycle
    } a;
    k.addTicking(&a);
    runAudited(k, 1);
    a.wakeAt(100); // must not park or reschedule an active component
    runAudited(k, 3);
    EXPECT_EQ(a.ticks, (std::vector<Cycle>{0, 1, 2, 3}));
}

TEST(IdleElision, MidPassWakeOfLaterComponentLandsSameCycle)
{
    // A (order 0) hands work to sleeping B (order 1) during its tick.
    // B is behind the pass cursor, so it can still run this cycle --
    // exactly what an always-awake B would have observed.
    Kernel k;
    struct Waker : Ticking
    {
        Ticking *target = nullptr;
        Cycle fireAt = kNeverCycle;
        void tick(Cycle now) override
        {
            if (now == fireAt)
                target->wakeAt(now);
        }
    } a;
    Sleeper b;
    k.addTicking(&a);
    k.addTicking(&b);
    runAudited(k, 2); // b parks after cycle 0
    ASSERT_TRUE(b.asleep());
    a.fireAt = 3;
    a.target = &b;
    runAudited(k, 3); // through cycle 4
    EXPECT_EQ(b.ticks, (std::vector<Cycle>{0, 3}));
}

TEST(IdleElision, MidPassWakeOfEarlierComponentDefersOneCycle)
{
    // B (order 1) wakes sleeping A (order 0) with at=now. The pass
    // cursor already passed A's slot, so A runs at now+1 -- the first
    // cycle an always-awake A would have seen the interaction too
    // (time-tagged handoffs are never consumed the cycle they are
    // produced against tick order).
    Kernel k;
    Sleeper a;
    struct Waker : Ticking
    {
        Ticking *target = nullptr;
        Cycle fireAt = kNeverCycle;
        void tick(Cycle now) override
        {
            if (now == fireAt)
                target->wakeAt(now);
        }
    } b;
    k.addTicking(&a);
    k.addTicking(&b);
    runAudited(k, 2); // a parks after cycle 0
    ASSERT_TRUE(a.asleep());
    b.fireAt = 3;
    b.target = &a;
    runAudited(k, 3); // through cycle 4
    EXPECT_EQ(a.ticks, (std::vector<Cycle>{0, 4}));
}

TEST(IdleElision, ReAdmittedComponentKeepsRegistrationOrder)
{
    Kernel k;
    std::vector<int> log;
    struct Always : Ticking
    {
        std::vector<int> *log = nullptr;
        int id = 0;
        void tick(Cycle) override { log->push_back(id); }
    };
    Always first, last;
    first.log = &log;
    first.id = 1;
    last.log = &log;
    last.id = 3;
    Sleeper middle;
    middle.log = &log;
    middle.id = 2;
    k.addTicking(&first);
    k.addTicking(&middle);
    k.addTicking(&last);
    runAudited(k, 2); // cycle 0: 1,2,3; cycle 1: 1,3 (middle parked)
    ASSERT_TRUE(middle.asleep());
    middle.wakeAt(2);
    log.clear();
    runAudited(k, 1); // cycle 2: middle must tick between first and last
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(IdleElision, DisablingElisionReAdmitsEverything)
{
    Kernel k;
    Sleeper s;
    k.addTicking(&s);
    runAudited(k, 3);
    ASSERT_TRUE(s.asleep());
    k.setIdleElision(false);
    EXPECT_FALSE(s.asleep());
    EXPECT_EQ(k.activeCount(), 1u);
    runAudited(k, 3);
    // Ticks every cycle now, nextWakeCycle answers ignored.
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 3, 4, 5}));
}

TEST(IdleElision, ElisionOffNeverSleeps)
{
    Kernel k;
    k.setIdleElision(false);
    Sleeper s; // reports kNeverCycle, but elision is off
    k.addTicking(&s);
    runAudited(k, 4);
    EXPECT_FALSE(s.asleep());
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 1, 2, 3}));
}

TEST(IdleElision, MidPassWakesAcrossBitmapWordsTickInOrder)
{
    // 150 sleepers span three 64-bit words of the active bitmap. At
    // cycle 3 a waker early in tick order pulls in one sleeper later in
    // its own word and one in each later word (all tick this cycle, in
    // tick order); the sleeper it wakes from before its own slot ticks
    // next cycle.
    Kernel k;
    std::vector<int> log;
    struct Waker : Ticking
    {
        std::vector<Sleeper> *sleepers = nullptr;
        void tick(Cycle now) override
        {
            if (now != 3)
                return;
            for (int i : {130, 70, 40, 2})
                (*sleepers)[static_cast<std::size_t>(i)].wakeAt(now);
        }
        Cycle nextWakeCycle(Cycle now) override
        {
            return now < 3 ? 3 : kNeverCycle;
        }
    } waker;
    std::vector<Sleeper> sleepers(150);
    waker.sleepers = &sleepers;
    for (int i = 0; i < 150; i++) {
        auto &s = sleepers[static_cast<std::size_t>(i)];
        s.id = i;
        s.log = &log;
        if (i == 5)
            k.addTicking(&waker); // slot 5: between sleepers 4 and 5
        k.addTicking(&s);
    }
    runAudited(k, 3); // cycle 0 ticks everyone once; all park
    log.clear();
    runAudited(k, 1); // cycle 3
    EXPECT_EQ(log, (std::vector<int>{40, 70, 130}));
    log.clear();
    runAudited(k, 1); // cycle 4
    EXPECT_EQ(log, (std::vector<int>{2}));
    EXPECT_EQ(k.activeCount(), 0u);
}

TEST(IdleElision, ShardDomainsKeepTheirOwnBitmaps)
{
    // Moving components between domains renumbers each domain's slots
    // in tick order; the audit holds before and after stepping.
    Kernel k;
    std::vector<Sleeper> sleepers(100);
    for (auto &s : sleepers)
        k.addTicking(&s);
    k.configureSharding(2);
    for (int i = 0; i < 100; i++)
        k.setDomain(&sleepers[static_cast<std::size_t>(i)],
                    i % 3 == 0 ? 0 : 1 + i % 2);
    k.auditActive();
    EXPECT_EQ(k.activeCount(), 100u);
    sleepers[10].wake = 6;
    sleepers[99].wake = 6;
    runAudited(k, 8);
    EXPECT_EQ(sleepers[10].ticks, (std::vector<Cycle>{0, 6}));
    EXPECT_EQ(sleepers[99].ticks, (std::vector<Cycle>{0, 6}));
    EXPECT_EQ(sleepers[11].ticks, (std::vector<Cycle>{0}));
    EXPECT_EQ(k.activeCount(), 0u);
}

// ---------------------------------------------------------------------
// Real-system quiescence and wake edges.
// ---------------------------------------------------------------------

TEST(IdleElisionSystem, IdleSystemFullyQuiesces)
{
    PoeSystem sys(smallConfig());
    EXPECT_GT(sys.kernel().tickingCount(), 0u);
    runAudited(sys, 2000);
    // No traffic: the pump, every router, and every node park.
    EXPECT_EQ(sys.kernel().activeCount(), 0u);
    EXPECT_EQ(sys.now(), 2000u);
}

TEST(IdleElisionSystem, InjectionWakesPathDeliversAndReParks)
{
    SystemConfig cfg = smallConfig();
    PoeSystem sys(cfg);
    runAudited(sys, 2000);
    ASSERT_EQ(sys.kernel().activeCount(), 0u);
    std::uint64_t ejected = sys.network().packetsEjected();
    // Hand a packet directly to a sleeping node: the enqueue wake edge
    // must rouse it, the flit handoffs must rouse each router on the
    // route, and the whole path must go back to sleep after delivery.
    sys.network().injectPacket(0, 7, 4, sys.now());
    EXPECT_GT(sys.kernel().activeCount(), 0u);
    runAudited(sys, 2000);
    EXPECT_EQ(sys.network().packetsEjected(), ejected + 1);
    EXPECT_EQ(sys.kernel().activeCount(), 0u);
}

TEST(IdleElisionSystem, TrafficKeepsPumpAwakeAndQuiescesAfterDetach)
{
    SystemConfig cfg = smallConfig();
    PoeSystem sys(cfg);
    sys.setTraffic(uniform(0.3, cfg));
    runAudited(sys, 1000);
    // The pump draws RNG every cycle while a source is attached.
    EXPECT_GT(sys.kernel().activeCount(), 0u);
    EXPECT_GT(sys.network().packetsInjected(), 0u);
    sys.setTraffic(nullptr);
    runAudited(sys, 3000); // in-flight packets drain, then everything parks
    EXPECT_EQ(sys.kernel().activeCount(), 0u);
    EXPECT_EQ(sys.network().flitsInSystem(), 0u);
}

// ---------------------------------------------------------------------
// Randomized soak: elision on vs off must be indistinguishable.
// ---------------------------------------------------------------------

namespace {

struct SoakResult
{
    std::string trace; ///< full JSONL stream, byte-for-byte
    RunMetrics metrics;
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
};

SoakResult
soakRun(SystemConfig cfg, bool elision, double rate, std::uint64_t seed)
{
    cfg.idleElision = elision;
    SoakResult r;
    std::ostringstream os;
    JsonlTraceSink sink(os);
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, 500);
    sys.setTraffic(uniform(rate, cfg, seed));
    runAudited(sys, 1000);
    sys.startMeasurement();
    runAudited(sys, 2000);
    sys.stopMeasurement();
    sys.awaitDrain(8000);
    sys.kernel().auditActive();
    r.metrics = sys.metrics();
    sys.setTraceSink(nullptr);
    r.trace = os.str();
    r.injected = sys.network().packetsInjected();
    r.ejected = sys.network().packetsEjected();
    return r;
}

void
expectIdentical(const SoakResult &on, const SoakResult &off)
{
    // Byte-identical trace stream: same events, same order, same
    // emission positions (the lazy link-walk property).
    EXPECT_EQ(on.trace, off.trace);
    EXPECT_GT(on.trace.size(), 0u);
    EXPECT_EQ(on.injected, off.injected);
    EXPECT_EQ(on.ejected, off.ejected);
    EXPECT_EQ(on.metrics.avgLatency, off.metrics.avgLatency);
    EXPECT_EQ(on.metrics.packetsMeasured, off.metrics.packetsMeasured);
    EXPECT_EQ(on.metrics.avgPowerMw, off.metrics.avgPowerMw);
    EXPECT_EQ(on.metrics.transitions, off.metrics.transitions);
    EXPECT_EQ(on.metrics.flitsCorrupted, off.metrics.flitsCorrupted);
}

} // namespace

TEST(IdleElisionSoak, UniformTrafficHistoriesIdentical)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (double rate : {0.2, 1.0}) {
            SoakResult on = soakRun(smallConfig(), true, rate, seed);
            SoakResult off = soakRun(smallConfig(), false, rate, seed);
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " rate=" + std::to_string(rate));
            expectIdentical(on, off);
        }
    }
}

TEST(IdleElisionSoak, FaultedRunHistoriesIdentical)
{
    // Faults exercise the receiver-side wake edges: lock-loss outages,
    // scripted hard failure, and transition-completion walks on links
    // whose receivers may be asleep.
    SystemConfig cfg = smallConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 9;
    cfg.fault.berFloor = 1e-5;
    cfg.fault.lockLossPerCycle = 2e-4;
    cfg.fault.killLink = 3;
    cfg.fault.killCycle = 1500;
    for (std::uint64_t seed : {5u, 6u}) {
        SoakResult on = soakRun(cfg, true, 0.5, seed);
        SoakResult off = soakRun(cfg, false, 0.5, seed);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        expectIdentical(on, off);
        EXPECT_GT(on.metrics.flitsCorrupted +
                      static_cast<std::uint64_t>(
                          on.metrics.linkHardFailures),
                  0u); // the fault machinery actually ran
    }
}

TEST(IdleElisionSoak, OnOffPolicyHistoriesIdentical)
{
    // The on/off policy power-gates links (wake transitions), the
    // other wake-edge family the DVS default doesn't exercise.
    SystemConfig cfg = smallConfig();
    cfg.policyMode = PolicyMode::kOnOff;
    SoakResult on = soakRun(cfg, true, 0.4, 11);
    SoakResult off = soakRun(cfg, false, 0.4, 11);
    expectIdentical(on, off);
}

TEST(IdleElisionSoak, FaultedOnOffHistoriesIdentical)
{
    // Power gating under faults: a link may be gated off with a corrupt
    // copy in flight, which then waits for the wake to replay. The
    // receiver's wake for that replay must land where an every-cycle
    // poller would replay it.
    SystemConfig cfg = smallConfig();
    cfg.policyMode = PolicyMode::kOnOff;
    cfg.fault.enabled = true;
    cfg.fault.seed = 4;
    cfg.fault.berFloor = 2e-3;
    cfg.fault.lockLossPerCycle = 1e-4;
    for (std::uint64_t seed : {3u, 8u}) {
        SoakResult on = soakRun(cfg, true, 0.3, seed);
        SoakResult off = soakRun(cfg, false, 0.3, seed);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        expectIdentical(on, off);
        EXPECT_GT(on.metrics.flitRetries, 0u);
    }
}
