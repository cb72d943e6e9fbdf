/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * the RNG, the arbiter, link accept/pop, router tick (idle and
 * loaded), and a full-system cycle at the paper's 64-rack scale.
 * These guard the simulator's own performance, which bounds how much
 * of the paper's design space the figure benches can sweep.
 *
 * Regression workflow: run with
 *     bench_sim_microbench --benchmark_format=json \
 *         --benchmark_out=BENCH_sim_microbench.json
 * and compare against the committed baseline at the repo root with
 *     python3 bench/perf_compare.py BENCH_sim_microbench.json NEW.json
 * The BM_SystemCycleIdle / BM_SystemCycleIdleNoElision pair measures
 * the idle-elision win within a single run (machine-independent);
 * perf_compare.py --expect-ratio asserts it stays >= 3x. The
 * BM_PowerAccountingDirect / BM_PowerAccountingLedger pair does the
 * same for the SoA power ledger (>= 1.3x with leakage + thermal on),
 * and BM_LoadedRouterTick / BM_SparseRouterTick for the router's work
 * masks (>= 2.7x: a mostly idle 12-port router costs what its busy
 * ports cost, not what its radix costs). BM_SmallSystemCycleFaultFree /
 * BM_SmallSystemCycleFaulted prices the fault layer on a loaded system;
 * its gate is a floor below 1 (the faulted twin is the slower one),
 * checked on 8 randomly interleaved repetitions of the pair.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "sim/kernel.hh"
#include "core/poe_system.hh"
#include "network/boundary.hh"
#include "network/power_report.hh"
#include "router/router.hh"

using namespace oenet;

namespace {

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngPoisson(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.poisson(2.0));
}
BENCHMARK(BM_RngPoisson);

void
BM_ArbiterPick(benchmark::State &state)
{
    RoundRobinArbiter arb(12);
    std::uint64_t req = 0b101001011011;
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.pick(req));
}
BENCHMARK(BM_ArbiterPick);

void
BM_LinkAcceptPop(benchmark::State &state)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink link("b", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{});
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    Cycle t = 0;
    for (auto _ : state) {
        if (link.canAccept(t))
            link.accept(t, f);
        while (link.hasArrival(t))
            benchmark::DoNotOptimize(link.popArrival(t));
        t++;
    }
}
BENCHMARK(BM_LinkAcceptPop);

void
BM_SystemCycleIdle(benchmark::State &state)
{
    SystemConfig cfg; // full 64-rack system, idle elision on (default)
    PoeSystem sys(cfg);
    sys.run(5000); // let the policy settle
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SystemCycleIdle)->Unit(benchmark::kMicrosecond);

void
BM_SystemCycleIdleNoElision(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.idleElision = false; // tick all 64 routers + 512 nodes anyway
    PoeSystem sys(cfg);
    sys.run(5000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SystemCycleIdleNoElision)->Unit(benchmark::kMicrosecond);

void
BM_SystemCycleLoaded(benchmark::State &state)
{
    SystemConfig cfg;
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(2.0, 4, 3), cfg));
    sys.run(5000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SystemCycleLoaded)->Unit(benchmark::kMicrosecond);

void
BM_SmallSystemCycleLoaded(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.meshX = 2;
    cfg.meshY = 2;
    cfg.clusterSize = 2;
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(0.3, 4, 3), cfg));
    sys.run(2000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SmallSystemCycleLoaded)->Unit(benchmark::kMicrosecond);

// A loaded 4x4x2 west-first system with and without the fault layer
// (BER floor 1e-4: CRC retransmits, no kill). Every fault-attached
// link is polled by its receiver each cycle, so the pair prices that
// poll: between fault events a fault-attached link should cost what a
// fault-free one costs. Each iteration times the same fixed window of
// a fresh system (a loaded system's per-cycle cost drifts with the
// window, so an open-ended run would time whatever window the
// adaptive iteration count happened to reach).
void
runFaultTwin(benchmark::State &state, bool faults)
{
    constexpr Cycle kWarmup = 2000;
    constexpr Cycle kWindow = 5000;
    SystemConfig cfg;
    cfg.meshX = 4;
    cfg.meshY = 4;
    cfg.clusterSize = 2;
    cfg.routing = RoutingAlgo::kWestFirst;
    cfg.fault.enabled = faults;
    cfg.fault.berFloor = 1e-4;
    for (auto _ : state) {
        state.PauseTiming();
        auto sys = std::make_unique<PoeSystem>(cfg);
        sys->setTraffic(
            makeTraffic(TrafficSpec::uniform(0.8, 4, 3), cfg));
        sys->run(kWarmup);
        state.ResumeTiming();
        sys->run(kWindow);
        state.PauseTiming();
        sys.reset();
        state.ResumeTiming();
    }
}

void
BM_SmallSystemCycleFaultFree(benchmark::State &state)
{
    runFaultTwin(state, false);
}
BENCHMARK(BM_SmallSystemCycleFaultFree)->Unit(benchmark::kMillisecond);

void
BM_SmallSystemCycleFaulted(benchmark::State &state)
{
    runFaultTwin(state, true);
}
BENCHMARK(BM_SmallSystemCycleFaulted)->Unit(benchmark::kMillisecond);

// A hand-wired router held at saturation: four direction inputs feed
// endless 4-flit packets with rotating destinations while the harness
// plays upstream (respects credits) and downstream (returns credits).
// Every tick runs the full allocator walk — SA nomination masks, VA
// request collection, switch traversal — over the SoA hot state, which
// is exactly the loaded path the fig7 benches spend their time in.
void
BM_LoadedRouterTick(benchmark::State &state)
{
    constexpr int kCluster = 2;
    constexpr int kVcDepth = 8; // 16 deep / 2 VCs
    MeshTopology mesh(2, 2, kCluster);
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    Router::Params rp;
    rp.numVcs = 2;
    rp.bufferDepthPerPort = 16;
    Router router("r0", 0, mesh, rp);

    struct Probe final : CreditSink
    {
        int returned[8][2] = {};
        void returnCredit(int port, int vc, Cycle) override
        {
            returned[port][vc]++;
        }
    } probe;

    int ports = mesh.portsPerRouter();
    OpticalLink::Params lp;
    std::vector<std::unique_ptr<OpticalLink>> ins, outs;
    for (int p = 0; p < ports; p++) {
        ins.push_back(std::make_unique<OpticalLink>(
            "in" + std::to_string(p), LinkKind::kInterRouter, levels,
            lp));
        outs.push_back(std::make_unique<OpticalLink>(
            "out" + std::to_string(p), LinkKind::kInterRouter, levels,
            lp));
        router.connectInput(p, ins[p].get(), &probe, p);
        router.connectOutput(p, outs[p].get(), kVcDepth);
    }

    // Per direction port: a looping stream of flitized packets, VCs
    // alternating per packet, destinations rotating over all 8 nodes.
    struct Feeder
    {
        std::vector<Flit> flits;
        std::size_t next = 0;
        int sent[2] = {};
    };
    std::vector<Feeder> feeders(static_cast<std::size_t>(ports));
    PacketId id = 1;
    std::vector<Flit> pkt;
    for (int p = kCluster; p < ports; p++) {
        for (int i = 0; i < 16; i++) {
            pkt.clear();
            flitizePacket(pkt, id, 0,
                          static_cast<NodeId>(id * 3 % 8), 4, 0);
            for (Flit &f : pkt) {
                f.vc = static_cast<std::uint8_t>(i & 1);
                feeders[static_cast<std::size_t>(p)].flits.push_back(f);
            }
            id++;
        }
    }

    Cycle t = 0;
    for (auto _ : state) {
        router.tick(t);
        for (int p = kCluster; p < ports; p++) {
            Feeder &fd = feeders[static_cast<std::size_t>(p)];
            const Flit &f = fd.flits[fd.next];
            int vc = f.vc;
            if (ins[static_cast<std::size_t>(p)]->canAccept(t) &&
                fd.sent[vc] - probe.returned[p][vc] < kVcDepth) {
                ins[static_cast<std::size_t>(p)]->accept(t, f);
                fd.sent[vc]++;
                fd.next = (fd.next + 1) % fd.flits.size();
            }
        }
        for (int q = 0; q < ports; q++) {
            auto &out = outs[static_cast<std::size_t>(q)];
            while (out->hasArrival(t)) {
                Flit f = out->popArrival(t);
                router.returnCredit(q, f.vc, t);
            }
        }
        t++;
    }
}
BENCHMARK(BM_LoadedRouterTick);

// The fig7 router shape: 12 ports (8 injection + 4 direction, cluster
// 8) of which only two direction inputs carry traffic. One stream
// flows freely; the other feeds an output whose downstream returns a
// credit only every 8th cycle, so its wormhole sits buffered and bids
// for the switch on cycles it cannot win. The 8 injection inputs are
// wired but idle. Per-tick cost here should track the two busy ports,
// not the radix: CI asserts BM_LoadedRouterTick (four busy ports on a
// 6-port router) stays a fixed multiple of this one.
void
BM_SparseRouterTick(benchmark::State &state)
{
    constexpr int kCluster = 8;
    constexpr int kVcDepth = 8; // 16 deep / 2 VCs
    constexpr Cycle kStarvedPeriod = 8;
    MeshTopology mesh(3, 3, kCluster);
    BitrateLevelTable levels = BitrateLevelTable::linear(3.3, 10.0, 6);
    Router::Params rp;
    rp.numVcs = 2;
    rp.bufferDepthPerPort = 16;
    int center = mesh.routerAt(1, 1);
    Router router("r0", center, mesh, rp);

    struct Probe final : CreditSink
    {
        int returned[12][2] = {};
        void returnCredit(int port, int vc, Cycle) override
        {
            returned[port][vc]++;
        }
    } probe;

    int ports = mesh.portsPerRouter();
    // Links sit at the lowest level of a 3.3-10 Gb/s DVS table (a
    // third of a flit per cycle), where power-aware links idle.
    OpticalLink::Params lp;
    lp.initialLevel = 0;
    std::vector<std::unique_ptr<OpticalLink>> ins, outs;
    for (int p = 0; p < ports; p++) {
        ins.push_back(std::make_unique<OpticalLink>(
            "in" + std::to_string(p), LinkKind::kInterRouter, levels,
            lp));
        outs.push_back(std::make_unique<OpticalLink>(
            "out" + std::to_string(p), LinkKind::kInterRouter, levels,
            lp));
        router.connectInput(p, ins[p].get(), &probe, p);
        router.connectOutput(p, outs[p].get(), kVcDepth);
    }

    // Two direction inputs, each streaming 48-flit packets (fig7's
    // size) to one neighbor rack: east flows, south is credit-starved.
    const int busy[2] = {kCluster, kCluster + 1};
    const NodeId dst[2] = {mesh.nodeAt(mesh.routerAt(2, 1), 0),
                           mesh.nodeAt(mesh.routerAt(1, 2), 0)};
    RouteOption route[kMaxRouteCandidates];
    mesh.routeCandidates(RoutingAlgo::kXY, center, dst[0], route);
    const int flowing = route[0].port.value();
    mesh.routeCandidates(RoutingAlgo::kXY, center, dst[1], route);
    const int starved = route[0].port.value();
    struct Feeder
    {
        std::vector<Flit> flits;
        std::size_t next = 0;
        int sent[2] = {};
    };
    Feeder feeders[2];
    PacketId id = 1;
    std::vector<Flit> pkt;
    for (int i = 0; i < 2; i++) {
        for (int k = 0; k < 4; k++) {
            pkt.clear();
            flitizePacket(pkt, id++, 0, dst[i], 48, 0);
            for (Flit &f : pkt) {
                f.vc = static_cast<std::uint8_t>(k & 1);
                feeders[i].flits.push_back(f);
            }
        }
    }

    std::vector<int> owed; // starved output's unreturned credits (VCs)
    Cycle t = 0;
    for (auto _ : state) {
        router.tick(t);
        for (int i = 0; i < 2; i++) {
            int p = busy[i];
            Feeder &fd = feeders[i];
            const Flit &f = fd.flits[fd.next];
            int vc = f.vc;
            if (ins[static_cast<std::size_t>(p)]->canAccept(t) &&
                fd.sent[vc] - probe.returned[p][vc] < kVcDepth) {
                ins[static_cast<std::size_t>(p)]->accept(t, f);
                fd.sent[vc]++;
                fd.next = (fd.next + 1) % fd.flits.size();
            }
        }
        // Downstream: only the two routed outputs ever carry flits.
        for (int q : {flowing, starved}) {
            auto &out = outs[static_cast<std::size_t>(q)];
            while (out->hasArrival(t)) {
                Flit f = out->popArrival(t);
                if (q == starved)
                    owed.push_back(f.vc);
                else
                    router.returnCredit(q, f.vc, t);
            }
        }
        if (t % kStarvedPeriod == 0 && !owed.empty()) {
            router.returnCredit(starved, owed.front(), t);
            owed.erase(owed.begin());
        }
        t++;
    }
}
BENCHMARK(BM_SparseRouterTick);

// The boundary-proxy mechanism over a 4-cycle window carrying one
// delivery — roughly a boundary edge's duty cycle in the loaded fig7
// runs. The generic (cross-shard) variant pays the per-cycle edge
// machinery every cycle whether or not anything moved: dirty probe,
// publish flip, delivery-edge probe, ready-drain check, credit drain.
// The direct (same-shard) variant is the zero-copy specialization:
// idle cycles cost nothing because the edge is excluded from the
// per-cycle cross-shard passes entirely; only the delivery itself does
// work. Their ratio is the proxy tax the fast path reclaims, asserted
// machine-independently in CI via perf_compare.py --expect-ratio.
constexpr int kDrainWindow = 4; // cycles per delivery

struct NullCreditSink final : CreditSink
{
    std::uint64_t count = 0;
    void returnCredit(int, int, Cycle) override { count++; }
};

void
BM_BoundaryDrainGeneric(benchmark::State &state)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{});
    NullCreditSink upstream;
    BoundaryChannel chan(&link, &upstream, 0);
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    for (auto _ : state) {
        for (int c = 0; c < kDrainWindow; c++) {
            // Parallel phase, producer side: one delivery per window.
            if (c == 0)
                chan.stageArrival(f);
            // Between phases, driving thread: swap pass probes every
            // cross-shard edge.
            if (chan.dirty())
                chan.swapBuffers();
            // Destination pre-pass: delivery wake probe, every cycle.
            benchmark::DoNotOptimize(chan.takeDeliveryEdge());
            // Parallel phase, consumer side: drain and stage credits.
            while (chan.hasReadyArrival()) {
                const Flit &got = chan.popReadyArrival();
                chan.returnCredit(0, got.vc, 1);
            }
            // Source pre-pass: collect published credits, every cycle.
            chan.drainCredits();
        }
        benchmark::DoNotOptimize(upstream.count);
    }
}
BENCHMARK(BM_BoundaryDrainGeneric);

void
BM_BoundaryDrainDirect(benchmark::State &state)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{});
    NullCreditSink upstream;
    BoundaryChannel chan(&link, &upstream, 0);
    chan.setDirect();
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    for (auto _ : state) {
        // One delivery per window; the other cycles are free (the edge
        // is not in the cross-shard pre/post passes, and the consumer
        // router only ticks when the shuttle wakes it).
        chan.stageArrival(f); // publishes immediately
        while (chan.hasReadyArrival()) {
            const Flit &got = chan.popReadyArrival();
            chan.returnCredit(0, got.vc, 1); // forwards synchronously
        }
        benchmark::DoNotOptimize(upstream.count);
    }
}
BENCHMARK(BM_BoundaryDrainDirect);

// The kernel's own bookkeeping at fig7's shape: ~800 components of
// which ~48 tick in any cycle. In the churn variant a driver (first in
// tick order) wakes a rotating set of 48 sleepers for the current
// cycle, and each ticks once and parks again, so every cycle admits 48
// components mid-pass and parks 48 (the wake edges a flit or credit
// hand-off raises). In the steady variant the same 48 stay awake and
// the rest sleep for good. The ticks are nearly free, so the pair
// prices what the kernel does around them: the churn variant's extra
// cost is admit and park, which CI bounds against the steady pass via
// perf_compare.py --expect-ratio.
constexpr int kKernelSleepers = 800;
constexpr int kKernelAwake = 48;
constexpr int kKernelStride = kKernelSleepers / kKernelAwake; // 16

class KernelProbe final : public Ticking
{
  public:
    explicit KernelProbe(bool stay_awake) : stayAwake_(stay_awake) {}
    void tick(Cycle now) override { last_ = now; }
    Cycle nextWakeCycle(Cycle now) override
    {
        return stayAwake_ ? now + 1 : kNeverCycle;
    }
    Cycle last() const { return last_; }

  private:
    bool stayAwake_;
    Cycle last_ = 0;
};

class KernelDriver final : public Ticking
{
  public:
    std::vector<std::unique_ptr<KernelProbe>> *probes = nullptr;
    void tick(Cycle now) override
    {
        if (probes == nullptr)
            return;
        auto phase = static_cast<std::size_t>(now % kKernelStride);
        for (std::size_t j = 0; j < kKernelAwake; j++)
            (*probes)[j * kKernelStride + phase]->wakeAt(now);
    }
};

void
runKernelShape(benchmark::State &state, bool churn)
{
    Kernel kernel;
    KernelDriver driver;
    kernel.addTicking(&driver);
    std::vector<std::unique_ptr<KernelProbe>> probes;
    for (int i = 0; i < kKernelSleepers; i++) {
        bool awake = !churn && i % kKernelStride == 0;
        probes.push_back(std::make_unique<KernelProbe>(awake));
        kernel.addTicking(probes.back().get());
    }
    if (churn)
        driver.probes = &probes;
    kernel.run(100);
    for (auto _ : state)
        kernel.step();
    benchmark::DoNotOptimize(probes.front()->last());
}

void
BM_KernelWakeChurn(benchmark::State &state)
{
    runKernelShape(state, true);
}
BENCHMARK(BM_KernelWakeChurn);

void
BM_KernelSteady(benchmark::State &state)
{
    runKernelShape(state, false);
}
BENCHMARK(BM_KernelSteady);

// Shared setup for the accounting pair: a 16x16x8 fabric (~5k links,
// the scale where the scattered OpticalLink objects no longer fit in
// cache) with the thermal model on and enough simulated history that
// the link population mixes levels and in-flight transitions.
SystemConfig
accountingConfig()
{
    SystemConfig cfg;
    cfg.meshX = 16;
    cfg.meshY = 16;
    cfg.thermal.enabled = true;
    return cfg;
}

// The epoch accounting pass as the legacy direct walk ran it: every
// OpticalLink advanced through its pointer, TimeWeighted values and
// integrals read one cache-hostile hop at a time.
void
BM_PowerAccountingDirect(benchmark::State &state)
{
    SystemConfig cfg = accountingConfig();
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(2.0, 4, 3), cfg));
    sys.run(3000);
    Network &net = sys.network();
    Cycle now = sys.now();
    for (auto _ : state) {
        benchmark::DoNotOptimize(makePowerReportDirect(net, now));
        benchmark::DoNotOptimize(
            net.totalPowerIntegralMwCyclesDirect(now));
    }
}
BENCHMARK(BM_PowerAccountingDirect)->Unit(benchmark::kMicrosecond);

// The same accounting pass through the LinkPowerLedger's flat columns
// (leakage + thermal enabled, so the ledger path is doing strictly
// more physics: leakage fold, VC energy attribution). CI gates the
// ratio against the direct walk at 1.3x via perf_compare.py
// --expect-ratio, which is machine-independent.
void
BM_PowerAccountingLedger(benchmark::State &state)
{
    SystemConfig cfg = accountingConfig();
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(2.0, 4, 3), cfg));
    sys.run(3000);
    Network &net = sys.network();
    Cycle now = sys.now();
    for (auto _ : state) {
        benchmark::DoNotOptimize(makePowerReport(net, now));
        benchmark::DoNotOptimize(net.totalPowerIntegralMwCycles(now));
    }
}
BENCHMARK(BM_PowerAccountingLedger)->Unit(benchmark::kMicrosecond);

} // namespace

#ifndef OENET_BUILD_TYPE
#define OENET_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    // Stamp the simulator's own build type into the JSON context so
    // perf_compare.py can refuse baselines recorded from Debug builds
    // (the library_build_type field only describes libbenchmark).
    benchmark::AddCustomContext("oenet_build_type", OENET_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
