/**
 * @file
 * oenet_perfbench: the benchmark binary. It runs one named workload
 * through the simulator's public API (PoeSystem, SweepRunner,
 * TrafficSpec, generateSplashTrace) for a wall-clock budget and prints
 * one JSON report line. perfbench/run.py builds it, checks the
 * simulated outputs and prints the result.
 *
 * A workload is a fixed list of sweep points; one execution of that
 * list is a unit. The program repeats units while the next one, at the
 * median length of those before it, still fits in the budget, so a run
 * takes about the budget and no more (an untraced run makes at least
 * three units).
 *
 *  - Untraced units (--trace 0) time the unit, its set-up, and every
 *    1000-cycle chunk of PoeSystem::run.
 *  - Traced units (--trace 1) time every Kernel::step, sample module
 *    counters once per chunk, and wrap the traffic source and the
 *    packet sink in timing decorators. After each traced unit the
 *    workload's designated point runs once more with the program's
 *    JSONL trace sink attached through a timing decorator.
 *
 * Everything is measured from outside src/: calls into public
 * functions are timed and public counters are read. Every point's full
 * RunMetrics record (plus a timeline's series) is fingerprinted, so
 * run.py can check that repeats, traced units, untraced units and a
 * plain runExperiment/runTimeline call all agree bit for bit.
 *
 * Usage:
 *   oenet_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   oenet_perfbench --selftest
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <streambuf>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/poe_system.hh"
#include "core/sweep_runner.hh"
#include "network/network.hh"
#include "network/node.hh"
#include "policy/controller.hh"
#include "router/router.hh"
#include "trace/trace_sinks.hh"

#ifndef OENET_BUILD_TYPE
#define OENET_BUILD_TYPE "unknown"
#endif

using namespace oenet;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Cycles per timed chunk of PoeSystem::run, and per counter sample. */
constexpr Cycle kChunk = 1000;

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** A percentile as reported: its value, the fraction actually used and
 *  the sample count. */
struct Percentile
{
    double value = 0.0;
    double fraction = 0.0;
    std::size_t samples = 0;
};

/**
 * The highest percentile at or below @p want that keeps at least ten
 * samples beyond it (nearest rank), never below the median. With fewer
 * than 1000 samples a p99 is therefore reported as a lower percentile,
 * and Percentile::fraction says which.
 */
Percentile
tailPercentile(std::vector<double> v, double want)
{
    Percentile p;
    p.samples = v.size();
    if (v.empty())
        return p;
    const double n = static_cast<double>(v.size());
    p.fraction = std::max(0.5, std::min(want, 1.0 - 10.0 / n));
    std::size_t rank = static_cast<std::size_t>(std::ceil(p.fraction * n));
    std::size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    p.value = v[idx];
    return p;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

/** Every RunMetrics field as name=value; doubles as %.17g, so two
 *  records serialize equal exactly when they are bit-identical. */
std::string
metricsRecord(const RunMetrics &m)
{
    std::string s;
    char buf[64];
    forEachRunMetricsField(m, [&](const char *name, const auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            std::snprintf(buf, sizeof(buf), "%d", v ? 1 : 0);
        else if constexpr (std::is_floating_point_v<T>)
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        else if constexpr (std::is_signed_v<T>)
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(v));
        else
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(v));
        s += name;
        s += '=';
        s += buf;
        s += ';';
    });
    return s;
}

std::string
timelineRecord(const TimelineResult &r)
{
    std::string s = metricsRecord(r.metrics);
    char buf[40];
    for (const auto *series :
         {&r.offeredRate, &r.normalizedPower, &r.avgLatency}) {
        s += '|';
        for (double v : *series) {
            std::snprintf(buf, sizeof(buf), "%.17g,", v);
            s += buf;
        }
    }
    return s;
}

/** FNV-1a 64 of @p record, as 16 hex digits. */
std::string
fingerprint(const std::string &record)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : record) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// Per-layer probe (traced units only)
// ---------------------------------------------------------------------

/** Everything a traced point measures; merged across points and units. */
struct LayerProbe
{
    // sim: individually timed steps.
    std::vector<double> plainStepNs; ///< steps with no policy window
    double plainNs = 0.0;
    double plainActive = 0.0; ///< sum of activeCount() on plain steps
    double windowNs = 0.0;    ///< policy window-boundary steps
    std::uint64_t windowSteps = 0;
    double activeSum = 0.0; ///< activeCount() before every timed step
    std::uint64_t steps = 0;

    // Sampled once per chunk.
    double routerAwake = 0.0;
    double nodeAwake = 0.0;
    double bufferedFlits = 0.0;
    double flitsInSystem = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t flitsEjected = 0; ///< over the timed chunks

    // Timed calls.
    double scanNs = 0.0;
    std::uint64_t scans = 0;
    double metricsNs = 0.0;
    std::uint64_t metricsCalls = 0;
    double arrivalsNs = 0.0;
    std::uint64_t arrivalsCalls = 0;
    double ejectNs = 0.0;
    std::uint64_t ejectCalls = 0;
    double traceGenNs = 0.0;
    double constructNs = 0.0;
    std::uint64_t constructs = 0;
    double drainNs = 0.0;
    std::uint64_t drains = 0;

    // Policy / link / fault counters.
    double controllers = 0.0; ///< summed over power-aware points
    std::uint64_t paPoints = 0;
    std::uint64_t decisions = 0;
    std::uint64_t transitions = 0;
    double measuredKcycles = 0.0;
    std::vector<double> faultStepNs; ///< plain steps of faulted points
    std::uint64_t retries = 0;
    std::uint64_t corrupted = 0;

    // Trace-sink decorator.
    std::uint64_t traceEvents = 0;
    double traceNs = 0.0;
    std::uint64_t traceBytes = 0;

    /** Sum of the disjoint spans timed directly by this program. */
    double spanNs() const
    {
        return plainNs + windowNs + scanNs + metricsNs + traceGenNs +
               constructNs + drainNs;
    }

    void merge(const LayerProbe &o)
    {
        plainStepNs.insert(plainStepNs.end(), o.plainStepNs.begin(),
                           o.plainStepNs.end());
        faultStepNs.insert(faultStepNs.end(), o.faultStepNs.begin(),
                           o.faultStepNs.end());
        plainNs += o.plainNs;
        plainActive += o.plainActive;
        windowNs += o.windowNs;
        windowSteps += o.windowSteps;
        activeSum += o.activeSum;
        steps += o.steps;
        routerAwake += o.routerAwake;
        nodeAwake += o.nodeAwake;
        bufferedFlits += o.bufferedFlits;
        flitsInSystem += o.flitsInSystem;
        samples += o.samples;
        flitsEjected += o.flitsEjected;
        scanNs += o.scanNs;
        scans += o.scans;
        metricsNs += o.metricsNs;
        metricsCalls += o.metricsCalls;
        arrivalsNs += o.arrivalsNs;
        arrivalsCalls += o.arrivalsCalls;
        ejectNs += o.ejectNs;
        ejectCalls += o.ejectCalls;
        traceGenNs += o.traceGenNs;
        constructNs += o.constructNs;
        constructs += o.constructs;
        drainNs += o.drainNs;
        drains += o.drains;
        controllers += o.controllers;
        paPoints += o.paPoints;
        decisions += o.decisions;
        transitions += o.transitions;
        measuredKcycles += o.measuredKcycles;
        retries += o.retries;
        corrupted += o.corrupted;
        traceEvents += o.traceEvents;
        traceNs += o.traceNs;
        traceBytes += o.traceBytes;
    }
};

/** Forwards every TrafficSource call; times arrivals(). The pump calls
 *  it from the driving thread only. */
class TimedTraffic final : public TrafficSource
{
  public:
    TimedTraffic(std::unique_ptr<TrafficSource> inner, LayerProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    void arrivals(Cycle now, std::vector<PacketDesc> &out) override
    {
        auto t0 = Clock::now();
        inner_->arrivals(now, out);
        probe_.arrivalsNs += nsSince(t0);
        probe_.arrivalsCalls++;
    }

    bool exhausted(Cycle now) const override
    {
        return inner_->exhausted(now);
    }

    double offeredRate(Cycle now) const override
    {
        return inner_->offeredRate(now);
    }

  private:
    std::unique_ptr<TrafficSource> inner_;
    LayerProbe &probe_;
};

/** Forwarding PacketSink installed with Network::setPacketSink. Nodes
 *  eject from shard threads during a parallel pass, hence atomics. */
class TimedPacketSink final : public PacketSink
{
  public:
    void setTarget(PacketSink *target) { target_ = target; }

    void packetEjected(const Flit &tail, Cycle now) override
    {
        auto t0 = Clock::now();
        target_->packetEjected(tail, now);
        ns_.fetch_add(static_cast<std::uint64_t>(nsSince(t0)),
                      std::memory_order_relaxed);
        calls_.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t ns() const { return ns_.load(); }
    std::uint64_t calls() const { return calls_.load(); }

  private:
    PacketSink *target_ = nullptr;
    std::atomic<std::uint64_t> ns_{0};
    std::atomic<std::uint64_t> calls_{0};
};

/** A stream buffer that counts the bytes written and keeps none. */
class CountingBuf final : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int overflow(int c) override
    {
        if (c != traits_type::eof())
            bytes_++;
        return traits_type::not_eof(c);
    }

    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    std::uint64_t bytes_ = 0;
};

/** Times every handler of the wrapped sink. */
class TimedTraceSink final : public TraceSink
{
  public:
    explicit TimedTraceSink(TraceSink &inner) : inner_(inner) {}

    void beginRun(const std::vector<TraceLinkInfo> &links) override
    {
        timed([&] { inner_.beginRun(links); });
    }
    void linkTransition(const LinkTransitionEvent &e) override
    {
        timed([&] { inner_.linkTransition(e); });
    }
    void dvsDecision(const DvsDecisionEvent &e) override
    {
        timed([&] { inner_.dvsDecision(e); });
    }
    void laserEvent(const LaserTraceEvent &e) override
    {
        timed([&] { inner_.laserEvent(e); });
    }
    void packetRetire(const PacketRetireEvent &e) override
    {
        timed([&] { inner_.packetRetire(e); });
    }
    void faultEvent(const FaultEvent &e) override
    {
        timed([&] { inner_.faultEvent(e); });
    }
    void powerSnapshot(const PowerSnapshotEvent &e) override
    {
        timed([&] { inner_.powerSnapshot(e); });
    }
    void endRun(Cycle at) override
    {
        timed([&] { inner_.endRun(at); });
    }

    std::uint64_t events() const { return events_; }
    double ns() const { return ns_; }

  private:
    template <typename F>
    void timed(F &&f)
    {
        auto t0 = Clock::now();
        f();
        ns_ += nsSince(t0);
        events_++;
    }

    TraceSink &inner_;
    std::uint64_t events_ = 0;
    double ns_ = 0.0;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One sweep point plus what this program needs to run it. */
struct PlannedPoint
{
    SweepPoint point;
    bool timeline = false; ///< runTimeline protocol instead of runExperiment
    Cycle total = 0;       ///< timeline length
    Cycle bin = 0;         ///< timeline bin
    /** A hard link kill: the packets whose only west-first route crosses
     *  the dead link are dropped, so the run must not drain. */
    bool expectLoss = false;
};

/** A workload's points for one unit. The traces the points replay live
 *  here (TrafficSpec keeps a pointer). */
struct UnitInputs
{
    std::vector<TraceData> traces;
    std::vector<PlannedPoint> points;
    double traceGenS = 0.0; ///< host time in generateSplashTrace
};

/** fig7: FFT/LU/Radix synthetic SPLASH-2 traces (48-flit mean) replayed
 *  on the paper's 8x8x8 mesh with DVS modulator links. */
void
splashInputs(std::uint64_t seed, UnitInputs &in)
{
    constexpr Cycle kDuration = 60000;
    constexpr Cycle kBin = 5000;
    const SplashKind kinds[] = {SplashKind::kFft, SplashKind::kLu,
                                SplashKind::kRadix};
    SystemConfig base;
    in.traces.reserve(std::size(kinds));
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < std::size(kinds); k++) {
        SplashSynthParams sp;
        sp.kind = kinds[k];
        sp.numNodes = base.numNodes();
        sp.duration = kDuration;
        sp.rateScale = 0.25;
        sp.seed = deriveStreamSeed(seed, k);
        in.traces.push_back(generateSplashTrace(sp));
    }
    in.traceGenS = secondsSince(t0);
    for (std::size_t k = 0; k < std::size(kinds); k++) {
        PlannedPoint p;
        p.point.label = splashKindName(kinds[k]);
        p.point.config = base;
        p.point.spec = TrafficSpec::traceReplay(in.traces[k]);
        p.timeline = true;
        p.total = kDuration;
        p.bin = kBin;
        in.points.push_back(std::move(p));
    }
}

SystemConfig
smallMesh(RoutingAlgo routing, bool power_aware)
{
    SystemConfig c;
    c.meshX = 4;
    c.meshY = 4;
    c.clusterSize = 2;
    c.routing = routing;
    c.powerAware = power_aware;
    return c;
}

/** Resilience sweep: 4x4x2 west-first mesh under BER floors with CRC
 *  retransmission, plus one hard link kill mid-measurement. */
void
faultedInputs(std::uint64_t, UnitInputs &in)
{
    const double floors[] = {0.0, 1e-4, 4e-3};
    RunProtocol protocol;
    protocol.warmup = 5000;
    protocol.measure = 20000;
    protocol.drainLimit = 20000;
    const double rate = 0.8;
    for (std::size_t fi = 0; fi < std::size(floors); fi++) {
        for (bool pa : {false, true}) {
            PlannedPoint p;
            char label[64];
            std::snprintf(label, sizeof(label), "ber_floor=%g/%s",
                          floors[fi], pa ? "pa_dvs" : "non_pa");
            p.point.label = label;
            p.point.config = smallMesh(RoutingAlgo::kWestFirst, pa);
            p.point.config.fault.enabled = true;
            p.point.config.fault.berFloor = floors[fi];
            p.point.spec = TrafficSpec::uniform(rate, 4);
            p.point.protocol = protocol;
            p.point.seedKey = fi;
            in.points.push_back(std::move(p));
        }
    }
    // The first inter-router link, found on a fault-free system so the
    // enumeration order is never hardcoded.
    SystemConfig probe = smallMesh(RoutingAlgo::kWestFirst, false);
    int kill = -1;
    {
        PoeSystem sys(probe);
        for (std::size_t i = 0; i < sys.network().numLinks(); i++) {
            if (sys.network().linkSpec(i).kind == LinkKind::kInterRouter) {
                kill = static_cast<int>(i);
                break;
            }
        }
    }
    PlannedPoint p;
    p.point.label = "hardfail/westfirst_kill";
    p.point.config = probe;
    p.point.config.fault.enabled = true;
    p.point.config.fault.killLink = kill;
    p.point.config.fault.killCycle = protocol.warmup + protocol.measure / 2;
    p.point.spec = TrafficSpec::uniform(rate, 4);
    p.point.protocol = protocol;
    p.point.seedKey = std::size(floors);
    p.expectLoss = true;
    in.points.push_back(std::move(p));
}

struct WorkloadDef
{
    const char *name;
    /** Makes one unit's inputs; only trace generation uses the seed,
     *  SweepRunner derives the traffic seeds from it. */
    void (*inputs)(std::uint64_t seed, UnitInputs &in);
    std::size_t reference;  ///< point checked against runExperiment/runTimeline
    std::size_t tracePoint; ///< point rerun with the JSONL trace sink
};

// References and trace-sink points: FFT and the link kill.
const WorkloadDef kWorkloads[] = {
    {"splash_serial", splashInputs, 0, 0},
    {"faulted_resilience", faultedInputs, 6, 6},
};

/** SweepRunner worker threads. Every workload runs its points one at a
 *  time: on a shared few-core host, more threads measure the scheduler. */
constexpr int kSweepJobs = 1;

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---------------------------------------------------------------------
// Driving one point
// ---------------------------------------------------------------------

/** What one execution of one point leaves behind. */
struct PointRun
{
    std::string fingerprint;
    RunMetrics metrics;
    double setupS = 0.0; ///< PoeSystem construction + traffic install
    Cycle cycles = 0;    ///< simulated cycles, drain included
    std::vector<double> chunkMs;
    LayerProbe probe;
};

/** How a point is instrumented. */
enum class Probe
{
    kOff,   ///< chunk timings only
    kSteps, ///< per-step timing, counter samples, decorators
    kTrace, ///< JSONL trace sink behind the timing decorator
};

class PointRunner
{
  public:
    /** @p scan_per_chunk: add the per-bin power scan runTimeline makes
     *  to every probed chunk (for points that do not scan themselves). */
    PointRunner(PoeSystem &sys, PointRun &out, Probe probe,
                bool scan_per_chunk)
        : sys_(sys), out_(out), probe_(probe),
          scanPerChunk_(scan_per_chunk)
    {
    }

    /** PoeSystem::run(@p cycles), issued in 1000-cycle chunks. */
    void run(Cycle cycles)
    {
        while (cycles > 0) {
            Cycle c = std::min(cycles, kChunk);
            if (probe_ == Probe::kSteps) {
                steppedChunk(c);
            } else {
                auto t0 = Clock::now();
                sys_.run(c);
                if (c == kChunk)
                    out_.chunkMs.push_back(nsSince(t0) * 1e-6);
            }
            cycles -= c;
        }
    }

    /** Network::totalPowerIntegralMwCycles, timed when probing. */
    double powerIntegral()
    {
        auto t0 = Clock::now();
        double v = sys_.network().totalPowerIntegralMwCycles(sys_.now());
        if (probe_ == Probe::kSteps) {
            out_.probe.scanNs += nsSince(t0);
            out_.probe.scans++;
        }
        return v;
    }

    bool awaitDrain(Cycle limit)
    {
        auto t0 = Clock::now();
        bool drained = sys_.awaitDrain(limit);
        out_.probe.drainNs += nsSince(t0);
        out_.probe.drains++;
        return drained;
    }

    RunMetrics metrics()
    {
        auto t0 = Clock::now();
        RunMetrics m = sys_.metrics();
        out_.probe.metricsNs += nsSince(t0);
        out_.probe.metricsCalls++;
        return m;
    }

  private:
    void steppedChunk(Cycle cycles)
    {
        LayerProbe &p = out_.probe;
        Kernel &k = sys_.kernel();
        Network &net = sys_.network();
        const bool policy = sys_.engine() != nullptr;
        const Cycle window = sys_.config().windowCycles;
        const bool faulted = sys_.faultInjector() != nullptr;
        std::uint64_t ejectedBefore = net.flitsEjected();
        for (Cycle i = 0; i < cycles; i++) {
            Cycle now = k.now();
            double active = static_cast<double>(k.activeCount());
            auto t0 = Clock::now();
            k.step();
            double ns = nsSince(t0);
            p.steps++;
            p.activeSum += active;
            if (policy && now > 0 && now % window == 0) {
                p.windowNs += ns;
                p.windowSteps++;
            } else {
                p.plainStepNs.push_back(ns);
                p.plainNs += ns;
                p.plainActive += active;
                if (faulted)
                    p.faultStepNs.push_back(ns);
            }
        }
        p.flitsEjected += net.flitsEjected() - ejectedBefore;
        if (scanPerChunk_)
            powerIntegral();

        int routersAwake = 0;
        double buffered = 0.0;
        for (int r = 0; r < net.numRouters(); r++) {
            Router &router = net.router(r);
            routersAwake += router.asleep() ? 0 : 1;
            buffered += router.totalBufferedFlits();
        }
        int nodesAwake = 0;
        for (int n = 0; n < net.numNodes(); n++)
            nodesAwake += net.node(static_cast<NodeId>(n)).asleep() ? 0 : 1;
        p.routerAwake += ratio(routersAwake, net.numRouters());
        p.nodeAwake += ratio(nodesAwake, net.numNodes());
        p.bufferedFlits += buffered;
        p.flitsInSystem += static_cast<double>(net.flitsInSystem());
        p.samples++;
    }

    PoeSystem &sys_;
    PointRun &out_;
    Probe probe_;
    bool scanPerChunk_;
};

/**
 * Run @p planned exactly as runExperiment / runTimeline would (same
 * public calls, same order), with PoeSystem::run split into chunks and
 * the instrumentation @p probe asks for.
 */
PointRun
drivePoint(const PlannedPoint &planned, const SweepPoint &staged,
           Probe probe)
{
    PointRun out;
    SystemConfig cfg = staged.config;
    // runExperiment's rule: an unset fault seed follows the traffic seed.
    if (!planned.timeline && cfg.fault.enabled && cfg.fault.seed == 0)
        cfg.fault.seed = deriveStreamSeed(staged.spec.seed, 0x0fa117u);

    // Sinks the system points at are declared first so they outlive it.
    CountingBuf traceBytes;
    std::ostream traceStream(&traceBytes);
    JsonlTraceSink jsonl(traceStream);
    TimedTraceSink timedTrace(jsonl);
    TimedPacketSink eject;

    auto t0 = Clock::now();
    auto sys = std::make_unique<PoeSystem>(cfg);
    out.probe.constructNs = nsSince(t0);
    out.probe.constructs = 1;
    std::unique_ptr<TrafficSource> src = makeTraffic(staged.spec, cfg);
    if (probe == Probe::kSteps)
        src = std::make_unique<TimedTraffic>(std::move(src), out.probe);
    sys->setTraffic(std::move(src));
    out.setupS = secondsSince(t0);
    if (probe == Probe::kSteps) {
        eject.setTarget(sys.get());
        sys->network().setPacketSink(&eject);
    }
    const bool traced = probe == Probe::kTrace;
    if (traced)
        sys->setTraceSink(&timedTrace, cfg.metricsIntervalCycles);

    PointRunner drive(*sys, out, probe, !planned.timeline);
    RunMetrics m;
    std::string record;
    if (planned.timeline) {
        // runTimeline, bin by bin.
        TimelineResult result;
        result.bin = planned.bin;
        sys->startMeasurement();
        double base = sys->network().baselinePowerMw();
        double prevIntegral = drive.powerIntegral();
        std::uint64_t prevCreated = sys->measuredCreated();
        double prevLatSum = sys->latencyStat().sum();
        std::size_t prevLatN = sys->latencyStat().count();
        for (Cycle t = 0; t < planned.total; t += planned.bin) {
            Cycle step = std::min(planned.bin, planned.total - t);
            drive.run(step);
            double integral = drive.powerIntegral();
            result.normalizedPower.push_back(
                (integral - prevIntegral) /
                (static_cast<double>(step) * base));
            prevIntegral = integral;
            std::uint64_t created = sys->measuredCreated();
            result.offeredRate.push_back(
                static_cast<double>(created - prevCreated) /
                static_cast<double>(step));
            prevCreated = created;
            double latSum = sys->latencyStat().sum();
            std::size_t latN = sys->latencyStat().count();
            result.avgLatency.push_back(
                latN > prevLatN ? (latSum - prevLatSum) /
                                      static_cast<double>(latN - prevLatN)
                                : 0.0);
            prevLatSum = latSum;
            prevLatN = latN;
        }
        sys->stopMeasurement();
        drive.awaitDrain(300000);
        result.metrics = drive.metrics();
        m = result.metrics;
        out.cycles = sys->now();
        if (cfg.conservationAuditEnabled()) {
            if (traced)
                sys->setTraceSink(nullptr);
            m.auditFailures = sys->auditConservation();
            result.metrics.auditFailures = m.auditFailures;
        }
        record = timelineRecord(result);
    } else {
        // runExperiment.
        const RunProtocol &protocol = staged.protocol;
        drive.run(protocol.warmup);
        sys->startMeasurement();
        drive.run(protocol.measure);
        sys->stopMeasurement();
        drive.awaitDrain(protocol.drainLimit);
        m = drive.metrics();
        out.cycles = sys->now();
        if (cfg.conservationAuditEnabled()) {
            if (traced)
                sys->setTraceSink(nullptr);
            m.auditFailures = sys->auditConservation();
        }
        record = metricsRecord(m);
    }
    out.metrics = m;
    out.fingerprint = fingerprint(record);

    LayerProbe &p = out.probe;
    if (PolicyEngine *engine = sys->engine()) {
        p.controllers = static_cast<double>(engine->numControllers());
        p.paPoints = 1;
    }
    p.decisions = m.decisionsUp + m.decisionsDown;
    p.transitions = m.transitions;
    p.measuredKcycles = static_cast<double>(m.measuredCycles) / 1000.0;
    p.retries = m.flitRetries;
    p.corrupted = m.flitsCorrupted;
    if (probe == Probe::kSteps) {
        p.ejectNs = static_cast<double>(eject.ns());
        p.ejectCalls = eject.calls();
    }
    sys.reset(); // ends the trace run before the sink is read
    if (traced) {
        p.traceEvents = timedTrace.events();
        p.traceNs = timedTrace.ns();
        p.traceBytes = traceBytes.bytes();
    }
    return out;
}

// ---------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------

struct PointSummary
{
    std::string label;
    bool ok = false;
    bool drained = false;
    bool expectDrained = true;
    int hardFailures = 0;
    double goodput = 0.0; ///< flits/cycle
    std::string fingerprint;
    double avgLatency = 0.0;
    double normalizedPower = 0.0;
};

struct UnitResult
{
    const char *kind = "untraced"; ///< untraced | traced | trace_sink
    double wallS = 0.0;
    double setupS = 0.0;
    double simS = 0.0; ///< point wall minus point set-up, summed
    double cycles = 0.0;
    double pointWallS = 0.0;
    std::vector<double> pointS;
    int jobs = 1;
    std::vector<double> chunkMs;
    std::vector<PointSummary> points;
    LayerProbe probe;
};

PointSummary
summarize(const PlannedPoint &planned, bool ok, const RunMetrics &m,
          const std::string &fp)
{
    PointSummary s;
    s.label = planned.point.label;
    s.ok = ok;
    s.drained = m.drained;
    s.expectDrained = !planned.expectLoss;
    s.hardFailures = m.linkHardFailures;
    s.goodput = m.throughputFlitsPerCycle;
    s.fingerprint = fp;
    s.avgLatency = m.avgLatency;
    s.normalizedPower = m.normalizedPower;
    return s;
}

/** Execute every point of the workload once through SweepRunner. */
UnitResult
runUnit(const WorkloadDef &wl, std::uint64_t seed, Probe probe)
{
    UnitResult u;
    u.kind = probe == Probe::kSteps ? "traced" : "untraced";
    auto t0 = Clock::now();
    UnitInputs in;
    wl.inputs(seed, in);
    std::vector<SweepPoint> points;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < in.points.size(); i++) {
        points.push_back(in.points[i].point);
        index[in.points[i].point.label] = i;
    }
    std::vector<PointRun> runs(points.size());

    SweepRunner::Options opts;
    opts.jobs = kSweepJobs;
    opts.baseSeed = seed;
    opts.maxRetries = 0; // a failure is a result, not something to retry
    SweepRunner runner(opts);
    SweepReport report = runner.run(
        points, [&](const SweepPoint &staged, std::uint64_t) {
            std::size_t i = index.at(staged.label);
            runs[i] = drivePoint(in.points[i], staged, probe);
            return runs[i].metrics;
        });
    u.wallS = secondsSince(t0);
    u.jobs = report.jobs;
    u.setupS = in.traceGenS;
    u.probe.traceGenNs = in.traceGenS * 1e9;
    for (std::size_t i = 0; i < runs.size(); i++) {
        const SweepOutcome &o = report.outcomes[i];
        double pointS = o.wallMs / 1000.0;
        u.setupS += runs[i].setupS;
        u.simS += pointS - runs[i].setupS;
        u.cycles += static_cast<double>(runs[i].cycles);
        u.pointWallS += pointS;
        u.pointS.push_back(pointS);
        u.chunkMs.insert(u.chunkMs.end(), runs[i].chunkMs.begin(),
                         runs[i].chunkMs.end());
        u.points.push_back(summarize(in.points[i], o.ok(), runs[i].metrics,
                                     runs[i].fingerprint));
        u.probe.merge(runs[i].probe);
    }
    return u;
}

/** Rerun the workload's designated point with the JSONL trace sink. */
UnitResult
runTraceSinkPoint(const WorkloadDef &wl, std::uint64_t seed)
{
    UnitResult u;
    u.kind = "trace_sink";
    auto t0 = Clock::now();
    UnitInputs in;
    wl.inputs(seed, in);
    const PlannedPoint &planned = in.points[wl.tracePoint];
    SweepRunner::Options opts;
    opts.baseSeed = seed;
    SweepRunner runner(opts);
    SweepPoint staged = planned.point;
    staged.spec.seed = runner.pointSeed(planned.point, wl.tracePoint);
    PointRun run = drivePoint(planned, staged, Probe::kTrace);
    u.wallS = secondsSince(t0);
    u.points.push_back(
        summarize(planned, true, run.metrics, run.fingerprint));
    u.probe.traceEvents = run.probe.traceEvents;
    u.probe.traceNs = run.probe.traceNs;
    u.probe.traceBytes = run.probe.traceBytes;
    return u;
}

/** The reference point through the program's own runExperiment or
 *  runTimeline, with the seed SweepRunner gives it. */
PointSummary
runReference(const WorkloadDef &wl, std::uint64_t seed)
{
    UnitInputs in;
    wl.inputs(seed, in);
    const PlannedPoint &planned = in.points[wl.reference];
    SweepRunner::Options opts;
    opts.baseSeed = seed;
    SweepRunner runner(opts);
    TrafficSpec spec = planned.point.spec;
    spec.seed = runner.pointSeed(planned.point, wl.reference);
    if (planned.timeline) {
        TimelineResult r = runTimeline(planned.point.config, spec,
                                       planned.total, planned.bin);
        return summarize(planned, true, r.metrics,
                         fingerprint(timelineRecord(r)));
    }
    RunMetrics m =
        runExperiment(planned.point.config, spec, planned.point.protocol);
    return summarize(planned, true, m, fingerprint(metricsRecord(m)));
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

class MetricList
{
  public:
    void add(const std::string &name, double value, const char *unit,
             const std::string &note = "")
    {
        if (!body_.empty())
            body_ += ",";
        body_ += quoted(name) + ":{\"value\":" + num(value) +
                 ",\"unit\":" + quoted(unit);
        if (!note.empty())
            body_ += ",\"note\":" + quoted(note);
        body_ += "}";
    }

    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
percentileNote(const Percentile &p)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%g of %zu samples",
                  p.fraction * 100.0, p.samples);
    return buf;
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Tail of the 1000-cycle chunk times of the untraced units. It is printed
 * with the end-to-end metrics but gated only as a per-layer metric: on a
 * shared VM its run-to-run spread reached the largest bound allowed.
 */
void
chunkTail(const std::vector<UnitResult> &units, MetricList &out)
{
    std::vector<double> chunks;
    for (const UnitResult &u : units)
        if (std::strcmp(u.kind, "untraced") == 0)
            chunks.insert(chunks.end(), u.chunkMs.begin(), u.chunkMs.end());
    Percentile p99 = tailPercentile(chunks, 0.99);
    out.add("kcycle_ms_p99", p99.value, "ms", percentileNote(p99));
}

void
endToEndMetrics(const std::vector<UnitResult> &units, MetricList &out)
{
    std::vector<double> wall, setup, rate, chunks;
    for (const UnitResult &u : units) {
        if (std::strcmp(u.kind, "untraced") != 0)
            continue;
        wall.push_back(u.wallS);
        setup.push_back(u.setupS);
        rate.push_back(ratio(u.cycles / 1000.0, u.simS));
        chunks.insert(chunks.end(), u.chunkMs.begin(), u.chunkMs.end());
    }
    char note[64];
    std::snprintf(note, sizeof(note), "median of %zu units", wall.size());
    out.add("wall_s", median(wall), "s", note);
    out.add("setup_s", median(setup), "s", note);
    out.add("sim_kcycles_per_s", median(rate), "kcycles/s", note);
    Percentile p50 = tailPercentile(chunks, 0.5);
    out.add("kcycle_ms_p50", p50.value, "ms", percentileNote(p50));
    out.add("peak_rss_mb", peakRssMiB(), "MiB");
}

void
perLayerMetrics(const std::vector<UnitResult> &units, MetricList &out)
{
    LayerProbe p;
    std::vector<double> tracedWall, untracedWall, pointS;
    double tracedPointWall = 0.0, busy = 0.0, capacity = 0.0;
    double sinkRuns = 0.0;
    for (const UnitResult &u : units) {
        if (std::strcmp(u.kind, "untraced") == 0) {
            untracedWall.push_back(u.wallS);
            continue;
        }
        if (std::strcmp(u.kind, "traced") == 0) {
            tracedWall.push_back(u.wallS);
            tracedPointWall += u.pointWallS + u.probe.traceGenNs * 1e-9;
            busy += u.pointWallS;
            capacity += u.wallS * u.jobs;
            pointS.insert(pointS.end(), u.pointS.begin(), u.pointS.end());
        } else {
            sinkRuns += 1.0;
        }
        p.merge(u.probe);
    }
    // Counts are per execution of the workload (or of the trace-sink
    // point), so they do not depend on how many fit in the budget.
    const double traced = static_cast<double>(tracedWall.size());
    Percentile s50 = tailPercentile(p.plainStepNs, 0.5);
    Percentile s99 = tailPercentile(p.plainStepNs, 0.99);
    const double windowMeanNs = ratio(p.windowNs, p.windowSteps);
    const double windowUs =
        p.windowSteps ? (windowMeanNs - s50.value) / 1000.0 : 0.0;
    const double controllers = ratio(p.controllers, p.paPoints);

    chunkTail(units, out);

    out.add("sim.step_ns_p50", s50.value, "ns", percentileNote(s50));
    out.add("sim.step_ns_p99", s99.value, "ns", percentileNote(s99));
    out.add("sim.active_per_step", ratio(p.activeSum, p.steps), "count");
    out.add("sim.ns_per_active_tick", ratio(p.plainNs, p.plainActive),
            "ns");
    out.add("sim.serial_frac", ratio(p.windowNs, p.windowNs + p.plainNs),
            "ratio");
    out.add("router.awake_frac", ratio(p.routerAwake, p.samples), "ratio");
    out.add("router.buffered_flits", ratio(p.bufferedFlits, p.samples),
            "count");
    out.add("network.node_awake_frac", ratio(p.nodeAwake, p.samples),
            "ratio");
    out.add("network.flits_in_system", ratio(p.flitsInSystem, p.samples),
            "count");
    out.add("network.ns_per_flit",
            ratio(p.plainNs, static_cast<double>(p.flitsEjected)), "ns");
    out.add("network.eject_ns", ratio(p.ejectNs, p.ejectCalls), "ns");
    out.add("link.transitions_per_kcycle",
            ratio(static_cast<double>(p.transitions), p.measuredKcycles),
            "1/kcycle");
    out.add("policy.window_us", windowUs, "us");
    out.add("policy.ns_per_link_window",
            ratio(windowUs * 1000.0, controllers), "ns");
    out.add("policy.decisions", ratio(p.decisions, traced), "count");
    out.add("phy.power_scan_us", ratio(p.scanNs, p.scans) / 1000.0, "us");
    out.add("phy.metrics_ms", ratio(p.metricsNs, p.metricsCalls) / 1e6,
            "ms");
    out.add("traffic.arrivals_ns", ratio(p.arrivalsNs, p.arrivalsCalls),
            "ns");
    out.add("traffic.trace_gen_ms",
            ratio(p.traceGenNs, traced) / 1e6, "ms");
    out.add("fault.step_ns_p50", tailPercentile(p.faultStepNs, 0.5).value,
            "ns");
    out.add("fault.retries", ratio(p.retries, traced), "count");
    out.add("fault.corrupted", ratio(p.corrupted, traced), "count");
    out.add("core.construct_ms", ratio(p.constructNs, p.constructs) / 1e6,
            "ms");
    out.add("core.drain_ms", ratio(p.drainNs, p.drains) / 1e6, "ms");
    out.add("core.point_s_p50", median(pointS), "s");
    out.add("core.jobs_busy_frac", ratio(busy, capacity), "ratio");
    out.add("trace.events", ratio(p.traceEvents, sinkRuns), "count");
    out.add("trace.event_ns", ratio(p.traceNs, p.traceEvents), "ns");
    out.add("trace.bytes", ratio(p.traceBytes, sinkRuns), "bytes");
    out.add("bench.unattributed_frac",
            ratio(tracedPointWall - p.spanNs() * 1e-9, tracedPointWall),
            "ratio");
    out.add("bench.trace_overhead",
            ratio(median(tracedWall), median(untracedWall)) - 1.0, "ratio");
}

std::string
pointJson(const PointSummary &s)
{
    return "{\"label\":" + quoted(s.label) +
           ",\"ok\":" + (s.ok ? "true" : "false") +
           ",\"drained\":" + (s.drained ? "true" : "false") +
           ",\"expect_drained\":" + (s.expectDrained ? "true" : "false") +
           ",\"hard_failures\":" + std::to_string(s.hardFailures) +
           ",\"goodput\":" + num(s.goodput) +
           ",\"fingerprint\":" + quoted(s.fingerprint) +
           ",\"avg_latency\":" + num(s.avgLatency) +
           ",\"normalized_power\":" + num(s.normalizedPower) + "}";
}

void
printReport(const WorkloadDef &wl, std::uint64_t seed, bool trace,
            const PointSummary &reference,
            const std::vector<UnitResult> &units)
{
    MetricList metrics, printed;
    if (trace) {
        perLayerMetrics(units, metrics);
    } else {
        endToEndMetrics(units, metrics);
        chunkTail(units, printed);
    }

    std::string unitsJson;
    for (const UnitResult &u : units) {
        if (!unitsJson.empty())
            unitsJson += ",";
        unitsJson += "{\"kind\":" + quoted(u.kind) +
                     ",\"wall_s\":" + num(u.wallS) + ",\"points\":[";
        for (std::size_t i = 0; i < u.points.size(); i++) {
            if (i)
                unitsJson += ",";
            unitsJson += pointJson(u.points[i]);
        }
        unitsJson += "]}";
    }
    std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
                "\"build_type\":%s,\"compiler\":%s,\"nproc\":%u,"
                "\"jobs\":%d,\"reference\":%s,\"units\":[%s],"
                "\"metrics\":%s,\"printed\":%s}\n",
                quoted(wl.name).c_str(),
                static_cast<unsigned long long>(seed), trace ? 1 : 0,
                quoted(OENET_BUILD_TYPE).c_str(),
                quoted(__VERSION__).c_str(),
                std::thread::hardware_concurrency(), kSweepJobs,
                pointJson(reference).c_str(), unitsJson.c_str(),
                metrics.json().c_str(), printed.json().c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

int selfTestFailures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        selfTestFailures++;
}

void
selfTestPercentiles()
{
    auto ramp = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = n; i > 0; i--)
            v.push_back(static_cast<double>(i));
        return v;
    };
    for (std::size_t n : {1u, 5u, 19u, 20u, 100u, 999u, 1000u, 5000u}) {
        Percentile p = tailPercentile(ramp(n), 0.99);
        std::size_t beyond = n - static_cast<std::size_t>(p.value);
        bool ok = p.samples == n && p.fraction <= 0.99 &&
                  p.fraction >= 0.5 && (beyond >= 10 || p.fraction == 0.5);
        if (n >= 1000)
            ok = ok && p.fraction == 0.99;
        expect(ok, "percentile rule n=" + std::to_string(n) + ": " +
                       percentileNote(p) + ", " + std::to_string(beyond) +
                       " beyond");
    }
}

void
selfTestFingerprint()
{
    RunMetrics a;
    a.avgLatency = 31.25;
    a.packetsMeasured = 7;
    RunMetrics b = a;
    expect(fingerprint(metricsRecord(a)) == fingerprint(metricsRecord(b)),
           "equal records fingerprint equal");
    b.avgLatency = std::nextafter(a.avgLatency, 1e9);
    expect(fingerprint(metricsRecord(a)) != fingerprint(metricsRecord(b)),
           "a one-ulp change moves the fingerprint");
}

/** Every decorator and probe must leave the simulated outputs
 *  bit-identical to the program's own protocol functions. */
void
selfTestDecorators()
{
    std::vector<PlannedPoint> cases;
    {
        PlannedPoint p;
        p.point.label = "experiment/pa";
        p.point.config = smallMesh(RoutingAlgo::kXY, true);
        p.point.spec = TrafficSpec::uniform(1.5, 4, 11);
        p.point.protocol = {2000, 4000, 8000};
        cases.push_back(p);
        p.point.label = "experiment/sharded";
        p.point.config.shards = 2;
        cases.push_back(p);
        p.point.label = "experiment/faulted";
        p.point.config = smallMesh(RoutingAlgo::kWestFirst, true);
        p.point.config.fault.enabled = true;
        p.point.config.fault.berFloor = 4e-3;
        cases.push_back(p);
    }
    SplashSynthParams sp;
    sp.numNodes = 32;
    sp.duration = 6000;
    sp.seed = 5;
    TraceData trace = generateSplashTrace(sp);
    {
        PlannedPoint p;
        p.point.label = "timeline/splash";
        p.point.config = smallMesh(RoutingAlgo::kXY, true);
        p.point.spec = TrafficSpec::traceReplay(trace);
        p.timeline = true;
        p.total = 6000;
        p.bin = 2000;
        cases.push_back(p);
    }
    for (const PlannedPoint &c : cases) {
        std::string ref;
        if (c.timeline) {
            ref = fingerprint(timelineRecord(runTimeline(
                c.point.config, c.point.spec, c.total, c.bin)));
        } else {
            ref = fingerprint(metricsRecord(runExperiment(
                c.point.config, c.point.spec, c.point.protocol)));
        }
        for (Probe probe : {Probe::kOff, Probe::kSteps, Probe::kTrace}) {
            PointRun run = drivePoint(c, c.point, probe);
            const char *name = probe == Probe::kOff     ? "chunked"
                               : probe == Probe::kSteps ? "probed"
                                                        : "trace sink";
            expect(run.fingerprint == ref,
                   c.point.label + " " + name + " run matches the " +
                       (c.timeline ? "runTimeline" : "runExperiment") +
                       " fingerprint " + ref);
        }
    }
}

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       %s --selftest\n",
                 prog, prog);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(value(), nullptr);
        else if (a == "--trace")
            trace = std::strcmp(value(), "0") != 0;
        else if (a == "--selftest")
            selftest = true;
        else
            usage(argv[0]);
    }

    if (std::strcmp(OENET_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "oenet_perfbench: built as '%s'; timings are only "
                     "recorded from a Release build (-O2 -DNDEBUG)\n",
                     OENET_BUILD_TYPE);
        return 2;
    }
    setQuiet(true);

    if (selftest) {
        selfTestPercentiles();
        selfTestFingerprint();
        selfTestDecorators();
        std::printf("%d failure(s)\n", selfTestFailures);
        return selfTestFailures == 0 ? 0 : 1;
    }

    const WorkloadDef *wl = findWorkload(workload);
    if (wl == nullptr || !(seconds > 0.0))
        usage(argv[0]);

    // The reference run doubles as the warm-up.
    PointSummary reference = runReference(*wl, seed);

    std::vector<UnitResult> units;
    auto start = Clock::now();
    if (trace) {
        // Alternate untraced and traced units so trace_overhead compares
        // like with like; each traced unit is followed by the trace-sink
        // rerun of the designated point.
        std::vector<double> rounds;
        do {
            auto t0 = Clock::now();
            units.push_back(runUnit(*wl, seed, Probe::kOff));
            units.push_back(runUnit(*wl, seed, Probe::kSteps));
            units.push_back(runTraceSinkPoint(*wl, seed));
            rounds.push_back(secondsSince(t0));
        } while (secondsSince(start) + median(rounds) <= seconds);
    } else {
        std::vector<double> walls;
        do {
            units.push_back(runUnit(*wl, seed, Probe::kOff));
            walls.push_back(units.back().wallS);
        } while (units.size() < 3 ||
                 secondsSince(start) + median(walls) <= seconds);
    }
    printReport(*wl, seed, trace, reference, units);
    return 0;
}
