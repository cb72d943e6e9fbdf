/**
 * @file
 * Simulation kernel: owns the current cycle, the event queue, and the
 * ordered list of components ticked every cycle.
 *
 * Tick protocol per cycle t:
 *   1. the epoch hook (if due) observes the state at the boundary;
 *   2. events due at t fire (control plane: policies, transitions,
 *      scheduled injections);
 *   3. every *active* Ticking component's tick(t) runs, in
 *      registration order.
 *
 * Cross-component interactions are time-tagged (link arrival cycles,
 * credit return cycles), so results do not depend on registration order;
 * the fixed order only pins down RNG-free determinism.
 *
 * Idle elision (on by default) removes quiescent components from the
 * per-cycle pass: after each tick the kernel asks nextWakeCycle(now),
 * and a component answering later than now+1 is parked until that cycle
 * or until an explicit wake edge (wakeAt) pulls it in earlier. A parked
 * component's tick would have been a no-op every skipped cycle, so the
 * simulated outcome — every byte of every manifest and trace — is
 * identical to ticking everything; see DESIGN.md section 9 for the
 * quiescence invariants each component maintains.
 *
 * Sharded execution (configureSharding) splits the per-cycle pass into
 * tick domains: domain 0 ticks serially on the driving thread (the
 * traffic pump and anything else that touches global state), domains
 * 1..N are shards whose passes run concurrently, one thread per shard,
 * separated by a barrier every cycle (the conservative-lookahead
 * quantum degenerates to one cycle here because credits apply at now+1
 * and the minimum link propagation is one cycle). Components in
 * different shards may only interact through phase-separated boundary
 * queues drained by per-domain pre-pass hooks; see DESIGN.md section
 * 11 and docs/DETERMINISM.md for the full contract. Each domain keeps
 * its own active set and wake heap, so idle elision doubles as the
 * per-shard work queue. A domain's active set is a bitmap with one bit
 * per member slot; slots are numbered in tick order, so the pass walks
 * set bits in ascending order and a wake is one bit set. The
 * single-domain path (no configureSharding call) is the reference
 * implementation and stays byte-identical.
 */

#ifndef OENET_SIM_KERNEL_HH
#define OENET_SIM_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace oenet {

class Kernel;

/** Interface for components that need per-cycle processing. */
class Ticking
{
  public:
    virtual ~Ticking() = default;
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest future cycle this component could need to tick again,
     * asked by the kernel right after tick(now). Answering now+1 (the
     * default) keeps the component in every cycle's pass; anything
     * later parks it until that cycle (kNeverCycle = indefinitely,
     * until a wake edge). The kernel may tick a component *earlier*
     * than its answer (it keeps now+2 answers active rather than pay
     * the park/re-admit round trip for a one-cycle gap); such ticks
     * must be no-ops — the same quiescence invariant elision-off
     * already demands. A sleeping component must be woken by whoever
     * hands it work (see wakeAt); the kernel never polls it.
     */
    virtual Cycle nextWakeCycle(Cycle now) { return now + 1; }

    /**
     * Wake edge: ensure this component ticks at cycle @p at (or the
     * next executable cycle if @p at has passed). No-op while the
     * component is active — an active component re-arms itself from
     * its own state via nextWakeCycle, which is always at least as
     * accurate as any external hint. During a sharded parallel pass a
     * wake may only target a component of the calling thread's own
     * domain (cross-shard wakes go through the boundary queues).
     */
    void wakeAt(Cycle at);

    /** True while parked by the idle-elision scheduler. */
    bool asleep() const { return asleep_; }

  private:
    friend class Kernel;
    Kernel *kernel_ = nullptr;     ///< set by Kernel::addTicking
    std::uint32_t tickOrder_ = 0;  ///< registration index (tick order)
    std::uint32_t slot_ = 0;       ///< index in its domain's members
    std::uint16_t domainIdx_ = 0;  ///< tick domain (0 = serial phase)
    bool asleep_ = false;
    Cycle pendingWake_ = kNeverCycle; ///< authoritative earliest wake
};

class Kernel
{
  public:
    Kernel();
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Register a component; the kernel does not take ownership. */
    void addTicking(Ticking *component);

    /** Advance one cycle: fire due events, tick active components. */
    void step();

    /** Advance @p cycles cycles. */
    void run(Cycle cycles);

    /** Schedule a one-shot action. */
    void schedule(Cycle when, EventQueue::Action action);

    /** Schedule @p action every @p period cycles starting at @p first.
     *  The closure is stored once in the event queue and re-armed in
     *  place — no per-firing allocation. */
    void schedulePeriodic(Cycle first, Cycle period,
                          std::function<void(Cycle)> action);

    /**
     * Install the epoch hook: @p hook runs at the start of every step
     * whose cycle is a whole multiple of @p interval after the current
     * cycle (first firing one interval from now), *before* that
     * cycle's events and ticks — i.e. it observes the state exactly as
     * of the epoch boundary. One hook at a time; interval 0 (or a null
     * hook) uninstalls it. Used for the windowed-metrics snapshots of
     * the trace layer; unlike schedulePeriodic it costs one branch per
     * step and nothing in the event queue.
     */
    void setEpochHook(Cycle interval, std::function<void(Cycle)> hook);

    /**
     * Enable or disable idle elision (default on). Disabling mid-run
     * re-admits every parked component so the classic
     * tick-everything-every-cycle pass resumes; both settings produce
     * bit-identical simulations.
     */
    void setIdleElision(bool on);
    bool idleElision() const { return idleElision_; }

    // ------------------------------------------------------------------
    // Sharded execution
    // ------------------------------------------------------------------

    /**
     * Switch to phased (sharded) stepping with @p shards shard domains
     * (1..shards) plus the serial domain 0. Every already-registered
     * component stays in domain 0; move shard-owned components with
     * setDomain before stepping. shards == 1 keeps everything on the
     * driving thread but uses the exact same phase structure, which is
     * what makes output byte-identical at any shard count; shards > 1
     * spawns shards-1 worker threads, joined by the destructor. Call
     * once, before the first step.
     */
    void configureSharding(int shards);

    /** Shard domains configured (1 when unsharded). */
    int shardCount() const { return shards_; }

    /** True once configureSharding has been called. */
    bool phased() const { return phased_; }

    /** Move @p component to @p domain (0 = serial, 1..shardCount()).
     *  Configuration-time only: call before the first step. */
    void setDomain(Ticking *component, int domain);

    /** Install the pre-pass hook of shard @p domain: it runs on that
     *  shard's thread at the start of every parallel phase, before the
     *  domain's tick pass (boundary-queue drains live here). */
    void setDomainPrePass(int domain, std::function<void(Cycle)> hook);

    /** Append a post-pass hook: runs on the driving thread after the
     *  cycle's parallel phase completes (boundary-buffer swaps, trace
     *  flushes, deferred-sink replays), in registration order. */
    void addPostPass(std::function<void(Cycle)> hook);

    /** Tell the kernel shard @p domain has work next cycle (boundary
     *  deliveries staged by a post-pass hook). Clears when the domain's
     *  pre-pass next runs; an all-quiet parallel phase is skipped. */
    void markDomainWork(int domain);

    /**
     * True on a thread currently executing a shard's parallel phase
     * (pre-pass hook or tick pass). Emission sites that must not write
     * shared sinks mid-pass (trace events, packet-ejection callbacks)
     * test this and defer through per-domain buffers keyed by
     * shardPassOrder(); see docs/DETERMINISM.md.
     */
    static bool inShardPass() { return tlsDomain_ != nullptr; }

    /** Domain index of the shard pass running on this thread.
     *  @pre inShardPass(). */
    static int shardPassDomain();

    /** tickOrder of the component currently ticking on this thread (0
     *  during the pre-pass). Deferred emissions sort by this key, which
     *  reconstructs the canonical serial order. @pre inShardPass(). */
    static std::uint32_t shardPassOrder();

    /** Components in the per-cycle pass right now (diagnostics). */
    std::size_t activeCount() const;

    /**
     * Check every domain's active bitmap against its members: slot i
     * holds the i-th member in tick order, and its bit is set exactly
     * when that component is awake. Panics on any mismatch. Valid
     * between steps (the conservation audit and tests call it there).
     */
    void auditActive();
    std::size_t tickingCount() const { return ticking_.size(); }

    Cycle now() const { return now_; }
    EventQueue &events() { return events_; }

  private:
    friend class Ticking;

    struct WakeEntry
    {
        Cycle at;
        Ticking *component;
    };
    struct WakeLater
    {
        bool operator()(const WakeEntry &a, const WakeEntry &b) const
        {
            return a.at > b.at;
        }
    };

    /**
     * One tick domain: a slice of the registered components with its
     * own active set, wake heap, and pass state. Domain 0 always
     * exists and is the whole kernel when sharding is off; shard
     * domains are only touched by their own thread during the parallel
     * phase and by the driving thread between phases.
     */
    struct Domain
    {
        int index = 0;
        /** All components in tick order; a component's slot_ is its
         *  index here. */
        std::vector<Ticking *> members;
        /** Active set: bit slot_ is set while the component is awake.
         *  Ascending bit order is tick order. */
        std::vector<std::uint64_t> activeBits;
        std::size_t activeN = 0; ///< set bits in activeBits
        bool admitted = false;   ///< admit ran since the pass last looked
        /** Timed wakes; lazily deleted — Ticking::pendingWake_ is the
         *  authority, stale entries are skipped on pop. */
        std::priority_queue<WakeEntry, std::vector<WakeEntry>, WakeLater>
            wakeHeap;
        bool inTickPass = false;
        std::uint32_t passOrder = 0; ///< tickOrder_ of component mid-tick
        std::function<void(Cycle)> prePass;
        bool pendingWork = false; ///< boundary deliveries staged
    };

    /** Re-admit a parked component into its domain's active set. */
    void admit(Domain &dom, Ticking *component)
    {
        component->asleep_ = false;
        component->pendingWake_ = kNeverCycle;
        dom.activeBits[component->slot_ >> 6] |= 1ull
                                                 << (component->slot_ & 63);
        dom.activeN++;
        dom.admitted = true;
    }

    /** Renumber @p dom's member slots and rebuild its active set from
     *  the members' asleep_ flags (configuration time). */
    static void reslot(Domain &dom);

    /** Reslot every domain after setDomain moves. */
    void settleSlots();

    /** Handle Ticking::wakeAt for a parked component. */
    void wakeSleeping(Ticking *component, Cycle at);

    /** One domain's tick pass at cycle @p now (elision-aware). */
    void runDomainPass(Domain &dom, Cycle now);

    /** One shard's full parallel phase: pre-pass drain + tick pass. */
    void runShardPhase(Domain &dom, Cycle now);

    /** True if every shard domain's parallel phase would be a no-op. */
    bool shardsQuiet() const;

    void workerLoop(int domain_index);

    Cycle now_ = 0;
    EventQueue events_;
    std::vector<Ticking *> ticking_; ///< all components, registration order
    std::vector<std::unique_ptr<Domain>> domains_; ///< [0] always exists

    bool idleElision_ = true;
    bool phased_ = false;
    bool slotsDirty_ = false; ///< setDomain moved members since reslot
    int shards_ = 1;

    // Epoch hook (metrics snapshots).
    std::function<void(Cycle)> epochHook_;
    Cycle epochInterval_ = 0;
    Cycle nextEpoch_ = kNeverCycle;

    // Post-pass hooks (driving thread, after the parallel phase).
    std::vector<std::function<void(Cycle)>> postPass_;

    // Worker synchronization (shards > 1): a generation counter
    // releases the workers into a phase, a done counter is the
    // barrier out of it. Spin-based — a cycle is far shorter than any
    // blocking primitive's round trip.
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> phaseGen_{0};
    std::atomic<int> phaseDone_{0};
    std::atomic<bool> quit_{false};
    Cycle phaseCycle_ = 0; ///< published cycle (ordered by phaseGen_)

    static thread_local Domain *tlsDomain_;
};

inline void
Ticking::wakeAt(Cycle at)
{
    if (asleep_)
        kernel_->wakeSleeping(this, at);
}

} // namespace oenet

#endif // OENET_SIM_KERNEL_HH
