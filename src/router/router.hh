/**
 * @file
 * 5-stage pipelined virtual-channel wormhole router (Section 3.1,
 * Fig. 4(b)).
 *
 * The router is topology-agnostic: the attached Topology defines the
 * port map (in the mesh family, ports 0..C-1 are injection/ejection
 * ports serving the C processing nodes of the rack and ports C..C+3
 * connect East/West/North/South neighbors) and the routing function,
 * including any VC-class restriction (torus dateline escape classes).
 * Each input port holds `bufferDepthPerPort` flits split evenly across
 * `numVcs` virtual channels; flow control is credit-based.
 *
 * Pipeline stages, one cycle each:
 *   RC  route computation      (head flit; XY dimension-order)
 *   VA  VC allocation          (separable, round-robin)
 *   SA  switch allocation      (input-first then output round-robin)
 *   ST  switch traversal       (output latch -> link)
 *   LT  link traversal         (modeled by OpticalLink)
 *
 * Within a tick the stages run downstream-first (ST, SA, VA, RC, then
 * link arrivals are drained into the buffers) so a flit advances at most
 * one stage per cycle. The router core runs at a fixed 625 MHz clock
 * regardless of the attached links' bit rates (Section 3.1): clock
 * domain crossing is inside OpticalLink, which simply refuses flits
 * while serializing or retraining.
 */

#ifndef OENET_ROUTER_ROUTER_HH
#define OENET_ROUTER_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "link/endpoints.hh"
#include "link/link.hh"
#include "network/topology.hh"
#include "router/allocators.hh"
#include "router/buffer.hh"
#include "router/routing.hh"
#include "sim/kernel.hh"

namespace oenet {

class BoundaryChannel;

class Router final : public Ticking,
                     public CreditSink,
                     public OccupancyProvider
{
  public:
    struct Params
    {
        int numVcs = 2;
        int bufferDepthPerPort = 16; ///< flits, split across the VCs
        RoutingAlgo routing = RoutingAlgo::kXY;
    };

    Router(std::string name, int router_id, const Topology &topo,
           const Params &params);

    /** Attach the link feeding input @p port, along with the upstream
     *  credit sink (sender) and the sender's output-port index. */
    void connectInput(int port, OpticalLink *link, CreditSink *upstream,
                      int upstream_port);

    /**
     * Attach input @p port through a boundary channel instead of
     * polling @p link directly: arrivals are drained from the
     * channel's ready side, credits are returned into the channel,
     * and the link's hard-failure state is read from the channel's
     * propagated flag. The link's registered receiver is its shuttle,
     * not this router; @p link is kept only for introspection
     * (inputLink, policy stats). Used for every inter-router link
     * under the sharded kernel — at every shard count.
     */
    void connectInputBoundary(int port, OpticalLink *link,
                              BoundaryChannel *channel, int upstream_port);

    /** Attach the link driven by output @p port. @p downstream_vc_depth
     *  is the per-VC buffer capacity at the far end (initial credits). */
    void connectOutput(int port, OpticalLink *link,
                       int downstream_vc_depth);

    void tick(Cycle now) override;

    /**
     * Quiescence (idle elision): a router with empty buffers, no
     * latched flits, no VC routing or in VC allocation, no pending
     * credits and — when stranded wormholes are reclaimed — no open
     * wormhole (it may owe a poison tail on a failed input) has a
     * no-op tick; it parks until the earliest event any input link
     * could hand it (arrival, scheduled fault, transition end). Wake
     * edges: a flit accepted onto an input link (OpticalLink::accept),
     * a boundary delivery and a returned credit.
     */
    Cycle nextWakeCycle(Cycle now) override;

    // CreditSink: the downstream receiver of output @p port returns a
    // credit for @p vc (applied at now+1).
    void returnCredit(int port, int vc, Cycle now) override;

    // OccupancyProvider over this router's *input* ports.
    double occupancyIntegral(int port, Cycle now) const override;
    int bufferCapacity(int port) const override;

    // ------------------------------------------------------------------
    // Introspection (tests, policy, stats)
    // ------------------------------------------------------------------

    int numPorts() const { return static_cast<int>(inputs_.size()); }
    int numVcs() const { return params_.numVcs; }
    int routerId() const { return routerId_; }
    const std::string &name() const { return name_; }

    /** Flits currently buffered at input @p port (all VCs). */
    int inputOccupancy(int port) const;

    /** Credits available for (output port, vc). */
    int outputCredits(int port, int vc) const;

    /** Initial credit pool of (output port, vc) — the downstream VC
     *  depth passed to connectOutput. At quiescence on a fault-free
     *  fabric, outputCredits must equal this (conservation audit). */
    int outputVcCapacity(int port, int vc) const;

    /** Returned credits not yet applied (empty at quiescence). */
    std::size_t pendingCreditCount() const { return credits_.size(); }

    /** True if output VC is unallocated. */
    bool outputVcFree(int port, int vc) const;

    OpticalLink *outputLink(int port) const;
    OpticalLink *inputLink(int port) const;

    std::uint64_t flitsSwitched() const { return flitsSwitched_; }

    /** True if any flit is latched or routed toward output @p port
     *  (the on/off policy's wake condition). */
    bool outputWaiting(int port) const;

    /** Flits buffered in this router that are routed toward output
     *  @p port (the sender-side backlog the policy escalates on). */
    int bufferedFor(int port) const;

    /** Total flits buffered anywhere in this router (for drain tests). */
    int totalBufferedFlits() const;

    // ------------------------------------------------------------------
    // Graceful degradation (fault injection)
    // ------------------------------------------------------------------

    /**
     * Enable wormhole reclaim on hard-failed input links: an active
     * input VC that has been empty for @p cycles (its remaining flits
     * died with the link) is closed with a synthetic poison tail that
     * frees the allocated switch state hop by hop. 0 disables.
     */
    void setOrphanTimeout(Cycle cycles) { orphanTimeout_ = cycles; }

    /**
     * Tell the router whether a fault injector is attached to its
     * links (Network::setFaultInjector). Only then can a link
     * hard-fail, so the dead-output checks of RC, VA and SA run only
     * then, and every directly polled input link is drained on every
     * awake tick: on a fault-attached link that poll is what drives
     * the lazy CRC replay and fault walk (see
     * OpticalLink::drainArrivalsDue). Call after the inputs are
     * connected.
     */
    void setFaultsAttached(bool attached);

    /**
     * Recompute the incremental bitmasks (arrival-due ports, SA-ready
     * input VCs, open output VCs, occupied latches) from the flat
     * state and panic on any mismatch. Valid between kernel steps
     * (the conservation audit and tests call it there).
     */
    void auditMasks() const;

    /** Flits dropped at outputs whose link hard-failed. */
    std::uint64_t droppedDeadPort() const { return droppedDeadPort_; }

    /** Stranded wormholes closed with a synthetic poison tail. */
    std::uint64_t poisonedWormholes() const { return poisoned_; }

  private:
    enum class VcState : std::uint8_t
    {
        kIdle,
        kRouting,
        kVcAlloc,
        kActive,
    };

    /** Cold per-input-port wiring; the per-VC pipeline state lives in
     *  the flat hot-state arrays below. */
    struct InputPort
    {
        OpticalLink *link = nullptr;
        BoundaryChannel *boundary = nullptr; ///< set: drain via channel
        CreditSink *upstream = nullptr;
        int upstreamPort = kInvalid;
    };

    /** Hard-failure state of the link feeding @p in, through the
     *  boundary flag when the input is channeled (the link object
     *  itself may be mid-walk on another shard's thread). */
    static bool inputFailed(const InputPort &in);

    RouteOption selectRoute(NodeId dst);
    std::uint64_t vcMaskForClass(int vc_class) const;
    void applyCredits(Cycle now);
    void reclaimOrphans(Cycle now);
    void stageSwitchTraversal(Cycle now);
    /** SA, compiled twice: without faults no output can be dead and no
     *  poison tail exists, so the kFaults = false copy skips both
     *  checks. */
    template <bool kFaults>
    void stageSwitchAllocation(Cycle now);
    void stageVcAllocation(Cycle now);
    void stageRouteComputation(Cycle now);
    void drainArrivals(Cycle now);

    /** Flat index of input/output VC (@p port, @p vc) into the
     *  hot-state arrays — the same flattening every VC mask uses. */
    int flatIdx(int port, int vc) const
    {
        return port * params_.numVcs + vc;
    }

    /** Input @p p's buffer occupancy changes by @p delta at @p now:
     *  fold the flit-cycles since the last change into its area. */
    void changeOccupancy(int p, Cycle now, int delta)
    {
        auto ps = static_cast<std::size_t>(p);
        occArea_[ps] += static_cast<std::uint64_t>(portOcc_[ps]) *
                        (now - occSince_[ps]);
        occSince_[ps] = now;
        portOcc_[ps] += delta;
    }

    /** True if output @p q's link has hard-failed (its bit in
     *  outDeadMask_, which the link raises; never without faults). */
    bool outDead(int q) const { return outDeadMask_ >> q & 1; }

    std::string name_;
    int routerId_;
    const Topology &topo_;
    Params params_;
    int vcDepth_;
    bool restrictedVcs_; ///< topology routes carry VC classes (torus)

    std::vector<InputPort> inputs_;

    // ------------------------------------------------------------------
    // Hot state, structure-of-arrays. Per-VC arrays are indexed
    // flatIdx(port, vc); per-port arrays by the port. The allocator
    // walks each touch one contiguous array per field instead of
    // striding across per-port/per-VC objects.
    // ------------------------------------------------------------------

    // Input VC pipeline state.
    std::vector<VcState> vcState_;
    std::vector<std::int16_t> vcOutPort_; ///< kInvalid until RC
    std::vector<std::int16_t> vcOutVc_;   ///< kInvalid until VA
    std::vector<std::uint64_t> vcOutVcMask_; ///< output VCs RC allows
    std::vector<Cycle> vcLastActivity_; ///< last push/pop (orphans)
    FlitSlab buffers_; ///< segment flatIdx(port, vc), depth vcDepth_
    std::vector<std::int32_t> portOcc_; ///< flits buffered per input port
    /** Per input port: flit-cycles of occupancy folded so far, and the
     *  cycle of the last change. The policy's B_u integral is an
     *  integer signal, so integer bookkeeping is exact. */
    std::vector<std::uint64_t> occArea_;
    std::vector<Cycle> occSince_;

    // Hot mirrors of inputs_[p].{boundary, link} for the per-cycle
    // arrival drain, packed so the drain touches two flat arrays.
    // Written only by the connectInput* calls.
    std::vector<BoundaryChannel *> inBoundary_;
    std::vector<OpticalLink *> inDrainLink_;

    // Output VC credit/allocation state.
    std::vector<std::uint8_t> outAllocated_;
    std::vector<std::int32_t> outCredits_;
    std::vector<std::int32_t> outMaxCredits_; ///< initial pool

    // Per output port.
    std::vector<OpticalLink *> outLink_;
    /** Cycle before which ST does not offer a latched flit: the link
     *  is still serializing the last flit sent or refused this one,
     *  and cannot take it sooner (OpticalLink::nextSendCycle;
     *  setSendHold keeps this at or below the link's event horizon). */
    std::vector<Cycle> stHold_;
    std::vector<std::uint8_t> latchFull_;
    std::vector<Flit> latch_;
    std::vector<RoundRobinArbiter> saArb_; ///< among input ports
    std::vector<RoundRobinArbiter> vaArb_; ///< among flattened input VCs

    std::vector<RoundRobinArbiter> saInputArb_; ///< per input port
    PendingCredits credits_; ///< by output VC flatIdx(q, v)

    std::uint64_t flitsSwitched_ = 0;
    std::uint64_t droppedDeadPort_ = 0;
    std::uint64_t poisoned_ = 0;
    Cycle orphanTimeout_ = 0;

    // Fast-path occupancy counters: stages whose populations are zero
    // are skipped entirely (the common case on an idle fabric).
    int bufferedFlits_ = 0; ///< flits across all input buffers
    int latchCount_ = 0;    ///< occupied output latches
    std::uint64_t latchMask_ = 0; ///< bit q = latchFull_[q] (ST walk)
    int routingCount_ = 0;  ///< input VCs in kRouting
    int vcAllocCount_ = 0;  ///< input VCs in kVcAlloc
    int activeVcCount_ = 0; ///< input VCs in kActive (open wormholes)

    // Incremental work masks (DESIGN.md section 9). Each is kept exact
    // at every state change, so a stage walks only set bits; see
    // auditMasks for the invariants.
    /** Bit p: input p may have a flit to drain. Raised by the feeding
     *  link (accept) or boundary channel (ArrivalFlag); cleared once
     *  the channel's ready side or the link's in-flight ring is empty. */
    std::uint64_t arrivalDue_ = 0;
    /** Per input port with its bit up: the cycle its next flit lands
     *  (the link's head arrival; 0 for a channel, whose ready flits
     *  are due at once). A fault-free link's port is drained only from
     *  that cycle on, and a parking router reads its wake cycle here
     *  instead of asking the link. */
    std::vector<Cycle> arrivalAt_;
    /** Bit p: input p is a directly polled link with a fault injector
     *  attached, drained on every awake tick (setFaultsAttached). */
    std::uint64_t pollMask_ = 0;
    /** Bit p: input p is a directly polled link (connectInput). */
    std::uint64_t linkInputs_ = 0;
    /** Bit flatIdx(p, v): input VC is kActive with flits buffered —
     *  exactly the VCs that may bid for the switch. */
    std::uint64_t saReady_ = 0;
    /** Bit flatIdx(q, v): output VC has credits (> 0). */
    std::uint64_t outOpen_ = 0;
    /** Bit q: output q's link has hard-failed (OpticalLink::setFailFlag
     *  raises it in the walk that fails the link). */
    std::uint64_t outDeadMask_ = 0;
    std::uint64_t vcBits_ = 0; ///< low numVcs bits set (one port's VCs)
    /** Port of each flat VC index (SA's walk looks it up instead of
     *  dividing by numVcs). */
    std::uint8_t flatPort_[64] = {};
    bool faultsAttached_ = false;

    // The last switch allocation that nominated nothing saw these
    // masks. Until one of them changes, SA would nominate nothing
    // again, so it is skipped.
    std::uint64_t saStuckReady_ = 0;
    std::uint64_t saStuckLatch_ = 0;
    std::uint64_t saStuckOpen_ = 0;
    std::uint64_t saStuckDead_ = 0;

    /** Upper bound on ports (masks are 64-bit; VA flattens p*vcs+v). */
    static constexpr int kMaxPorts = 32;
};

} // namespace oenet

#endif // OENET_ROUTER_ROUTER_HH
