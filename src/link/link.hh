/**
 * @file
 * Power-aware opto-electronic link (Sections 2-3.2).
 *
 * An OpticalLink is a unidirectional flit channel between a sender (a
 * router output port or a node's injection queue) and a receiver (a
 * router input port or a node's ejection buffer). It models:
 *
 *  - serialization at the current bit rate: at 10 Gb/s a 16-bit flit
 *    leaves every 625 MHz router cycle; at level br the transmitter is
 *    occupied for 10/br cycles per flit (fractional occupancy is
 *    tracked exactly);
 *  - a fixed propagation delay (fiber flight time);
 *  - the bit-rate/voltage transition state machine of Section 3.2.1:
 *    on an *up* transition the supply voltage ramps first (T_v cycles,
 *    link fully operational at the old rate), then the frequency
 *    switches (T_br cycles with the link disabled while the receiver
 *    CDR relocks); on a *down* transition the frequency drops first
 *    (T_br disabled), then the voltage ramps down (operational);
 *  - the optical power scale feeding the transmitter (set by the
 *    external-laser controller for modulator links, implied by Vdd for
 *    VCSEL links);
 *  - power/energy accounting through LinkPowerModel, integrated exactly
 *    as a piecewise-constant signal (no per-cycle work);
 *  - utilization statistics for the policy controller: flits sent and
 *    the capacity integral, giving capacity-normalized utilization L_u.
 *
 * The link is passive: it has no tick. Time advances lazily — every
 * public entry point first walks the state machine up to `now`.
 *
 * With a FaultInjector attached (setFault), the link additionally
 * carries the link-layer reliability protocol: every flit is CRC-tagged
 * (conceptually; the simulator draws corruption from the BER of the
 * current operating point instead of flipping payload bits), a
 * corrupted flit fails its check at the receiver, which NACKs over a
 * reliable reverse control channel, and the sender — which holds every
 * unacknowledged flit in the in-flight ring, its retransmission
 * buffer — replays it after a bounded exponential backoff. Later flits
 * already in flight keep their arrival stamps and wait in the ring
 * (the receiver's reorder window), preserving wormhole flit order.
 * Scheduled faults (CDR lock loss, hard failure) are processed at
 * their exact cycles during the lazy advance walk.
 *
 * The walk runs only when it has work: the link keeps an event
 * horizon dueAt_, the earliest cycle at which anything is scheduled
 * (a phase end, the wake-settle power step, the next lock loss or the
 * hard failure), and every entry point below it is a single compare.
 */

#ifndef OENET_LINK_LINK_HH
#define OENET_LINK_LINK_HH

#include <algorithm>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "link/endpoints.hh"
#include "phy/bitrate_levels.hh"
#include "phy/laser_source.hh"
#include "phy/link_power.hh"
#include "router/flit.hh"
#include "trace/trace.hh"

namespace oenet {

class FaultInjector;
class LinkPowerLedger;
class Ticking;

/** What role a link plays in the system (used for reporting). */
enum class LinkKind
{
    kInjection,   ///< node -> router
    kEjection,    ///< router -> node
    kInterRouter, ///< router -> router
};

const char *linkKindName(LinkKind kind);

class OpticalLink
{
  public:
    struct Params
    {
        LinkScheme scheme = LinkScheme::kVcsel;
        LinkPowerParams power{};
        Cycle freqTransitionCycles = 20; ///< T_br (CDR relock, disabled)
        Cycle voltTransitionCycles = 100; ///< T_v (operational)
        Cycle propagationCycles = 1;      ///< fiber flight time
        int initialLevel = kInvalid;      ///< default: highest level
        double offPowerMw = 2.0;          ///< leakage when gated off
        /**
         * Laser/CDR settle time after a wake from the gated-off state.
         * For the first min(wakeSettleCycles, T_br) cycles of the
         * relock the transmitter is still stabilizing and draws gate-
         * off power, not the target level's full power. The pre-fix
         * accounting charged the full target power for the whole T_br
         * relock from the wake instant (0 restores that behavior).
         */
        Cycle wakeSettleCycles = 10;
    };

    /** @param levels level table; must outlive the link. */
    OpticalLink(std::string name, LinkKind kind,
                const BitrateLevelTable &levels, const Params &params);

    // ------------------------------------------------------------------
    // Data path: sender side
    // ------------------------------------------------------------------

    /** True if the sender may hand over one flit this cycle. The flit
     *  is accepted as soon as the transmitter frees up *within* cycle
     *  [now, now+1), so fractional serialization credit carries across
     *  cycles and the saturated rate matches the level's bit rate
     *  exactly. Below the event horizon — faults attached or not —
     *  this is a few compares with no state walk. */
    bool canAccept(Cycle now)
    {
        advance(now);
        return ready(now);
    }

    /** Hand one flit to the link. @pre canAccept(now). */
    void accept(Cycle now, const Flit &flit);

    /** canAccept + accept in one call: hand @p flit over if the link
     *  can take it this cycle and return whether it did. */
    bool trySend(Cycle now, const Flit &flit)
    {
        advance(now);
        if (!ready(now))
            return false;
        send(now, flit);
        return true;
    }

    /**
     * After a trySend at @p now (taken or refused): the first cycle
     * another can succeed or reach the link's state walk. A serializing link frees
     * up at a cycle fixed by nextFree_, which only grows; the walk is
     * due at the event horizon. A disabled or full link answers now+1.
     */
    Cycle nextSendCycle(Cycle now) const
    {
        Cycle next = now + 1;
        // ready(t) holds from t = floor(nextFree_ + 1e-9) on (the
        // operand is positive, so the conversion is the floor).
        if (enabledNow() && inflightCount_ < kInflightCap)
            next = std::max(next, static_cast<Cycle>(nextFree_ + 1e-9));
        return std::min(next, dueAt_);
    }

    /**
     * Attach the sender's retry hold (null detaches): a cycle before
     * which the sender does not call trySend, set from
     * nextSendCycle. The link lowers it to the event horizon whenever
     * the horizon moves (a power-control call or a walk), so a held
     * sender still reaches every walk at its cycle. The link and its
     * sender share a thread, so this is a plain write.
     */
    void setSendHold(Cycle *hold) { sendHold_ = hold; }

    /**
     * Attach the sender's dead-output flag (null detaches): the link
     * sets bit @p bit of @p *mask when it hard-fails, in the same walk
     * that sets isFailed(), so the sender reads which outputs are dead
     * without touching the link. Same thread as the sender, like
     * setSendHold.
     */
    void setFailFlag(std::uint64_t *mask, int bit)
    {
        failMask_ = mask;
        failBit_ = std::uint64_t{1} << bit;
    }

    // ------------------------------------------------------------------
    // Data path: receiver side
    // ------------------------------------------------------------------

    /** True if a flit has fully arrived by cycle @p now. Arrivals are
     *  stamped at accept() time, so without faults no state walk is
     *  needed; with faults scheduled faults are processed first (a
     *  lock loss scrambles flits on the wire, a failure drops them)
     *  and a corrupt head-of-line flit that is due is replayed. */
    bool hasArrival(Cycle now)
    {
        if (faults_ != nullptr) {
            advance(now);
            if (inflightCount_ > 0 && inflight_[inflightHead_].corrupt &&
                inflight_[inflightHead_].arrives <= now)
                reliabilityAdvance(now);
        }
        // A corrupt head is never deliverable: it is still due only
        // while the link is gated off, and replays once it wakes.
        return inflightCount_ > 0 && !inflight_[inflightHead_].corrupt &&
               inflight_[inflightHead_].arrives <= now;
    }

    /** Pop the oldest arrived flit. @pre hasArrival(now). */
    Flit popArrival(Cycle now);

    /** Sender-side in-flight ring capacity (doubles as the replay
     *  buffer depth with faults attached). Receivers batching a drain
     *  can size their staging to 2x this. */
    static constexpr int kInflightCap = 16;

    /**
     * Pop every flit arrived by @p now into @p sink, in order; returns
     * the count. Equivalent to `while (hasArrival(now))
     * sink(popArrival(now))` but with no fault model attached it is a
     * single branch-light ring walk — arrival stamps are final, so
     * nothing re-checks the head between pops. With faults each pop
     * takes one hasArrival() test (not popArrival()'s second one): a
     * clean due head costs the horizon compare, and a corrupt one runs
     * its replay walk (RNG draws, trace events) before the next test.
     */
    template <typename SinkFn>
    int drainArrivalsDue(Cycle now, SinkFn &&sink)
    {
        if (faults_ == nullptr) {
            int head = inflightHead_;
            int n = 0;
            while (n < inflightCount_ &&
                   inflight_[head].arrives <= now) {
                sink(inflight_[head].flit);
                head = (head + 1) & (kInflightCap - 1);
                n++;
            }
            inflightHead_ = head;
            inflightCount_ -= n;
            return n;
        }
        int n = 0;
        while (hasArrival(now)) {
            sink(inflight_[inflightHead_].flit);
            inflightHead_ = (inflightHead_ + 1) & (kInflightCap - 1);
            inflightCount_--;
            n++;
        }
        return n;
    }

    /** Flits accepted but not yet popped by the receiver. */
    int inFlight() const { return inflightCount_; }

    /** Arrival stamp of the oldest flit in flight. @pre inFlight() > 0. */
    Cycle headArrival() const { return inflight_[inflightHead_].arrives; }

    /**
     * With a fault injector attached: the first cycle at which a
     * receiver's poll (hasArrival, drainArrivalsDue) can do anything —
     * the event horizon, where the poll walks the link, or the head's
     * arrival. A poll before it changes nothing, so a receiver that
     * keeps this in its ArrivalFlag due slot skips it; the link lowers
     * the slot whenever a send or a horizon move makes it earlier.
     */
    Cycle nextPollCycle() const
    {
        return inflightCount_ > 0 ? std::min(dueAt_, headArrival())
                                  : dueAt_;
    }

    /**
     * Attach the receiving component (null detaches). accept() wakes
     * it at the flit's arrival cycle, so a receiver parked by the
     * idle-elision scheduler never misses a delivery, and raises
     * @p arrival, the receiver's arrival-due bit for this input (a
     * router drains only ports whose bit is up). Both must outlive
     * every later accept(). Wired by Router::connectInput /
     * Node::connectEjection.
     */
    void setReceiver(Ticking *receiver, ArrivalFlag arrival = {})
    {
        receiver_ = receiver;
        arrivalFlag_ = arrival;
    }

    /**
     * Wake the receiver @p lead cycles *before* each event instead of
     * at it. A boundary shuttle receives on behalf of a router in
     * another shard and must forward a flit one cycle ahead of its
     * arrival so the phase-separated handoff delivers it on time
     * (its tick at t polls hasArrival(t+1)); everything else keeps the
     * default lead of 0. Wake cycles never go below the event's
     * request cycle minus the lead, floored at 0.
     */
    void setReceiverWakeLead(Cycle lead) { receiverWakeLead_ = lead; }

    /**
     * Earliest future cycle at which this link could hand its receiver
     * something to do — the head in-flight arrival, and, when a fault
     * injector is attached (receivers then advance the link on every
     * poll), the next scheduled lock loss, the hard-failure cycle, and
     * the end of any transition phase in progress. kNeverCycle when
     * nothing is pending. A quiescing receiver re-arms its wake from
     * this; the extra fault/phase terms keep lazily-emitted trace
     * events at the same file positions as an every-cycle poller.
     */
    Cycle nextReceiverEventCycle() const
    {
        Cycle next = kNeverCycle;
        // A corrupt head held while the link is gated off is not an
        // event: it replays after the wake, which re-arms the receiver
        // (setOff), so the receiver does not spin on it meanwhile.
        if (inflightCount_ > 0 && !(inflight_[inflightHead_].corrupt &&
                                    phase_ == Phase::kOff))
            next = inflight_[inflightHead_].arrives;
        if (faults_ != nullptr && !failed_) {
            // An every-cycle poller would discover these during its
            // hasArrival() walk; a parked receiver must come back at
            // the same cycles so counters and trace emission land
            // identically.
            next = std::min(next, faultDue_);
            if (phase_ != Phase::kStable && phase_ != Phase::kOff)
                next = std::min(next, phaseEnd_);
        }
        return next;
    }

    // ------------------------------------------------------------------
    // Power control
    // ------------------------------------------------------------------

    /** Begin a one-step transition to @p level.
     *  @pre !transitionInProgress(now). */
    void requestLevel(Cycle now, int level);

    /** True while a voltage ramp or frequency switch is underway. */
    bool transitionInProgress(Cycle now);

    /** Stable (or transition-target) level index. */
    int currentLevel() const { return toLevel_; }

    /** Bit rate the link serializes at right now (Gb/s). */
    double currentBitRateGbps() const;

    /** Set the optical power scale (modulator scheme; VOA output). */
    void setOpticalScale(Cycle now, double scale);
    double opticalScale() const { return opticalScale_; }

    /**
     * Power-gate the whole link (on/off networks, the comparison point
     * of Soteriou & Peh cited as [26]). Turning off is immediate;
     * turning back on costs a CDR relock (T_br disabled), like any
     * frequency change. @pre off: no transition in progress.
     */
    void setOff(Cycle now, bool off);
    bool isOff() const { return phase_ == Phase::kOff; }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /**
     * Attach the system's fault injector (null detaches); @p link_id is
     * this link's index in the injector (the network's link/trace id).
     * Attaching enables the CRC/retransmission layer and scheduled
     * fault processing on this link.
     */
    void setFault(FaultInjector *faults, int link_id);

    /**
     * True once the link has hard-failed (VCSEL death / fiber cut).
     * Cheap and lazy: the failure is discovered when the link's state
     * next advances (canAccept, hasArrival, or any stats sample), so
     * this may briefly lag the scheduled failure cycle — callers that
     * must know (routing) also see canAccept() == false from the same
     * moment they would see isFailed().
     */
    bool isFailed() const { return failed_; }

    /** Flits whose corruption draw fired (CRC failures at the
     *  receiver) since construction. */
    std::uint64_t flitsCorrupted() const { return flitsCorrupted_; }

    /** Retransmissions performed by the sender since construction. */
    std::uint64_t flitRetries() const { return flitRetries_; }

    /** CDR loss-of-lock outages suffered since construction. */
    std::uint64_t lockLossEvents() const { return lockLossEvents_; }

    /** In-flight flits lost to the hard failure. */
    std::uint64_t flitsDroppedOnFail() const
    {
        return flitsDroppedOnFail_;
    }

    /** Same, but never cleared by resetStats() — the conservation
     *  audit balances whole-run flit counters, which include drops
     *  from before the measurement window. */
    std::uint64_t flitsDroppedOnFailLifetime() const
    {
        return flitsDroppedOnFailLifetime_;
    }

    /** The link's corruption books over its whole life (never cleared
     *  by resetStats). Every corrupt mark — a corruption draw that
     *  fired, or a clean copy scrambled by a lock loss — ends in
     *  exactly one replay, is still in flight, or died with the link:
     *  marked == replayed + inFlight + dropped. */
    struct CorruptionBooks
    {
        std::uint64_t marked = 0;
        std::uint64_t replayed = 0;
        std::uint64_t inFlight = 0;
        std::uint64_t dropped = 0;
    };
    CorruptionBooks corruptionBooks() const;

    /** Retransmissions since the last beginWindow() (DVS clamp
     *  input). */
    std::uint64_t windowRetries() const { return windowRetries_; }

    /**
     * Check the event horizon (and its fault-event part) against the
     * next scheduled event recomputed from the link's state; panic
     * unless they are equal.
     * A later horizon would let a skipped walk miss work; an earlier
     * one means a recompute site was missed. Run per link by
     * PoeSystem::auditConservation.
     */
    void auditDue() const;

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /**
     * Attach an event sink (null detaches). Completed transitions are
     * reported with their request and completion cycles; because the
     * state machine advances lazily, the *emission* happens when the
     * link is next touched past the transition's end, but the recorded
     * cycle stamps are exact.
     */
    void setTrace(TraceSink *sink, int trace_id);

    /**
     * Restart cumulative statistics at @p now: the power integral (so
     * energyMj() measures from here), totalFlits(), and
     * numTransitions(). Called at measurement start so reported
     * energy/flit/transition counts exclude warm-up transients. The
     * capacity integral and the current utilization window are left
     * alone — resetting them would inject a bogus sample into the DVS
     * sliding history and perturb policy behavior at the boundary. */
    void resetStats(Cycle now);

    /** Reset the utilization window (policy epoch boundary). */
    void beginWindow(Cycle now);

    /** Capacity-normalized utilization since the last beginWindow():
     *  flits sent / flits the link could have sent. In [0, 1]. */
    double windowUtilization(Cycle now);

    /** Flits accepted since the last beginWindow(). */
    std::uint64_t windowFlits() const { return windowFlits_; }

    /** Flits accepted since construction or the last resetStats(). */
    std::uint64_t totalFlits() const { return totalFlits_; }

    /** Electrical power drawn right now (mW). */
    double powerMw(Cycle now);

    /** Energy consumed since construction or the last resetStats()
     *  (mJ equivalent: mW * cycles * s/cycle, in millijoules). */
    double energyMj(Cycle now);

    /** Integral of power over time in mW-cycles since construction or
     *  the last resetStats() (exact, cheap). */
    double powerIntegralMwCycles(Cycle now);

    /** Power of a non-power-aware link (always-max baseline), mW. */
    double maxPowerMw() const { return powerModel_.maxPowerMw(); }

    /**
     * Register this link with the system power ledger and mirror every
     * subsequent power change into its SoA column. Must be called
     * immediately after construction (cycle 0, stable), before any
     * traffic or transition, so the column seed matches the link's
     * TimeWeighted exactly. Returns the assigned ledger id.
     */
    int attachLedger(LinkPowerLedger &ledger);

    /** Stop mirroring (fault-attached links keep only the per-link
     *  walk; see LinkPowerLedger's header). */
    void detachLedger() { ledger_ = nullptr; }

    /** Frequency transitions since construction or resetStats(). */
    std::uint64_t numTransitions() const { return numTransitions_; }

    const std::string &name() const { return name_; }
    LinkKind kind() const { return kind_; }
    const BitrateLevelTable &levels() const { return levels_; }
    LinkScheme scheme() const { return powerModel_.scheme(); }
    const Params &params() const { return params_; }

  private:
    enum class Phase
    {
        kStable,
        kVoltRampUp,  ///< voltage rising ahead of a frequency increase
        kFreqSwitch,  ///< CDR relock; link disabled
        kVoltRampDown, ///< voltage falling after a frequency decrease
        kOff           ///< power-gated (on/off policy extension)
    };

    struct InFlight
    {
        Flit flit;
        Cycle arrives;
        int attempts = 0; ///< retransmissions so far
        bool corrupt = false;
    };

    // ------------------------------------------------------------------
    // Hot block: everything a poll, canAccept/trySend and accept touch,
    // packed at the front of the object.
    // ------------------------------------------------------------------

    Cycle dueAt_ = kNeverCycle; ///< event horizon: advance() below it is a no-op
    Cycle *sendHold_ = nullptr; ///< sender's retry hold (setSendHold)
    Cycle propagation_ = 1;     ///< params_.propagationCycles
    /** Fault part of the horizon: the next lock loss or the hard
     *  failure (kNeverCycle without faults or once failed). */
    Cycle faultDue_ = kNeverCycle;
    double nextFree_ = 0.0; ///< earliest cycle the transmitter is free
    double cpf_ = 0.0;      ///< cyclesPerFlit at level cpfLevel_
    int cpfLevel_ = kInvalid;
    Phase phase_ = Phase::kStable;
    int fromLevel_ = 0;
    int toLevel_ = 0;
    int inflightHead_ = 0;
    int inflightCount_ = 0;
    Cycle lastArrival_ = 0;
    std::uint64_t windowFlits_ = 0;
    std::uint64_t totalFlits_ = 0;
    // Receiver wake edge (idle elision) and arrival-due bit.
    Ticking *receiver_ = nullptr;
    Cycle receiverWakeLead_ = 0;
    ArrivalFlag arrivalFlag_;
    FaultInjector *faults_ = nullptr;
    bool failed_ = false;
    // System power ledger mirror (null when detached).
    LinkPowerLedger *ledger_ = nullptr;
    int ledgerId_ = kInvalid;
    // Serialization / in-flight flits (ring capacity kInflightCap,
    // public above; power of two so the drain walk can mask).
    InFlight inflight_[kInflightCap];

    /** True if the transmitter can take a flit this cycle.
     *  @pre advance(now) has run. */
    bool ready(Cycle now) const
    {
        return enabledNow() && inflightCount_ < kInflightCap &&
               static_cast<double>(now) + 1.0 > nextFree_ + 1e-9;
    }

    /** accept() past its checks. @pre ready(now). */
    void send(Cycle now, const Flit &flit);

    /** Per-flit corruption probability at the current operating point:
     *  flitErrorProb over the margin-derived BER. Cached per operating
     *  point (level used, received fraction): libm runs again only
     *  after a DVS or VOA step. */
    double flitCorruptProb();

    /** Replay corrupted head-of-line flits whose (corrupt) arrival is
     *  due by @p now: NACK turnaround, bounded exponential backoff,
     *  reserialization. Loops until the head is clean or its arrival
     *  is in the future. @pre advance(now) has run. */
    void reliabilityAdvance(Cycle now);

    /** Process scheduled faults (lock loss, hard failure) with cycles
     *  <= @p now at their exact times. */
    void faultAdvance(Cycle now);

    /** Permanent failure at @p at: drop in-flight flits, gate off. */
    void failLink(Cycle at);

    /** Wake a parked receiver for the end of a just-started transition
     *  phase (fault-attached links only; see the definition). */
    void armReceiverTransitionWake();

    /** Walk the transition state machine up to @p now (processing any
     *  scheduled faults first, at their exact cycles). Below the event
     *  horizon the walk would find nothing to do, so it is skipped. */
    void advance(Cycle now)
    {
        if (now >= dueAt_)
            advanceSlow(now);
    }

    /** The walk itself; leaves dueAt_ > now. */
    void advanceSlow(Cycle now);

    /** The next lock loss or hard failure, from the injector
     *  (kNeverCycle without faults or once failed). */
    Cycle nextFaultDue() const;

    /** The earliest cycle at which advance() has work, given its fault
     *  part @p fault_due: the pending wake-settle power step, the end
     *  of a transition phase, and the next fault event. */
    Cycle nextDue(Cycle fault_due) const;

    /** Recompute faultDue_ and dueAt_ from state; called wherever one
     *  of their inputs changes. */
    void updateDue()
    {
        faultDue_ = nextFaultDue();
        dueAt_ = nextDue(faultDue_);
        if (sendHold_ != nullptr && *sendHold_ > dueAt_)
            *sendHold_ = dueAt_;
        if (faults_ != nullptr)
            arrivalFlag_.lowerDue(dueAt_); // a receiver poll walks there
    }

    /** The pre-fault phase walk: complete phases ending by @p now. */
    void phaseAdvance(Cycle now);

    /** Enter @p phase at @p at, ending at @p end; refresh accounting. */
    void enterPhase(Phase phase, Cycle at, Cycle end);

    /** Recompute power/capacity signals at time @p at. */
    void refreshSignals(Cycle at);

    /** Set the power signal to @p mw at @p at: updates powerTw_ and
     *  mirrors the identical fold into the ledger column. */
    void writePower(Cycle at, double mw, double vdd_frac);

    bool enabledNow() const
    {
        return phase_ != Phase::kFreqSwitch && phase_ != Phase::kOff;
    }

    std::string name_;
    LinkKind kind_;
    const BitrateLevelTable &levels_;
    Params params_;
    LinkPowerModel powerModel_;

    // Transition state (phase and levels live in the hot block).
    Cycle phaseEnd_ = 0;
    double opticalScale_ = 1.0;
    std::uint64_t numTransitions_ = 0;

    // Tracing. transitionType_ doubles as the "transition underway has
    // not been reported yet" flag.
    TraceSink *traceSink_ = nullptr;
    int traceId_ = kInvalid;
    Cycle transitionStart_ = 0;
    int transitionFrom_ = 0;
    const char *transitionType_ = nullptr;

    // Faults / reliability.
    int faultId_ = kInvalid;
    std::uint64_t *failMask_ = nullptr; ///< sender's dead outputs (setFailFlag)
    std::uint64_t failBit_ = 0;
    std::uint64_t flitsCorrupted_ = 0;
    std::uint64_t flitRetries_ = 0;
    std::uint64_t lockLossEvents_ = 0;
    std::uint64_t flitsDroppedOnFail_ = 0;
    std::uint64_t flitsDroppedOnFailLifetime_ = 0;
    std::uint64_t windowRetries_ = 0;
    CorruptionBooks books_; ///< lifetime; inFlight is computed on read

    // flitCorruptProb() cache, keyed on the operating point it was
    // computed at (kInvalid level: empty).
    int corruptLevel_ = kInvalid;
    double corruptFrac_ = 0.0;
    double corruptProb_ = 0.0;

    static_assert((kInflightCap & (kInflightCap - 1)) == 0);

    // Accounting.
    TimeWeighted powerTw_;    ///< mW, piecewise constant
    TimeWeighted capacityTw_; ///< flits/cycle the link could move
    double windowCapBase_ = 0.0;
    Cycle windowStart_ = 0;

    // Wake-settle accounting (see Params::wakeSettleCycles). While the
    // transmitter settles after a wake from kOff, the power step to the
    // target level is *pending*: it is folded into the integrals at
    // exactly wakeSettleEnd_ by the next advance()/refreshSignals(),
    // or cancelled if a newer signal (fault, re-gate) supersedes it.
    Cycle wakeSettleEnd_ = kNeverCycle;
    Cycle pendingPowerAt_ = kNeverCycle;
    double pendingPowerMw_ = 0.0;
    double pendingVddFrac_ = 0.0;
};

} // namespace oenet

#endif // OENET_LINK_LINK_HH
