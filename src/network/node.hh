/**
 * @file
 * Processing node model: one board in a rack (Fig. 4(a)).
 *
 * A node owns the transmitter of its injection link (node -> router) and
 * the receiver of its ejection link (router -> node). Packets queue in
 * an unbounded source FIFO (so injection backpressure shows up as source
 * queueing delay, which the paper's latency metric includes), are
 * flitized, and trickle onto the injection link under credit flow
 * control — one packet at a time, wormhole-style, on a round-robin
 * choice of virtual channel. Ejected flits are consumed immediately;
 * the tail flit of each packet reports the packet's latency to the
 * attached PacketSink.
 */

#ifndef OENET_NETWORK_NODE_HH
#define OENET_NETWORK_NODE_HH

#include <string>
#include <vector>

#include "common/ring_buffer.hh"
#include "link/endpoints.hh"
#include "link/link.hh"
#include "sim/kernel.hh"

namespace oenet {

/** Observer of packet ejections (latency accounting lives in core/). */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;

    /** Called when the tail flit of a packet leaves the network. */
    virtual void packetEjected(const Flit &tail, Cycle now) = 0;
};

class Node final : public Ticking,
                   public CreditSink,
                   public OccupancyProvider
{
  public:
    struct Params
    {
        int numVcs = 2;
        int vcDepth = 8; ///< per-VC credit pool at the router input
    };

    Node(NodeId id, const Params &params);

    /** Attach the link this node transmits on. */
    void connectInjection(OpticalLink *link);

    /** Attach the link this node receives on, plus the router (credit
     *  sink) and the router's output-port index for that link. */
    void connectEjection(OpticalLink *link, CreditSink *upstream,
                         int upstream_port);

    void setPacketSink(PacketSink *sink) { sink_ = sink; }

    /** Tell the node whether a fault injector is attached to its
     *  ejection link (Network::setFaultInjector). Only then is the
     *  link polled at every awake tick its poll can do anything
     *  (OpticalLink::nextPollCycle): the poll drives its lazy CRC
     *  replay and fault walk (OpticalLink::drainArrivalsDue). */
    void setFaultsAttached(bool attached);

    /** Queue a packet of @p len flits for @p dst, created at @p now. */
    void enqueuePacket(PacketId id, NodeId dst, int len, Cycle now);

    void tick(Cycle now) override;

    /**
     * Quiescence (idle elision): a node with an empty source queue and
     * no pending credits has a no-op tick; it parks until the ejection
     * link's next event. Wake edges: enqueuePacket, a returned
     * injection credit, and a flit accepted onto the ejection link.
     */
    Cycle nextWakeCycle(Cycle now) override;

    // CreditSink: the router returns injection-link credits to us.
    void returnCredit(int port, int vc, Cycle now) override;

    // OccupancyProvider for the ejection buffer. The node drains
    // arrivals immediately, so occupancy is identically zero; ejection
    // links therefore always look uncongested to the policy.
    double occupancyIntegral(int port, Cycle now) const override;
    int bufferCapacity(int port) const override;

    NodeId id() const { return id_; }

    /** Flits waiting in the source queue (injection backlog). */
    std::size_t sourceQueueFlits() const { return sourceQueue_.size(); }

    std::uint64_t packetsEnqueued() const { return packetsEnqueued_; }
    std::uint64_t packetsEjected() const { return packetsEjected_; }
    std::uint64_t flitsInjected() const { return flitsInjected_; }
    std::uint64_t flitsEjected() const { return flitsEjected_; }

    /** Synthetic poison tails consumed (wormholes killed upstream by a
     *  hard link failure; not delivered data). */
    std::uint64_t poisonTails() const { return poisonTails_; }

    /** Injection credits currently held for @p vc. At quiescence on a
     *  fault-free fabric this must equal injectionVcCapacity()
     *  (conservation audit). */
    int injectionCredits(int vc) const
    {
        return credits_.at(static_cast<std::size_t>(vc));
    }

    /** Per-VC credit pool backing the injection link. */
    int injectionVcCapacity() const { return params_.vcDepth; }

    int numVcs() const { return params_.numVcs; }

    /** Returned credits not yet applied (empty at quiescence). */
    std::size_t pendingCreditCount() const { return pending_.size(); }

  private:
    void drainEjection(Cycle now);
    void inject(Cycle now);
    void applyCredits(Cycle now);
    int pickFreeVc();

    NodeId id_;
    Params params_;
    std::string name_;

    OpticalLink *injLink_ = nullptr;
    OpticalLink *ejLink_ = nullptr;
    /** The ejection link's due cycle (ArrivalFlag): without faults its
     *  head's arrival (kNeverCycle while empty), from which the link is
     *  drained and at which a parking node wakes; with faults its next
     *  poll cycle. */
    Cycle ejAt_ = kNeverCycle;
    bool ejPolled_ = false; ///< faults attached (see ejAt_)
    CreditSink *ejUpstream_ = nullptr;
    int ejUpstreamPort_ = kInvalid;
    PacketSink *sink_ = nullptr;

    RingBuffer<Flit> sourceQueue_;
    std::vector<Flit> flitizeScratch_; ///< reused by enqueuePacket
    std::vector<int> credits_;
    PendingCredits pending_; ///< by VC
    int currentVc_ = kInvalid; ///< VC of the packet being injected
    int nextVcRr_ = 0;

    std::uint64_t packetsEnqueued_ = 0;
    std::uint64_t packetsEjected_ = 0;
    std::uint64_t flitsInjected_ = 0;
    std::uint64_t flitsEjected_ = 0;
    std::uint64_t poisonTails_ = 0;
};

} // namespace oenet

#endif // OENET_NETWORK_NODE_HH
