#include "network/node.hh"

#include "common/log.hh"
#include "router/flit.hh"

namespace oenet {

Node::Node(NodeId id, const Params &params)
    : id_(id), params_(params), name_("node" + std::to_string(id))
{
    if (params_.numVcs < 1 || params_.vcDepth < 1)
        fatal("Node %u: bad VC configuration", id);
    if (params_.numVcs > PendingCredits::kMaxIndex)
        fatal("Node %u: %d VCs exceed the credit masks", id,
              params_.numVcs);
    credits_.assign(static_cast<std::size_t>(params_.numVcs),
                    params_.vcDepth);
}

void
Node::connectInjection(OpticalLink *link)
{
    injLink_ = link;
}

void
Node::connectEjection(OpticalLink *link, CreditSink *upstream,
                      int upstream_port)
{
    ejLink_ = link;
    ejUpstream_ = upstream;
    ejUpstreamPort_ = upstream_port;
    if (link != nullptr) {
        // Ejection wake edge (idle elision) plus the due cycle.
        link->setReceiver(this, ArrivalFlag(nullptr, 0, &ejAt_));
    }
}

void
Node::setFaultsAttached(bool attached)
{
    ejPolled_ = attached;
    if (ejLink_ == nullptr)
        return;
    // With faults, poll once; the link's poll hold takes over then.
    ejAt_ = attached                  ? 0
            : ejLink_->inFlight() > 0 ? ejLink_->headArrival()
                                      : kNeverCycle;
}

void
Node::enqueuePacket(PacketId id, NodeId dst, int len, Cycle now)
{
    flitizeScratch_.clear(); // keeps its capacity across packets
    flitizePacket(flitizeScratch_, id, id_, dst, len, now);
    for (const Flit &f : flitizeScratch_)
        sourceQueue_.push_back(f);
    packetsEnqueued_++;
    wakeAt(now); // injection wake edge: start serializing this cycle
}

void
Node::returnCredit(int, int vc, Cycle now)
{
    pending_.add(vc, now);
    wakeAt(now + 1); // credit wake edge: apply it on time if parked
}

double
Node::occupancyIntegral(int, Cycle) const
{
    return 0.0;
}

int
Node::bufferCapacity(int) const
{
    return params_.numVcs * params_.vcDepth;
}

void
Node::applyCredits(Cycle now)
{
    pending_.apply(now, [this](int vc, int count) {
        auto v = static_cast<std::size_t>(vc);
        credits_[v] += count;
        if (credits_[v] > params_.vcDepth)
            panic("Node %u: credit overflow on vc %d", id_, vc);
    });
}

void
Node::drainEjection(Cycle now)
{
    if (ejLink_ == nullptr)
        return;
    if (ejAt_ > now)
        return; // nothing has landed, and (with faults) no poll is due
    ejLink_->drainArrivalsDue(now, [this, now](const Flit &flit) {
        // Immediately free the router-side credit for this flit.
        if (ejUpstream_ != nullptr)
            ejUpstream_->returnCredit(ejUpstreamPort_, flit.vc, now);
        if (flit.isPoison()) {
            // Synthetic tail closing a wormhole killed by a link
            // failure: frees resources but is not delivered data.
            poisonTails_++;
            return;
        }
        flitsEjected_++;
        if (flit.isTail()) {
            packetsEjected_++;
            if (sink_ != nullptr)
                sink_->packetEjected(flit, now);
        }
    });
    ejAt_ = ejPolled_                   ? ejLink_->nextPollCycle()
            : ejLink_->inFlight() > 0 ? ejLink_->headArrival()
                                      : kNeverCycle;
}

int
Node::pickFreeVc()
{
    for (int i = 0; i < params_.numVcs; i++) {
        int vc = (nextVcRr_ + i) % params_.numVcs;
        if (credits_[static_cast<std::size_t>(vc)] > 0) {
            nextVcRr_ = (vc + 1) % params_.numVcs;
            return vc;
        }
    }
    return kInvalid;
}

void
Node::inject(Cycle now)
{
    if (injLink_ == nullptr)
        return;
    while (!sourceQueue_.empty() && injLink_->canAccept(now)) {
        Flit &front = sourceQueue_.front();
        int vc;
        if (front.isHead()) {
            if (currentVc_ != kInvalid)
                panic("Node %u: head while packet in progress", id_);
            vc = pickFreeVc();
            if (vc == kInvalid)
                return; // no credits on any VC
        } else {
            vc = currentVc_;
            if (vc == kInvalid)
                panic("Node %u: body flit without an active VC", id_);
            if (credits_[static_cast<std::size_t>(vc)] <= 0)
                return; // downstream buffer full
        }
        Flit flit = front;
        sourceQueue_.pop_front();
        flit.vc = static_cast<std::uint8_t>(vc);
        injLink_->accept(now, flit);
        credits_[static_cast<std::size_t>(vc)]--;
        flitsInjected_++;
        currentVc_ = flit.isTail() ? kInvalid : vc;
    }
}

void
Node::tick(Cycle now)
{
    if (pending_.dueAt(now))
        applyCredits(now);
    drainEjection(now);
    inject(now);
}

Cycle
Node::nextWakeCycle(Cycle now)
{
    // An empty source queue implies no packet is mid-injection (whole
    // packets are enqueued atomically, so the last injected flit of a
    // drained queue was a tail), and pending credits are the only
    // other tick-visible state; everything else is the ejection link's
    // business.
    if (!sourceQueue_.empty() || !pending_.empty())
        return now + 1;
    if (ejPolled_ && ejLink_ != nullptr)
        return ejLink_->nextReceiverEventCycle();
    // Without faults the link's only receiver event is its head
    // arrival, which the due cycle already holds (never when empty).
    return ejAt_;
}

} // namespace oenet
