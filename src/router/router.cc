#include "router/router.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "network/boundary.hh"

namespace oenet {

Router::Router(std::string name, int router_id, const Topology &topo,
               const Params &params)
    : name_(std::move(name)), routerId_(router_id), topo_(topo),
      params_(params),
      restrictedVcs_(topo.numVcClasses() > 1)
{
    if (params_.numVcs < 1)
        fatal("Router %s: need at least one VC", name_.c_str());
    if (params_.numVcs < topo_.numVcClasses())
        fatal("Router %s: %s routing needs %d VC classes but only %d "
              "VCs are configured (raise router.vcs)", name_.c_str(),
              topo_.name(), topo_.numVcClasses(), params_.numVcs);
    if (params_.bufferDepthPerPort < params_.numVcs)
        fatal("Router %s: buffer depth %d cannot cover %d VCs",
              name_.c_str(), params_.bufferDepthPerPort, params_.numVcs);
    vcDepth_ = params_.bufferDepthPerPort / params_.numVcs;

    int ports = topo_.portsPerRouter();
    if (ports > kMaxPorts || ports * params_.numVcs > 64)
        fatal("Router %s: %d ports x %d VCs exceeds allocator masks",
              name_.c_str(), ports, params_.numVcs);
    auto nports = static_cast<std::size_t>(ports);
    auto nflat = static_cast<std::size_t>(ports * params_.numVcs);
    inputs_.resize(nports);
    vcState_.assign(nflat, VcState::kIdle);
    vcOutPort_.assign(nflat, static_cast<std::int16_t>(kInvalid));
    vcOutVc_.assign(nflat, static_cast<std::int16_t>(kInvalid));
    vcOutVcMask_.assign(nflat, 0);
    vcLastActivity_.assign(nflat, 0);
    buffers_.configure(ports * params_.numVcs, vcDepth_);
    portOcc_.assign(nports, 0);
    inBoundary_.assign(nports, nullptr);
    inDrainLink_.assign(nports, nullptr);
    outAllocated_.assign(nflat, 0);
    outCredits_.assign(nflat, 0);
    outMaxCredits_.assign(nflat, 0);
    outLink_.assign(nports, nullptr);
    latchFull_.assign(nports, 0);
    latch_.assign(nports, Flit{});
    saArb_.resize(nports);
    vaArb_.resize(nports);
    saInputArb_.resize(nports);
    vcBits_ = params_.numVcs >= 64 ? ~0ull : (1ull << params_.numVcs) - 1;

    for (int p = 0; p < ports; p++) {
        saArb_[static_cast<std::size_t>(p)].resize(ports);
        vaArb_[static_cast<std::size_t>(p)].resize(ports * params_.numVcs);
        saInputArb_[static_cast<std::size_t>(p)].resize(params_.numVcs);
    }
}

void
Router::connectInput(int port, OpticalLink *link, CreditSink *upstream,
                     int upstream_port)
{
    if (port < 0 || port >= numPorts())
        panic("Router %s: bad input port %d", name_.c_str(), port);
    auto &in = inputs_[static_cast<std::size_t>(port)];
    in.link = link;
    in.upstream = upstream;
    in.upstreamPort = upstream_port;
    inDrainLink_[static_cast<std::size_t>(port)] = link;
    if (link != nullptr) {
        // Arrival wake edge (idle elision) plus this port's due bit.
        link->setReceiver(this, ArrivalFlag(&arrivalDue_, port));
    }
}

void
Router::connectInputBoundary(int port, OpticalLink *link,
                             BoundaryChannel *channel, int upstream_port)
{
    if (port < 0 || port >= numPorts())
        panic("Router %s: bad input port %d", name_.c_str(), port);
    auto &in = inputs_[static_cast<std::size_t>(port)];
    in.link = link; // introspection only; the shuttle is the receiver
    in.boundary = channel;
    in.upstream = channel;
    in.upstreamPort = upstream_port;
    inBoundary_[static_cast<std::size_t>(port)] = channel;
    channel->setArrivalFlag(ArrivalFlag(&arrivalDue_, port));
}

void
Router::setFaultsAttached(bool attached)
{
    faultsAttached_ = attached;
    pollMask_ = 0;
    if (!attached)
        return;
    for (int p = 0; p < numPorts(); p++) {
        if (inDrainLink_[static_cast<std::size_t>(p)] != nullptr)
            pollMask_ |= 1ull << p;
    }
}

bool
Router::inputFailed(const InputPort &in)
{
    return in.boundary != nullptr
               ? in.boundary->failed()
               : in.link != nullptr && in.link->isFailed();
}

void
Router::connectOutput(int port, OpticalLink *link, int downstream_vc_depth)
{
    if (port < 0 || port >= numPorts())
        panic("Router %s: bad output port %d", name_.c_str(), port);
    outLink_[static_cast<std::size_t>(port)] = link;
    for (int v = 0; v < params_.numVcs; v++) {
        int fi = flatIdx(port, v);
        auto f = static_cast<std::size_t>(fi);
        outCredits_[f] = downstream_vc_depth;
        outMaxCredits_[f] = downstream_vc_depth;
        if (downstream_vc_depth > 0)
            outOpen_ |= 1ull << fi;
        else
            outOpen_ &= ~(1ull << fi);
    }
}

void
Router::returnCredit(int port, int vc, Cycle now)
{
    pendingCredits_.push_back(PendingCredit{port, vc, now + 1});
    wakeAt(now + 1); // credit wake edge: apply it on time if parked
}

double
Router::occupancyIntegral(int port, Cycle now) const
{
    return inputs_.at(static_cast<std::size_t>(port))
        .occupancy.integral(now);
}

int
Router::bufferCapacity(int) const
{
    return vcDepth_ * params_.numVcs;
}

int
Router::inputOccupancy(int port) const
{
    return portOcc_.at(static_cast<std::size_t>(port));
}

int
Router::outputCredits(int port, int vc) const
{
    if (port < 0 || port >= numPorts() || vc < 0 || vc >= params_.numVcs)
        panic("Router %s: bad output VC (%d, %d)", name_.c_str(), port,
              vc);
    return outCredits_[static_cast<std::size_t>(flatIdx(port, vc))];
}

int
Router::outputVcCapacity(int port, int vc) const
{
    if (port < 0 || port >= numPorts() || vc < 0 || vc >= params_.numVcs)
        panic("Router %s: bad output VC (%d, %d)", name_.c_str(), port,
              vc);
    return outMaxCredits_[static_cast<std::size_t>(flatIdx(port, vc))];
}

bool
Router::outputVcFree(int port, int vc) const
{
    if (port < 0 || port >= numPorts() || vc < 0 || vc >= params_.numVcs)
        panic("Router %s: bad output VC (%d, %d)", name_.c_str(), port,
              vc);
    return !outAllocated_[static_cast<std::size_t>(flatIdx(port, vc))];
}

OpticalLink *
Router::outputLink(int port) const
{
    return outLink_.at(static_cast<std::size_t>(port));
}

OpticalLink *
Router::inputLink(int port) const
{
    return inputs_.at(static_cast<std::size_t>(port)).link;
}

bool
Router::outputWaiting(int port) const
{
    if (latchFull_.at(static_cast<std::size_t>(port)))
        return true;
    int flats = numPorts() * params_.numVcs;
    for (int f = 0; f < flats; f++) {
        auto s = static_cast<std::size_t>(f);
        if (vcOutPort_[s] == port && !buffers_.empty(f) &&
            (vcState_[s] == VcState::kActive ||
             vcState_[s] == VcState::kVcAlloc))
            return true;
    }
    return false;
}

int
Router::bufferedFor(int port) const
{
    int n = 0;
    int flats = numPorts() * params_.numVcs;
    for (int f = 0; f < flats; f++) {
        if (vcOutPort_[static_cast<std::size_t>(f)] == port)
            n += buffers_.size(f);
    }
    if (latchFull_.at(static_cast<std::size_t>(port)))
        n++;
    return n;
}

int
Router::totalBufferedFlits() const
{
    int n = 0;
    for (int p = 0; p < numPorts(); p++)
        n += inputOccupancy(p);
    for (std::uint8_t full : latchFull_)
        n += full ? 1 : 0;
    return n;
}

void
Router::applyCredits(Cycle now)
{
    std::size_t i = 0;
    while (i < pendingCredits_.size()) {
        const auto &pc = pendingCredits_[i];
        if (pc.effective <= now) {
            int fi = flatIdx(pc.port, pc.vc);
            auto f = static_cast<std::size_t>(fi);
            outCredits_[f]++;
            outOpen_ |= 1ull << fi;
            if (outCredits_[f] > vcDepth_)
                panic("Router %s: credit overflow on output %d vc %d",
                      name_.c_str(), pc.port, pc.vc);
            pendingCredits_[i] = pendingCredits_.back();
            pendingCredits_.pop_back();
        } else {
            i++;
        }
    }
}

void
Router::stageSwitchTraversal(Cycle now)
{
    // Walk only the occupied latches (ascending port order, same as
    // the full scan). SA runs after ST within a tick, so the mask at
    // entry is exactly the set of latches filled in earlier cycles.
    for (std::uint64_t m = latchMask_; m != 0; m &= m - 1) {
        int q = std::countr_zero(m);
        auto s = static_cast<std::size_t>(q);
        OpticalLink *link = outLink_[s];
        if (link == nullptr)
            panic("Router %s: latched flit on unconnected output",
                  name_.c_str());
        if (link->canAccept(now)) {
            link->accept(now, latch_[s]);
            latchFull_[s] = 0;
            latchMask_ &= ~(1ull << q);
            latchCount_--;
        } else if (link->isFailed()) {
            // The link died with this flit waiting; it is lost.
            latchFull_[s] = 0;
            latchMask_ &= ~(1ull << q);
            latchCount_--;
            droppedDeadPort_++;
        }
        // Otherwise the flit waits in the latch; SA skips this port.
    }
}

void
Router::stageSwitchAllocation(Cycle now)
{
    int vcs = params_.numVcs;

    // Stage 1: each input port with an SA-ready VC nominates one of
    // them. saReady_ is flat (p*vcs+v), so an ascending walk visits the
    // ports in ascending order with each port's VCs contiguous; ports
    // with nothing ready are never touched. Requests per output port
    // are accumulated as bit masks for stage 2.
    std::uint64_t port_requests[kMaxPorts];
    int cand_vc[kMaxPorts];
    std::uint64_t nominated = 0; ///< output ports with a request
    for (std::uint64_t m = saReady_; m != 0;) {
        int p = std::countr_zero(m) / vcs;
        int base = p * vcs;
        std::uint64_t port_bits = m & (vcBits_ << base);
        m &= ~port_bits;
        std::uint64_t req = 0;
        for (std::uint64_t b = port_bits; b != 0; b &= b - 1) {
            int f = std::countr_zero(b);
            auto fs = static_cast<std::size_t>(f);
            int q = vcOutPort_[fs];
            // A dead output accepts (and discards) anything, so the
            // wormhole headed there can drain regardless of latch or
            // credit state.
            if (!outDead(q)) {
                if (latchMask_ >> q & 1)
                    continue;
                if (!(outOpen_ >> (q * vcs + vcOutVc_[fs]) & 1))
                    continue;
            }
            req |= 1ull << (f - base);
        }
        if (req == 0)
            continue;
        int winner = saInputArb_[static_cast<std::size_t>(p)].pick(req);
        int q = vcOutPort_[static_cast<std::size_t>(base + winner)];
        if (!(nominated >> q & 1)) {
            nominated |= 1ull << q;
            port_requests[q] = 0;
        }
        port_requests[q] |= 1ull << p;
        cand_vc[p] = winner;
    }

    // Stage 2: each nominated output port picks among its nominating
    // input ports (ascending port order, as a full scan would).
    for (; nominated != 0; nominated &= nominated - 1) {
        int q = std::countr_zero(nominated);
        auto qs = static_cast<std::size_t>(q);
        if (latchMask_ >> q & 1)
            continue;
        int p = saArb_[qs].pick(port_requests[q]);
        int v = cand_vc[p];
        auto &in = inputs_[static_cast<std::size_t>(p)];
        int fi = p * vcs + v;
        auto fs = static_cast<std::size_t>(fi);

        Flit flit = buffers_.pop(fi);
        bufferedFlits_--;
        portOcc_[static_cast<std::size_t>(p)]--;
        in.occupancy.update(now, portOcc_[static_cast<std::size_t>(p)]);
        vcLastActivity_[fs] = now;
        int ov = vcOutVc_[fs];
        if (outDead(q)) {
            // Flits to a hard-failed link are discarded at the switch;
            // output credits are not touched (the far side will never
            // return them).
            droppedDeadPort_++;
        } else {
            flit.vc = static_cast<std::uint8_t>(ov);
            latch_[qs] = flit;
            latchFull_[qs] = 1;
            latchMask_ |= 1ull << q;
            latchCount_++;
            int oi = q * vcs + ov;
            if (--outCredits_[static_cast<std::size_t>(oi)] <= 0)
                outOpen_ &= ~(1ull << oi);
            flitsSwitched_++;
        }

        // Return a credit for the slot we just freed — except for a
        // locally injected poison tail, which never consumed an
        // upstream credit (it was synthesized into the buffer, not
        // sent over the input link).
        if (in.upstream != nullptr && !(flit.isPoison() && inputFailed(in)))
            in.upstream->returnCredit(in.upstreamPort, v, now);

        // The VC stops bidding once drained, or once its wormhole
        // closes (it is then idle or routing the next packet).
        if (flit.isTail() || buffers_.empty(fi))
            saReady_ &= ~(1ull << fi);
        if (flit.isTail()) {
            outAllocated_[static_cast<std::size_t>(q * vcs + ov)] = 0;
            vcOutPort_[fs] = static_cast<std::int16_t>(kInvalid);
            vcOutVc_[fs] = static_cast<std::int16_t>(kInvalid);
            activeVcCount_--;
            if (buffers_.empty(fi)) {
                vcState_[fs] = VcState::kIdle;
            } else {
                if (!buffers_.front(fi).isHead())
                    panic("Router %s: non-head after tail on in %d vc %d",
                          name_.c_str(), p, v);
                vcState_[fs] = VcState::kRouting;
                routingCount_++;
            }
        }
    }
}

void
Router::stageVcAllocation(Cycle now)
{
    (void)now;
    int ports = numPorts();
    int vcs = params_.numVcs;

    // Collect requesting input VCs (flattened index p*vcs + v) per
    // requested output port — a single walk over the flat state array.
    std::uint64_t requests[kMaxPorts] = {};
    int flats = ports * vcs;
    for (int f = 0; f < flats; f++) {
        auto fs = static_cast<std::size_t>(f);
        if (vcState_[fs] == VcState::kVcAlloc)
            requests[vcOutPort_[fs]] |= 1ull << f;
    }

    for (int q = 0; q < ports; q++) {
        if (requests[q] == 0)
            continue;
        auto qs = static_cast<std::size_t>(q);

        if (outDead(q)) {
            // Dead output: grant every requester immediately (VC 0,
            // unconditionally) so wormholes stuck routing to it can
            // drain into the drop path instead of waiting forever for
            // an output VC that will never free.
            for (;;) {
                int winner = vaArb_[qs].pick(requests[q]);
                if (winner < 0)
                    break;
                auto ws = static_cast<std::size_t>(winner);
                vcOutVc_[ws] = 0;
                vcState_[ws] = VcState::kActive;
                if (!buffers_.empty(winner))
                    saReady_ |= 1ull << winner;
                vcAllocCount_--;
                activeVcCount_++;
                requests[q] &= ~(1ull << winner);
            }
            continue;
        }

        // Hand each free output VC to one requester, rotating fairly.
        // With a VC-class topology (torus datelines) each requester
        // may only take output VCs inside the mask its route computed;
        // the unrestricted fabrics keep the mask-free fast path.
        int qbase = q * vcs;
        for (int ov = 0; ov < vcs; ov++) {
            if (outAllocated_[static_cast<std::size_t>(qbase + ov)])
                continue;
            std::uint64_t eligible = requests[q];
            if (restrictedVcs_) {
                for (std::uint64_t rem = eligible; rem != 0;
                     rem &= rem - 1) {
                    int i = std::countr_zero(rem);
                    if (!(vcOutVcMask_[static_cast<std::size_t>(i)] >> ov &
                          1))
                        eligible &= ~(1ull << i);
                }
                if (eligible == 0)
                    continue;
            }
            int winner = vaArb_[qs].pick(eligible);
            if (winner < 0)
                break;
            auto ws = static_cast<std::size_t>(winner);
            vcOutVc_[ws] = static_cast<std::int16_t>(ov);
            vcState_[ws] = VcState::kActive;
            if (!buffers_.empty(winner))
                saReady_ |= 1ull << winner;
            vcAllocCount_--;
            activeVcCount_++;
            outAllocated_[static_cast<std::size_t>(qbase + ov)] = 1;
            requests[q] &= ~(1ull << winner);
        }
    }
}

std::uint64_t
Router::vcMaskForClass(int vc_class) const
{
    int vcs = params_.numVcs;
    std::uint64_t all =
        vcs >= 64 ? ~0ull : (1ull << vcs) - 1;
    if (vc_class == kAnyVcClass)
        return all;
    // Split the VC pool evenly across the topology's classes: class 0
    // gets the low half, class 1 the high half (torus datelines).
    int half = vcs / 2;
    if (vc_class == 0)
        return (1ull << half) - 1;
    return all & ~((1ull << half) - 1);
}

RouteOption
Router::selectRoute(NodeId dst)
{
    RouteOption candidates[kMaxRouteCandidates];
    int n = topo_.routeCandidates(params_.routing, routerId_, dst,
                                  candidates);
    // Route around hard failures where the routing function leaves an
    // alternative; if every productive direction is dead, keep the
    // first candidate and let the drop path reclaim the flits.
    RouteOption live[kMaxRouteCandidates];
    int m = 0;
    for (int i = 0; i < n; i++) {
        if (outDead(candidates[i].port.value()))
            continue;
        live[m++] = candidates[i];
    }
    if (m == 0) {
        live[0] = candidates[0];
        m = 1;
    }
    if (m == 1)
        return live[0];
    // Adaptive selection: prefer the productive direction with the
    // most downstream credit (least congested), ties to the first.
    RouteOption best = live[0];
    int best_credits = -1;
    for (int i = 0; i < m; i++) {
        int base = live[i].port.value() * params_.numVcs;
        int credits = 0;
        for (int v = 0; v < params_.numVcs; v++)
            credits += outCredits_[static_cast<std::size_t>(base + v)];
        if (credits > best_credits) {
            best_credits = credits;
            best = live[i];
        }
    }
    return best;
}

void
Router::stageRouteComputation(Cycle now)
{
    (void)now;
    int flats = numPorts() * params_.numVcs;
    for (int f = 0; f < flats; f++) {
        auto fs = static_cast<std::size_t>(f);
        if (vcState_[fs] != VcState::kRouting)
            continue;
        if (buffers_.empty(f) || !buffers_.front(f).isHead())
            panic("Router %s: routing state without head flit",
                  name_.c_str());
        RouteOption route = selectRoute(buffers_.front(f).dst);
        vcOutPort_[fs] = static_cast<std::int16_t>(route.port.value());
        vcOutVcMask_[fs] = vcMaskForClass(route.vcClass);
        vcState_[fs] = VcState::kVcAlloc;
        routingCount_--;
        vcAllocCount_++;
    }
}

void
Router::drainArrivals(Cycle now)
{
    // Only ports whose feeder raised the due bit, plus (with faults)
    // every directly polled link; any other port has nothing due.
    for (std::uint64_t m = arrivalDue_ | pollMask_; m != 0; m &= m - 1) {
        int p = std::countr_zero(m);
        auto deliver = [&](const Flit &flit) {
            int v = flit.vc;
            if (v < 0 || v >= params_.numVcs)
                panic("Router %s: flit with bad VC %d on input %d",
                      name_.c_str(), v, p);
            int fi = flatIdx(p, v);
            auto fs = static_cast<std::size_t>(fi);
            if (buffers_.full(fi))
                panic("Router %s: input %d vc %d overflow (credit bug)",
                      name_.c_str(), p, v);
            if (vcState_[fs] == VcState::kIdle) {
                if (!flit.isHead())
                    panic("Router %s: body flit into idle in %d vc %d",
                          name_.c_str(), p, v);
                vcState_[fs] = VcState::kRouting;
                routingCount_++;
            } else if (vcState_[fs] == VcState::kActive) {
                saReady_ |= 1ull << fi;
            }
            buffers_.push(fi, flit);
            vcLastActivity_[fs] = now;
            bufferedFlits_++;
            portOcc_[static_cast<std::size_t>(p)]++;
            inputs_[static_cast<std::size_t>(p)].occupancy.update(
                now, portOcc_[static_cast<std::size_t>(p)]);
        };
        if (BoundaryChannel *bc = inBoundary_[static_cast<std::size_t>(p)]) {
            // Channeled input: everything on the ready side has an
            // arrival stamp <= now (the shuttle staged it one cycle
            // before arrival).
            while (bc->hasReadyArrival())
                deliver(bc->popReadyArrival());
            arrivalDue_ &= ~(1ull << p);
        } else {
            OpticalLink *l = inDrainLink_[static_cast<std::size_t>(p)];
            l->drainArrivalsDue(now, deliver);
            // Flits still on the wire keep the port due: accept()
            // raised the bit once, at send time.
            if (l->inFlight() == 0)
                arrivalDue_ &= ~(1ull << p);
        }
    }
}

void
Router::reclaimOrphans(Cycle now)
{
    for (int p = 0; p < numPorts(); p++) {
        auto &in = inputs_[static_cast<std::size_t>(p)];
        if (!inputFailed(in))
            continue;
        for (int v = 0; v < params_.numVcs; v++) {
            int fi = flatIdx(p, v);
            auto fs = static_cast<std::size_t>(fi);
            // kActive with an empty buffer means mid-wormhole: the
            // head went downstream, the rest died with the link. Once
            // the timeout confirms nothing more is coming, close the
            // wormhole with a synthetic poison tail; normal switch
            // allocation forwards it and frees the allocated state at
            // every hop downstream.
            if (vcState_[fs] != VcState::kActive || !buffers_.empty(fi))
                continue;
            if (now < vcLastActivity_[fs] + orphanTimeout_)
                continue;
            Flit tail{};
            tail.flags = Flit::kTailFlag | Flit::kPoisonFlag;
            buffers_.push(fi, tail);
            saReady_ |= 1ull << fi;
            vcLastActivity_[fs] = now;
            bufferedFlits_++;
            portOcc_[static_cast<std::size_t>(p)]++;
            in.occupancy.update(now,
                                portOcc_[static_cast<std::size_t>(p)]);
            poisoned_++;
        }
    }
}

void
Router::tick(Cycle now)
{
    if (!pendingCredits_.empty())
        applyCredits(now);
    if (latchCount_ > 0)
        stageSwitchTraversal(now);
    if (saReady_ != 0)
        stageSwitchAllocation(now);
    if (vcAllocCount_ > 0)
        stageVcAllocation(now);
    if (routingCount_ > 0)
        stageRouteComputation(now);
    if ((arrivalDue_ | pollMask_) != 0)
        drainArrivals(now);
    if (orphanTimeout_ != 0 && (now & 1023) == 0)
        reclaimOrphans(now);
}

void
Router::auditMasks() const
{
    int ports = numPorts();
    int vcs = params_.numVcs;
    std::uint64_t sa_ready = 0;
    std::uint64_t out_open = 0;
    std::uint64_t latched = 0;
    for (int f = 0; f < ports * vcs; f++) {
        auto fs = static_cast<std::size_t>(f);
        if (vcState_[fs] == VcState::kActive && !buffers_.empty(f))
            sa_ready |= 1ull << f;
        if (outCredits_[fs] > 0)
            out_open |= 1ull << f;
    }
    for (int q = 0; q < ports; q++) {
        if (latchFull_[static_cast<std::size_t>(q)])
            latched |= 1ull << q;
    }
    if (sa_ready != saReady_ || out_open != outOpen_ ||
        latched != latchMask_)
        panic("Router %s: stale work mask (saReady %#llx want %#llx, "
              "outOpen %#llx want %#llx, latch %#llx want %#llx)",
              name_.c_str(), static_cast<unsigned long long>(saReady_),
              static_cast<unsigned long long>(sa_ready),
              static_cast<unsigned long long>(outOpen_),
              static_cast<unsigned long long>(out_open),
              static_cast<unsigned long long>(latchMask_),
              static_cast<unsigned long long>(latched));

    // Arrival-due bits, as they stand between kernel steps:
    //  - direct link: up exactly while flits are in flight (a polled,
    //    fault-attached link may keep a stale bit after a hard
    //    failure dropped its ring);
    //  - direct-mode channel: up exactly while flits are ready (staged
    //    at t, drained at t+1);
    //  - cross-shard channel: always down (raised by the pre-pass,
    //    cleared by the same cycle's drain; flits published at the end
    //    of this step wait for the next pre-pass).
    for (int p = 0; p < ports; p++) {
        auto ps = static_cast<std::size_t>(p);
        bool due = arrivalDue_ >> p & 1;
        bool want = false;
        if (const BoundaryChannel *bc = inBoundary_[ps])
            want = bc->direct() && bc->hasReadyArrival();
        else if (const OpticalLink *l = inDrainLink_[ps])
            want = l->inFlight() > 0 || (due && (pollMask_ >> p & 1));
        if (due != want)
            panic("Router %s: arrival-due bit of input %d is %d, want %d",
                  name_.c_str(), p, due ? 1 : 0, want ? 1 : 0);
    }
}

Cycle
Router::nextWakeCycle(Cycle now)
{
    // Any pipeline population keeps the router in the per-cycle pass.
    // activeVcCount_ matters even with empty buffers: an open wormhole
    // may still owe flits (or a poison tail on a failed input link).
    if (bufferedFlits_ > 0 || latchCount_ > 0 || routingCount_ > 0 ||
        vcAllocCount_ > 0 || activeVcCount_ > 0 ||
        !pendingCredits_.empty())
        return now + 1;
    Cycle wake = kNeverCycle;
    for (const auto &in : inputs_) {
        // Channeled inputs contribute nothing: their link belongs to
        // the source shard (reading it here would race its walk), and
        // every delivery comes with a pre-pass wake edge instead.
        if (in.boundary != nullptr)
            continue;
        if (in.link != nullptr)
            wake = std::min(wake, in.link->nextReceiverEventCycle());
    }
    return wake;
}

} // namespace oenet
