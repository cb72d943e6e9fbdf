#include "sim/kernel.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <utility>

#include "common/log.hh"

namespace oenet {

thread_local Kernel::Domain *Kernel::tlsDomain_ = nullptr;

namespace {

/** One spin-wait iteration: cheap CPU hint first, OS yield once the
 *  wait is clearly longer than a pipeline hiccup. */
inline void
spinPause(int &spins)
{
    if (++spins < 1024) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#endif
    } else {
        std::this_thread::yield();
    }
}

} // namespace

Kernel::Kernel()
{
    domains_.push_back(std::make_unique<Domain>());
    domains_[0]->index = 0;
}

Kernel::~Kernel()
{
    if (!workers_.empty()) {
        quit_.store(true, std::memory_order_relaxed);
        phaseGen_.fetch_add(1, std::memory_order_release);
        for (auto &w : workers_)
            w.join();
    }
}

void
Kernel::addTicking(Ticking *component)
{
    if (!component)
        panic("Kernel::addTicking: null component");
    if (component->kernel_ && component->kernel_ != this)
        panic("Kernel::addTicking: component already registered "
              "with another kernel");
    if (domains_[0]->inTickPass)
        panic("Kernel::addTicking: registration during a tick pass");
    component->kernel_ = this;
    component->tickOrder_ = static_cast<std::uint32_t>(ticking_.size());
    component->domainIdx_ = 0;
    component->asleep_ = false;
    component->pendingWake_ = kNeverCycle;
    ticking_.push_back(component);
    Domain &dom = *domains_[0];
    // Appended in order, so the members stay sorted by tick order.
    component->slot_ = static_cast<std::uint32_t>(dom.members.size());
    dom.members.push_back(component);
    if (slotsDirty_)
        return; // the pending settleSlots sets its bit
    if ((component->slot_ & 63) == 0)
        dom.activeBits.push_back(0);
    admit(dom, component);
}

void
Kernel::reslot(Domain &dom)
{
    dom.activeBits.assign((dom.members.size() + 63) / 64, 0);
    dom.activeN = 0;
    for (std::size_t i = 0; i < dom.members.size(); i++) {
        Ticking *t = dom.members[i];
        t->slot_ = static_cast<std::uint32_t>(i);
        if (!t->asleep_) {
            dom.activeBits[i >> 6] |= 1ull << (i & 63);
            dom.activeN++;
        }
    }
}

void
Kernel::configureSharding(int shards)
{
    if (shards < 1)
        panic("Kernel::configureSharding: shards must be >= 1");
    if (phased_)
        panic("Kernel::configureSharding: already configured");
    if (now_ != 0)
        panic("Kernel::configureSharding: must run before the first step");
    phased_ = true;
    shards_ = shards;
    for (int d = 1; d <= shards; d++) {
        domains_.push_back(std::make_unique<Domain>());
        domains_.back()->index = d;
    }
    // The driving thread runs shard domain 1's phase itself; domains
    // 2..N each get a worker. One shard therefore needs no threads at
    // all while exercising the exact same phase structure.
    for (int d = 2; d <= shards; d++)
        workers_.emplace_back([this, d] { workerLoop(d); });
}

void
Kernel::setDomain(Ticking *component, int domain)
{
    if (!component || component->kernel_ != this)
        panic("Kernel::setDomain: component not registered here");
    if (domain < 0 || domain > shards_)
        panic("Kernel::setDomain: domain %d out of range [0, %d]",
              domain, shards_);
    if (now_ != 0)
        panic("Kernel::setDomain: must run before the first step");
    Domain &from = *domains_[component->domainIdx_];
    std::erase(from.members, component);
    component->domainIdx_ = static_cast<std::uint16_t>(domain);
    Domain &to = *domains_[domain];
    to.members.insert(std::lower_bound(to.members.begin(),
                                       to.members.end(), component,
                                       [](const Ticking *a,
                                          const Ticking *b) {
                                           return a->tickOrder_ <
                                                  b->tickOrder_;
                                       }),
                      component);
    // Slots are renumbered once, before the first step (settleSlots):
    // configuration moves every component, and renumbering per move
    // would make it quadratic.
    slotsDirty_ = true;
}

void
Kernel::settleSlots()
{
    for (auto &dom : domains_)
        reslot(*dom);
    slotsDirty_ = false;
}

void
Kernel::setDomainPrePass(int domain, std::function<void(Cycle)> hook)
{
    if (domain < 1 || domain > shards_)
        panic("Kernel::setDomainPrePass: domain %d out of range [1, %d]",
              domain, shards_);
    domains_[domain]->prePass = std::move(hook);
}

void
Kernel::addPostPass(std::function<void(Cycle)> hook)
{
    postPass_.push_back(std::move(hook));
}

void
Kernel::markDomainWork(int domain)
{
    domains_[domain]->pendingWork = true;
}

int
Kernel::shardPassDomain()
{
    return tlsDomain_->index;
}

std::uint32_t
Kernel::shardPassOrder()
{
    return tlsDomain_->passOrder;
}

std::size_t
Kernel::activeCount() const
{
    std::size_t n = 0;
    if (slotsDirty_) {
        for (const Ticking *t : ticking_)
            n += t->asleep_ ? 0 : 1;
        return n;
    }
    for (const auto &dom : domains_)
        n += dom->activeN;
    return n;
}

void
Kernel::auditActive()
{
    if (slotsDirty_)
        settleSlots();
    for (const auto &dom : domains_) {
        std::size_t set = 0;
        for (std::uint64_t w : dom->activeBits)
            set += static_cast<std::size_t>(std::popcount(w));
        if (dom->activeBits.size() != (dom->members.size() + 63) / 64 ||
            set != dom->activeN)
            panic("Kernel: domain %d active set holds %zu bits in %zu "
                  "words, counted %zu, for %zu members",
                  dom->index, set, dom->activeBits.size(), dom->activeN,
                  dom->members.size());
        for (std::size_t i = 0; i < dom->members.size(); i++) {
            const Ticking *t = dom->members[i];
            if (t->slot_ != i || t->domainIdx_ != dom->index ||
                (i > 0 && dom->members[i - 1]->tickOrder_ >= t->tickOrder_))
                panic("Kernel: domain %d slot %zu holds component %u "
                      "(slot %u, domain %d) out of tick order",
                      dom->index, i, t->tickOrder_, t->slot_,
                      static_cast<int>(t->domainIdx_));
            bool bit = dom->activeBits[i >> 6] >> (i & 63) & 1;
            if (bit == t->asleep_)
                panic("Kernel: domain %d slot %zu (component %u) has "
                      "active bit %d while %s",
                      dom->index, i, t->tickOrder_, bit ? 1 : 0,
                      t->asleep_ ? "asleep" : "awake");
        }
    }
}

void
Kernel::step()
{
    if (slotsDirty_)
        settleSlots();
    if (now_ == nextEpoch_) {
        epochHook_(now_);
        nextEpoch_ += epochInterval_;
    }
    events_.runDue(now_);
    // Serial phase: domain 0 on the driving thread. This is the whole
    // kernel when sharding is off.
    runDomainPass(*domains_[0], now_);
    if (phased_ && !shardsQuiet()) {
        for (int d = 1; d <= shards_; d++)
            domains_[d]->pendingWork = false;
        if (workers_.empty()) {
            for (int d = 1; d <= shards_; d++)
                runShardPhase(*domains_[d], now_);
        } else {
            phaseCycle_ = now_;
            phaseDone_.store(0, std::memory_order_relaxed);
            phaseGen_.fetch_add(1, std::memory_order_release);
            runShardPhase(*domains_[1], now_);
            const int expected = static_cast<int>(workers_.size());
            int spins = 0;
            while (phaseDone_.load(std::memory_order_acquire) < expected)
                spinPause(spins);
        }
        for (auto &hook : postPass_)
            hook(now_);
    }
    now_++;
}

void
Kernel::runDomainPass(Domain &dom, Cycle now)
{
    if (!idleElision_) {
        for (Ticking *t : dom.members) {
            dom.passOrder = t->tickOrder_;
            t->tick(now);
        }
        return;
    }
    // Admit every component whose timed wake is due. Entries are
    // lazily deleted: pendingWake_ is the authority, so a heap entry
    // that was superseded (component woke earlier and re-armed later)
    // is simply skipped.
    while (!dom.wakeHeap.empty() && dom.wakeHeap.top().at <= now) {
        Ticking *c = dom.wakeHeap.top().component;
        dom.wakeHeap.pop();
        if (c->asleep_ && c->pendingWake_ <= now)
            admit(dom, c);
    }
    dom.inTickPass = true;
    dom.admitted = false;
    // Walk the set bits in ascending (tick) order from a copy of each
    // word. A wake edge may set a bit past the cursor (never at or
    // before it; see wakeSleeping), and that component still ticks
    // this cycle: admit raises dom.admitted, and the word is re-read
    // then. Nothing resizes the arrays mid-pass (membership is
    // configuration-time), so their bases stay put.
    std::uint64_t *bits = dom.activeBits.data();
    Ticking *const *members = dom.members.data();
    const std::size_t words = dom.activeBits.size();
    for (std::size_t w = 0; w < words; w++) {
        std::uint64_t word = bits[w];
        while (word != 0) {
            int b = std::countr_zero(word);
            word &= word - 1;
            Ticking *t = members[w << 6 | static_cast<std::size_t>(b)];
            // Start loading the next component's object (its vtable
            // pointer first) while this one ticks.
            if (word != 0)
                __builtin_prefetch(
                    members[w << 6 | static_cast<std::size_t>(
                                         std::countr_zero(word))]);
            dom.passOrder = t->tickOrder_;
            t->tick(now);
            Cycle wake = t->nextWakeCycle(now);
            // Park hysteresis: a component due again at now+2 would
            // pay a heap push and pop just to skip a single cycle;
            // ticking it through the gap is cheaper. The extra tick is
            // a no-op by the quiescence contract (elision off ticks
            // everything every cycle and stays byte-identical), so
            // output is unchanged.
            if (wake > now + 2) {
                t->asleep_ = true;
                t->pendingWake_ = wake;
                if (wake != kNeverCycle)
                    dom.wakeHeap.push(WakeEntry{wake, t});
                bits[w] &= ~(1ull << b);
                dom.activeN--;
            }
            if (dom.admitted) {
                dom.admitted = false;
                word = bits[w] & ~((2ull << b) - 1); // bits past b
            }
        }
    }
    dom.inTickPass = false;
}

void
Kernel::runShardPhase(Domain &dom, Cycle now)
{
    tlsDomain_ = &dom;
    dom.passOrder = 0; // pre-pass emissions sort before any tick's
    if (dom.prePass)
        dom.prePass(now);
    runDomainPass(dom, now);
    tlsDomain_ = nullptr;
}

bool
Kernel::shardsQuiet() const
{
    if (!idleElision_)
        return false;
    for (int d = 1; d <= shards_; d++) {
        const Domain &dom = *domains_[d];
        if (dom.activeN != 0 || dom.pendingWork)
            return false;
        // A stale heap head (superseded wake) conservatively runs the
        // phase; the domain's own admit loop then discards it.
        if (!dom.wakeHeap.empty() && dom.wakeHeap.top().at <= now_)
            return false;
    }
    return true;
}

void
Kernel::workerLoop(int domain_index)
{
    std::uint64_t seen = 0;
    for (;;) {
        int spins = 0;
        while (phaseGen_.load(std::memory_order_acquire) == seen)
            spinPause(spins);
        seen++;
        if (quit_.load(std::memory_order_relaxed))
            return;
        runShardPhase(*domains_[domain_index], phaseCycle_);
        phaseDone_.fetch_add(1, std::memory_order_release);
    }
}

void
Kernel::wakeSleeping(Ticking *component, Cycle at)
{
    Domain &dom = *domains_[component->domainIdx_];
    if (tlsDomain_ && tlsDomain_ != &dom)
        panic("Kernel: cross-shard wake of component %u from domain %d "
              "during a parallel pass",
              component->tickOrder_, tlsDomain_->index);
    if (at <= now_) {
        // Due immediately. Mid-pass we may only insert past the
        // cursor; a wake aimed at an already-passed position ticks
        // next cycle instead — exactly when an always-awake component
        // would first observe the time-tagged interaction.
        if (!dom.inTickPass || component->tickOrder_ > dom.passOrder) {
            admit(dom, component);
            return;
        }
        at = now_ + 1;
    }
    if (at < component->pendingWake_) {
        component->pendingWake_ = at;
        dom.wakeHeap.push(WakeEntry{at, component});
    }
}

void
Kernel::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; i++)
        step();
}

void
Kernel::setIdleElision(bool on)
{
    if (idleElision_ == on)
        return;
    idleElision_ = on;
    if (!on) {
        // Re-admit everyone; the classic full pass resumes next step.
        for (Ticking *t : ticking_) {
            t->asleep_ = false;
            t->pendingWake_ = kNeverCycle;
        }
        settleSlots();
        for (auto &dom : domains_)
            dom->wakeHeap = {};
    }
}

void
Kernel::setEpochHook(Cycle interval, std::function<void(Cycle)> hook)
{
    if (interval == 0 || !hook) {
        epochHook_ = nullptr;
        epochInterval_ = 0;
        nextEpoch_ = kNeverCycle;
        return;
    }
    epochHook_ = std::move(hook);
    epochInterval_ = interval;
    nextEpoch_ = now_ + interval;
}

void
Kernel::schedule(Cycle when, EventQueue::Action action)
{
    events_.schedule(when, std::move(action));
}

void
Kernel::schedulePeriodic(Cycle first, Cycle period,
                         std::function<void(Cycle)> action)
{
    if (period == 0)
        panic("Kernel::schedulePeriodic: zero period");
    events_.schedulePeriodic(first, period, std::move(action));
}

} // namespace oenet
