/**
 * @file
 * Interfaces between a link and the entities at its two ends.
 *
 * CreditSink: the upstream sender of a link tracks credits for the
 * downstream input buffer; when the receiver drains a flit it returns a
 * credit through this interface. Implementations apply the credit with a
 * one-cycle delay so results do not depend on tick ordering.
 *
 * PendingCredits: the returned credits a sender holds until the cycle
 * they apply, in two buckets keyed by that cycle's parity.
 *
 * ArrivalFlag: the receiver's per-port "arrival due" bit, raised by
 * whatever feeds the port so the receiver drains only ports with work.
 *
 * OccupancyProvider: the power-aware policy needs the downstream input
 * buffer utilization B_u (Section 3.3). Receivers expose the
 * time-integral of their buffer occupancy so the controller can compute
 * exact window averages without per-cycle sampling. Architecturally this
 * is the same information the sender's credit counters carry.
 */

#ifndef OENET_LINK_ENDPOINTS_HH
#define OENET_LINK_ENDPOINTS_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/log.hh"

#include "common/types.hh"

namespace oenet {

/**
 * One input port's "arrival due" bit in its receiver's port mask. The
 * link or boundary channel feeding the port raises it, on the
 * receiver's own thread, whenever it makes a flit available to drain
 * there; the receiver walks only raised ports and clears a bit once
 * the port has nothing left in flight. A link's flag may also carry
 * the port's due cycle, the first cycle at which draining the port can
 * do anything: every raise lowers it to the flit's arrival cycle, and
 * a fault-attached link also lowers it to its event horizon (a poll
 * there walks the link). The receiver resets it after each drain (to
 * the link's head arrival, its next poll cycle, or kNeverCycle once
 * the link is empty). Either part may be absent; default-constructed
 * the flag is unattached and does nothing, so a link or channel with
 * no router behind it (unit tests) keeps working.
 */
class ArrivalFlag
{
  public:
    ArrivalFlag() = default;
    ArrivalFlag(std::uint64_t *mask, int bit, Cycle *due = nullptr)
        : mask_(mask), due_(due), bit_(std::uint64_t{1} << bit)
    {
    }

    /** Raise the bit for a flit drainable from cycle @p at. */
    void raise(Cycle at) const
    {
        lowerDue(at);
        if (mask_ != nullptr)
            *mask_ |= bit_;
    }

    /** Make the port due no later than cycle @p at. */
    void lowerDue(Cycle at) const
    {
        if (due_ != nullptr && at < *due_)
            *due_ = at;
    }

  private:
    std::uint64_t *mask_ = nullptr;
    Cycle *due_ = nullptr;
    std::uint64_t bit_ = 0;
};

class CreditSink
{
  public:
    virtual ~CreditSink() = default;

    /** Return one credit for @p vc of the sender's output @p port.
     *  Takes effect at cycle @p now + 1. */
    virtual void returnCredit(int port, int vc, Cycle now) = 0;
};

/**
 * Credits returned to a sender (Router, Node) and not yet applied,
 * indexed by the sender's flat output VC (< kMaxIndex). A credit
 * returned at t applies at exactly t+1, and the return wakes the
 * sender for that cycle, so two buckets keyed by the parity of the due
 * cycle hold every pending credit and a tick at t applies bucket t & 1
 * only. Each bucket is a count per index plus a mask of the nonzero
 * counts, and records its due cycle: a credit due at a second cycle in
 * one bucket, or a bucket applied at another cycle, means the sender
 * missed a tick, and panics.
 */
class PendingCredits
{
  public:
    static constexpr int kMaxIndex = 64;

    /** Record one credit for @p index, returned at @p now. */
    void add(int index, Cycle now)
    {
        Cycle at = now + 1;
        Bucket &b = buckets_[at & 1];
        if (b.mask != 0 && b.at != at)
            panic("pending credits: credit due at %llu returned while "
                  "credits due at %llu are pending",
                  static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(b.at));
        b.at = at;
        b.count[index]++;
        b.mask |= std::uint64_t{1} << index;
    }

    /** True if credits are due at @p now. */
    bool dueAt(Cycle now) const { return buckets_[now & 1].mask != 0; }

    bool empty() const { return (buckets_[0].mask | buckets_[1].mask) == 0; }

    /** Credits pending in both buckets. */
    std::size_t size() const
    {
        std::size_t n = 0;
        for (const Bucket &b : buckets_) {
            for (std::uint64_t m = b.mask; m != 0; m &= m - 1)
                n += static_cast<std::size_t>(b.count[std::countr_zero(m)]);
        }
        return n;
    }

    /** Empty the bucket due at @p now through @p fn(index, count), in
     *  ascending index order. @pre dueAt(now). */
    template <class Fn>
    void apply(Cycle now, Fn &&fn)
    {
        Bucket &b = buckets_[now & 1];
        if (b.at != now)
            panic("pending credits: credits due at %llu applied at %llu",
                  static_cast<unsigned long long>(b.at),
                  static_cast<unsigned long long>(now));
        for (std::uint64_t m = b.mask; m != 0; m &= m - 1) {
            int index = std::countr_zero(m);
            int count = b.count[index];
            b.count[index] = 0;
            fn(index, count);
        }
        b.mask = 0;
    }

  private:
    struct Bucket
    {
        Cycle at = 0;           ///< due cycle (valid while mask != 0)
        std::uint64_t mask = 0; ///< bit i: count[i] > 0
        std::int32_t count[kMaxIndex] = {};
    };
    Bucket buckets_[2]; ///< indexed by due cycle & 1
};

class OccupancyProvider
{
  public:
    virtual ~OccupancyProvider() = default;

    /** Time-integral (flit-cycles) of buffer occupancy at input
     *  @p port since simulation start, evaluated at @p now. */
    virtual double occupancyIntegral(int port, Cycle now) const = 0;

    /** Total flit capacity of the input buffer at @p port. */
    virtual int bufferCapacity(int port) const = 0;
};

} // namespace oenet

#endif // OENET_LINK_ENDPOINTS_HH
