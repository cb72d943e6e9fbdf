/**
 * @file
 * Interfaces between a link and the entities at its two ends.
 *
 * CreditSink: the upstream sender of a link tracks credits for the
 * downstream input buffer; when the receiver drains a flit it returns a
 * credit through this interface. Implementations apply the credit with a
 * one-cycle delay so results do not depend on tick ordering.
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

#include <cstdint>

#include "common/types.hh"

namespace oenet {

/**
 * One input port's "arrival due" bit in its receiver's port mask. The
 * link or boundary channel feeding the port raises it, on the
 * receiver's own thread, whenever it makes a flit available to drain
 * there; the receiver walks only raised ports and clears a bit once
 * the port has nothing left in flight. Default-constructed it is
 * unattached and raise() does nothing, so a link or channel with no
 * router behind it (node ejection, unit tests) keeps working.
 */
class ArrivalFlag
{
  public:
    ArrivalFlag() = default;
    ArrivalFlag(std::uint64_t *mask, int bit)
        : mask_(mask), bit_(std::uint64_t{1} << bit)
    {
    }

    void raise() const
    {
        if (mask_ != nullptr)
            *mask_ |= bit_;
    }

  private:
    std::uint64_t *mask_ = nullptr;
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
