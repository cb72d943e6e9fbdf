/**
 * @file
 * Arbiters and allocators for the router's VA and SA pipeline stages.
 *
 * Both allocation stages are built from rotating-priority (round-robin)
 * arbiters — the standard separable organization: switch allocation
 * arbitrates first among the VCs of each input port, then among input
 * ports at each output port; VC allocation pairs requesting input VCs
 * with free output VCs in rotating order.
 *
 * Request sets are 64-bit masks, so a pick is two bit-scans — the
 * router executes thousands of arbitrations per simulated cycle, and
 * this path dominates simulator throughput.
 */

#ifndef OENET_ROUTER_ALLOCATORS_HH
#define OENET_ROUTER_ALLOCATORS_HH

#include <bit>
#include <cstdint>

namespace oenet {

/**
 * Rotating-priority arbiter over up to 64 requesters. pick() scans from
 * the slot after the previous winner, so every persistent requester is
 * served within `size` rounds.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(int size = 0);

    /** Resize (resets priority). @pre 0 <= size <= 64. */
    void resize(int size);

    /** @return the winning index among set bits of @p requests, or -1.
     *  Bits at or above size() must be clear. The winner becomes
     *  lowest priority for the next pick. Inline: the router's
     *  allocators call it on every cycle with a bid. */
    int pick(std::uint64_t requests)
    {
        int winner = peek(requests);
        if (winner >= 0)
            next_ = winner + 1 == size_ ? 0 : winner + 1;
        return winner;
    }

    /** Pick without rotating priority (pure query). */
    int peek(std::uint64_t requests) const
    {
        if (requests == 0)
            return -1;
        if (size_ < 64 && (requests >> size_) != 0)
            badRequests();
        std::uint64_t rotated = requests >> next_;
        if (rotated != 0)
            return next_ + std::countr_zero(rotated);
        return std::countr_zero(requests);
    }

    int size() const { return size_; }

  private:
    [[noreturn]] void badRequests() const;

    int size_;
    int next_ = 0; ///< highest-priority index for the next pick
};

} // namespace oenet

#endif // OENET_ROUTER_ALLOCATORS_HH
