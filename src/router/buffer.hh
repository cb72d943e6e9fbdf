/**
 * @file
 * Contiguous flit storage for all of a router's input virtual
 * channels: one slab of `segments * depth` flits plus flat per-segment
 * ring indices, replacing one heap-allocated FIFO object per VC.
 * Segment f backs input VC (port, vc) at f = port * numVcs + vc, so
 * the pipeline stage walks touch adjacent cache lines instead of
 * chasing per-object vectors. Overflow and underflow are protocol
 * violations (credit bugs), so they panic rather than degrade.
 */

#ifndef OENET_ROUTER_BUFFER_HH
#define OENET_ROUTER_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "router/flit.hh"

namespace oenet {

class FlitSlab
{
  public:
    FlitSlab() = default;

    /** Allocate @p segments rings of @p depth flits each (resets all
     *  segments to empty). */
    void configure(int segments, int depth);

    void push(int seg, const Flit &flit)
    {
        auto s = static_cast<std::size_t>(seg);
        if (size_[s] == depth_)
            panic("FlitSlab: overflow on segment %d (depth %d); "
                  "credit protocol broken", seg, depth_);
        int tail = head_[s] + size_[s];
        if (tail >= depth_)
            tail -= depth_;
        slab_[s * static_cast<std::size_t>(depth_) +
              static_cast<std::size_t>(tail)] = flit;
        size_[s]++;
    }

    Flit pop(int seg)
    {
        auto s = static_cast<std::size_t>(seg);
        if (size_[s] == 0)
            panic("FlitSlab: underflow on segment %d", seg);
        Flit flit = slab_[s * static_cast<std::size_t>(depth_) +
                          static_cast<std::size_t>(head_[s])];
        drop(seg);
        return flit;
    }

    /** Discard the front flit of @p seg (a caller that copies it out
     *  with front() first saves pop's by-value return). */
    void drop(int seg)
    {
        auto s = static_cast<std::size_t>(seg);
        if (size_[s] == 0)
            panic("FlitSlab: underflow on segment %d", seg);
        head_[s] = head_[s] + 1 == depth_ ? 0 : head_[s] + 1;
        size_[s]--;
    }

    const Flit &front(int seg) const
    {
        auto s = static_cast<std::size_t>(seg);
        if (size_[s] == 0)
            panic("FlitSlab: front of empty segment %d", seg);
        return slab_[s * static_cast<std::size_t>(depth_) +
                     static_cast<std::size_t>(head_[s])];
    }

    bool empty(int seg) const
    {
        return size_[static_cast<std::size_t>(seg)] == 0;
    }
    bool full(int seg) const
    {
        return size_[static_cast<std::size_t>(seg)] == depth_;
    }
    int size(int seg) const
    {
        return size_[static_cast<std::size_t>(seg)];
    }
    int freeSlots(int seg) const { return depth_ - size(seg); }
    int depth() const { return depth_; }
    int segments() const { return static_cast<int>(size_.size()); }

  private:
    std::vector<Flit> slab_;
    std::vector<std::int32_t> head_; ///< ring head, offset within segment
    std::vector<std::int32_t> size_;
    int depth_ = 0;
};

} // namespace oenet

#endif // OENET_ROUTER_BUFFER_HH
