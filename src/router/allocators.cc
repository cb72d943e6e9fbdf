#include "router/allocators.hh"

#include "common/log.hh"

namespace oenet {

RoundRobinArbiter::RoundRobinArbiter(int size) : size_(size)
{
    if (size < 0 || size > 64)
        panic("RoundRobinArbiter: size %d out of [0, 64]", size);
}

void
RoundRobinArbiter::resize(int size)
{
    if (size < 0 || size > 64)
        panic("RoundRobinArbiter: size %d out of [0, 64]", size);
    size_ = size;
    next_ = 0;
}

void
RoundRobinArbiter::badRequests() const
{
    panic("RoundRobinArbiter: request bits beyond size %d", size_);
}

} // namespace oenet
