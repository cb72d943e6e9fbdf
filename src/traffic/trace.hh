/**
 * @file
 * Packet trace format: an ordered list of (cycle, src, dst, len)
 * records, with a plain-text file representation so traces can be
 * captured, shipped, and replayed. The SPLASH-2 workloads of Section
 * 4.3.3 are replayed through this path.
 *
 * File format (one record per line, '#' comments):
 *     oenet-trace-v1
 *     <cycle> <src> <dst> <len>
 */

#ifndef OENET_TRAFFIC_TRACE_HH
#define OENET_TRAFFIC_TRACE_HH

#include <string>
#include <vector>

#include "traffic/injection_process.hh"

namespace oenet {

struct TraceRecord
{
    Cycle cycle;
    NodeId src;
    NodeId dst;
    std::uint16_t len;
};

using TraceData = std::vector<TraceRecord>;

/** Write @p trace to @p path; fatal() on I/O failure. */
void saveTrace(const std::string &path, const TraceData &trace);

/**
 * Load a trace for a system of @p num_nodes nodes. Every malformed
 * record is a fatal() naming file:line — a field that is not a plain
 * unsigned decimal, an endpoint outside [0, num_nodes), a packet
 * length outside [1, 65535], a cycle of kNeverCycle, or a record out
 * of cycle order — so a loaded trace always passes validateTrace().
 */
TraceData loadTrace(const std::string &path, int num_nodes);

/** Verify ordering + bounds; panic on violations. */
void validateTrace(const TraceData &trace, int num_nodes);

/** Most bins traceRateTimeline() will allocate. */
inline constexpr Cycle kMaxTimelineBins = Cycle{1} << 26;

/** Aggregate injection rate of @p trace binned every @p bin cycles:
 *  element i = packets per cycle in [i*bin, (i+1)*bin). fatal() if the
 *  trace spans kMaxTimelineBins bins or more. */
std::vector<double> traceRateTimeline(const TraceData &trace, Cycle bin);

/** Mean packet length over the trace (flits). */
double traceMeanPacketLen(const TraceData &trace);

/** Replays a TraceData. Does not own the data. */
class TraceSource : public TrafficSource
{
  public:
    /** @param trace must stay alive and sorted by cycle. */
    explicit TraceSource(const TraceData &trace);

    void arrivals(Cycle now, std::vector<PacketDesc> &out) override;
    bool exhausted(Cycle now) const override;
    double offeredRate(Cycle now) const override;

  private:
    const TraceData &trace_;
    std::size_t next_ = 0;
};

} // namespace oenet

#endif // OENET_TRAFFIC_TRACE_HH
