#include "traffic/trace.hh"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/log.hh"

namespace oenet {

namespace {

constexpr const char *kMagic = "oenet-trace-v1";

/**
 * Parse one unsigned decimal field: digits only (no sign, no
 * exponent), no larger than @p max. Stream extraction is unfit here:
 * it accepts "-1" into an unsigned (wrapping it) and a later narrowing
 * cast would truncate out-of-range values silently.
 */
bool
parseField(std::string_view tok, std::uint64_t max, std::uint64_t &out)
{
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, out);
    return ec == std::errc() && ptr == end && out <= max;
}

} // namespace

void
saveTrace(const std::string &path, const TraceData &trace)
{
    std::ofstream out(path);
    if (!out)
        fatal("saveTrace: cannot open '%s'", path.c_str());
    out << kMagic << "\n";
    for (const auto &r : trace) {
        out << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << r.len
            << '\n';
    }
    if (!out)
        fatal("saveTrace: write failure on '%s'", path.c_str());
}

TraceData
loadTrace(const std::string &path, int num_nodes)
{
    if (num_nodes <= 0)
        panic("loadTrace: node count must be positive, got %d",
              num_nodes);
    std::ifstream in(path);
    if (!in)
        fatal("loadTrace: cannot open '%s'", path.c_str());
    std::string line;
    if (!std::getline(in, line) || line != kMagic)
        fatal("loadTrace: '%s' is not an oenet trace (bad magic)",
              path.c_str());
    const auto max_node = static_cast<std::uint64_t>(num_nodes - 1);
    TraceData trace;
    int lineno = 1;
    while (std::getline(in, line)) {
        lineno++;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string f[4], extra;
        std::uint64_t cycle, src, dst, len;
        // kNeverCycle is the simulator's "never" sentinel; a record
        // stamped with it could never be injected.
        if (!(ss >> f[0] >> f[1] >> f[2] >> f[3]) || (ss >> extra) ||
            !parseField(f[0], kNeverCycle - 1, cycle))
            fatal("loadTrace: %s:%d: bad record '%s'", path.c_str(),
                  lineno, line.c_str());
        if (!parseField(f[1], max_node, src) ||
            !parseField(f[2], max_node, dst))
            fatal("loadTrace: %s:%d: endpoint out of range [0, %d) in "
                  "'%s'",
                  path.c_str(), lineno, num_nodes, line.c_str());
        if (!parseField(f[3], UINT16_MAX, len) || len == 0)
            fatal("loadTrace: %s:%d: packet length out of range "
                  "[1, %u] in '%s'",
                  path.c_str(), lineno, unsigned{UINT16_MAX},
                  line.c_str());
        if (!trace.empty() && cycle < trace.back().cycle)
            fatal("loadTrace: %s:%d: not sorted by cycle", path.c_str(),
                  lineno);
        trace.push_back(TraceRecord{static_cast<Cycle>(cycle),
                                    static_cast<NodeId>(src),
                                    static_cast<NodeId>(dst),
                                    static_cast<std::uint16_t>(len)});
    }
    return trace;
}

void
validateTrace(const TraceData &trace, int num_nodes)
{
    for (std::size_t i = 0; i < trace.size(); i++) {
        const auto &r = trace[i];
        if (i > 0 && r.cycle < trace[i - 1].cycle)
            panic("trace record %zu out of order", i);
        if (r.src >= static_cast<NodeId>(num_nodes) ||
            r.dst >= static_cast<NodeId>(num_nodes))
            panic("trace record %zu: endpoint out of range", i);
        if (r.len < 1)
            panic("trace record %zu: zero-length packet", i);
    }
}

std::vector<double>
traceRateTimeline(const TraceData &trace, Cycle bin)
{
    if (bin == 0)
        panic("traceRateTimeline: zero bin size");
    if (trace.empty())
        return {};
    // Counted from the last bin's index, so a record near the top of
    // the cycle range cannot wrap the span to zero bins.
    Cycle last_bin = trace.back().cycle / bin;
    if (last_bin >= kMaxTimelineBins)
        fatal("traceRateTimeline: trace spans %llu cycles, more than "
              "%llu bins of %llu cycles",
              static_cast<unsigned long long>(trace.back().cycle),
              static_cast<unsigned long long>(kMaxTimelineBins),
              static_cast<unsigned long long>(bin));
    std::vector<double> timeline(static_cast<std::size_t>(last_bin) + 1,
                                 0.0);
    for (const auto &r : trace)
        timeline[static_cast<std::size_t>(r.cycle / bin)] += 1.0;
    for (auto &v : timeline)
        v /= static_cast<double>(bin);
    return timeline;
}

double
traceMeanPacketLen(const TraceData &trace)
{
    if (trace.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : trace)
        sum += r.len;
    return sum / static_cast<double>(trace.size());
}

TraceSource::TraceSource(const TraceData &trace) : trace_(trace)
{
}

void
TraceSource::arrivals(Cycle now, std::vector<PacketDesc> &out)
{
    while (next_ < trace_.size() && trace_[next_].cycle <= now) {
        const auto &r = trace_[next_];
        out.push_back(PacketDesc{r.src, r.dst, r.len});
        next_++;
    }
}

bool
TraceSource::exhausted(Cycle) const
{
    return next_ >= trace_.size();
}

double
TraceSource::offeredRate(Cycle now) const
{
    // Local estimate over a 1k-cycle look-behind window.
    constexpr Cycle kWindow = 1000;
    Cycle lo = now > kWindow ? now - kWindow : 0;
    // next_ points past all records <= now; walk back.
    std::size_t i = next_;
    std::uint64_t count = 0;
    while (i > 0 && trace_[i - 1].cycle >= lo) {
        count++;
        i--;
    }
    return static_cast<double>(count) / static_cast<double>(kWindow);
}

} // namespace oenet
