/** @file Tests for trace I/O and replay. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "traffic/trace.hh"

using namespace oenet;

namespace {

TraceData
sampleTrace()
{
    return {
        {0, 1, 2, 4},
        {0, 3, 4, 8},
        {5, 2, 1, 4},
        {100, 0, 7, 48},
    };
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** A trace file with one record line, @p record. */
std::string
oneRecordFile(const std::string &record)
{
    return "oenet-trace-v1\n0 1 2 4\n" + record + "\n";
}

} // namespace

TEST(TraceIo, RoundTrip)
{
    std::string path = testing::TempDir() + "/oenet_trace_test.trc";
    TraceData trace = sampleTrace();
    saveTrace(path, trace);
    TraceData loaded = loadTrace(path, 8);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i++) {
        EXPECT_EQ(loaded[i].cycle, trace[i].cycle);
        EXPECT_EQ(loaded[i].src, trace[i].src);
        EXPECT_EQ(loaded[i].dst, trace[i].dst);
        EXPECT_EQ(loaded[i].len, trace[i].len);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ValidateAcceptsGoodTrace)
{
    TraceData trace = sampleTrace();
    validateTrace(trace, 8); // must not panic
}

TEST(TraceIoDeath, ValidateRejectsOutOfRangeNode)
{
    TraceData trace = sampleTrace();
    EXPECT_DEATH(validateTrace(trace, 4), "range");
}

TEST(TraceIoDeath, ValidateRejectsUnsorted)
{
    TraceData trace = {{10, 0, 1, 1}, {5, 0, 1, 1}};
    EXPECT_DEATH(validateTrace(trace, 8), "order");
}

TEST(TraceSource, ReplaysAtRecordedCycles)
{
    TraceData trace = sampleTrace();
    TraceSource src(trace);
    std::vector<PacketDesc> out;
    src.arrivals(0, out);
    EXPECT_EQ(out.size(), 2u);
    src.arrivals(4, out);
    EXPECT_EQ(out.size(), 2u);
    src.arrivals(5, out);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_FALSE(src.exhausted(5));
    src.arrivals(100, out);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_TRUE(src.exhausted(100));
}

TEST(TraceSource, SkippedCyclesStillDeliverBacklog)
{
    TraceData trace = sampleTrace();
    TraceSource src(trace);
    std::vector<PacketDesc> out;
    src.arrivals(1000, out); // jump past everything
    EXPECT_EQ(out.size(), 4u);
}

TEST(TraceTimeline, BinsRates)
{
    TraceData trace = {
        {0, 0, 1, 1}, {1, 0, 1, 1}, {2, 0, 1, 1}, {10, 0, 1, 1},
    };
    auto timeline = traceRateTimeline(trace, 10);
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_DOUBLE_EQ(timeline[0], 0.3);
    EXPECT_DOUBLE_EQ(timeline[1], 0.1);
}

TEST(TraceTimeline, EmptyTrace)
{
    EXPECT_TRUE(traceRateTimeline({}, 10).empty());
    EXPECT_DOUBLE_EQ(traceMeanPacketLen({}), 0.0);
}

TEST(TraceStats, MeanPacketLen)
{
    EXPECT_DOUBLE_EQ(traceMeanPacketLen(sampleTrace()), 16.0);
}

TEST(TraceIoDeath, LoadRejectsBadMagic)
{
    std::string path = testing::TempDir() + "/oenet_bad_trace.trc";
    {
        std::ofstream out(path);
        out << "not-a-trace\n";
    }
    EXPECT_DEATH((void)loadTrace(path, 8), "magic");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, LoadRejectsOutOfRangeFieldsWithFileAndLine)
{
    // Each of these used to load as a different record: a 16-bit len
    // truncated (65536 -> 0, 70000 -> 4464), a negative endpoint
    // wrapped, an out-of-range endpoint was left to validateTrace().
    std::string path = testing::TempDir() + "/oenet_range_trace.trc";
    const struct
    {
        const char *record;
        const char *why;
    } cases[] = {
        {"5 1 2 65536", "packet length out of range"},
        {"5 1 2 70000", "packet length out of range"},
        {"5 1 2 0", "packet length out of range"},
        {"5 -1 2 4", "endpoint out of range"},
        {"5 1 -3 4", "endpoint out of range"},
        {"5 8 2 4", "endpoint out of range"},
        {"5 1 4294967297 4", "endpoint out of range"},
        {"18446744073709551615 1 2 4", "bad record"},
        {"18446744073709551616 1 2 4", "bad record"},
        {"+5 1 2 4", "bad record"},
        {"5 1 2 4 9", "bad record"},
        {"5 1 2", "bad record"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.record);
        spit(path, oneRecordFile(c.record));
        EXPECT_EXIT((void)loadTrace(path, 8),
                    ::testing::ExitedWithCode(1),
                    std::string("oenet_range_trace.trc:3: ") + c.why);
    }
    spit(path, "oenet-trace-v1\n9 1 2 4\n# comment\n5 1 2 4\n");
    EXPECT_EXIT((void)loadTrace(path, 8), ::testing::ExitedWithCode(1),
                "oenet_range_trace.trc:4: not sorted");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TimelineRejectsUnboundedSpan)
{
    // A record at the top of the cycle range used to wrap the span to
    // zero bins and index past the end of the timeline.
    TraceData top = {{0, 0, 1, 1}, {~Cycle{0}, 0, 1, 1}};
    EXPECT_EXIT((void)traceRateTimeline(top, 10),
                ::testing::ExitedWithCode(1), "traceRateTimeline");
    EXPECT_EXIT((void)traceRateTimeline(top, 1),
                ::testing::ExitedWithCode(1), "traceRateTimeline");
    // The last record of a trace exactly one bin past the cap.
    TraceData wide = {{kMaxTimelineBins * 10, 0, 1, 1}};
    EXPECT_EXIT((void)traceRateTimeline(wide, 10),
                ::testing::ExitedWithCode(1), "traceRateTimeline");
}

TEST(TraceIoDeath, SeededMutationsLoadOrExitCleanly)
{
    // Trace files damaged by a seeded xoshiro stream: byte flips,
    // truncation, duplicated / swapped lines and fields swapped for
    // edge-case tokens. Each load either succeeds — and then the trace
    // passes validateTrace() and bins cleanly — or exits 1 through
    // fatal(); never a panic, a crash or an out-of-bounds access (the
    // sanitizer job runs this).
    std::string path = testing::TempDir() + "/oenet_mutated_trace.trc";
    const std::vector<std::string> lines = {
        "oenet-trace-v1", "# captured", "0 1 2 4", "0 3 4 8",
        "5 2 1 4",        "",           "100 0 7 48", "100 7 0 1",
    };
    const char *const tokens[] = {
        "-1", "0", "7", "8", "65535", "65536", "70000", "4294967296",
        "18446744073709551615", "18446744073709551616", "1e3", "+5",
        "", "x", "5 5",
    };
    Rng rng(0x7472616365ull);
    int outcome[2] = {0, 0};
    auto clean_exit = [&outcome](int status) {
        if (!WIFEXITED(status))
            return false;
        int code = WEXITSTATUS(status);
        if (code != 0 && code != 1)
            return false;
        outcome[code]++;
        return true;
    };
    for (int iter = 0; iter < 300; iter++) {
        std::vector<std::string> l = lines;
        const int damages = 1 + static_cast<int>(rng.uniformInt(3));
        for (int d = 0; d < damages; d++) {
            std::size_t a = rng.uniformInt(l.size());
            std::size_t b = rng.uniformInt(l.size());
            switch (rng.uniformInt(5)) {
              case 0:
                if (!l[a].empty()) {
                    std::size_t at = rng.uniformInt(l[a].size());
                    l[a][at] = static_cast<char>(
                        l[a][at] ^
                        static_cast<char>(1 + rng.uniformInt(255)));
                }
                break;
              case 1:
                l.resize(1 + rng.uniformInt(l.size()));
                break;
              case 2:
                l.insert(l.begin() + static_cast<long>(b), l[a]);
                break;
              case 3:
                std::swap(l[a], l[b]);
                break;
              default: {
                // Replace one whitespace-separated field.
                std::istringstream ss(l[a]);
                std::vector<std::string> f;
                for (std::string t; ss >> t;)
                    f.push_back(t);
                if (f.empty())
                    break;
                f[rng.uniformInt(f.size())] =
                    tokens[rng.uniformInt(std::size(tokens))];
                l[a].clear();
                for (const std::string &t : f)
                    l[a] += (l[a].empty() ? "" : " ") + t;
                break;
              }
            }
        }
        std::string bytes;
        for (const std::string &line : l)
            bytes += line + "\n";
        if (rng.bernoulli(0.2))
            bytes.resize(rng.uniformInt(bytes.size() + 1)); // torn
        spit(path, bytes);
        SCOPED_TRACE("iteration " + std::to_string(iter));
        EXPECT_EXIT(
            {
                TraceData t = loadTrace(path, 8);
                validateTrace(t, 8);
                (void)traceRateTimeline(t, 10);
                std::exit(0);
            },
            clean_exit, "^$|fatal: loadTrace: ");
    }
    EXPECT_GT(outcome[0], 0) << "some damage must still load";
    EXPECT_GT(outcome[1], 0) << "some damage must be refused";
    std::remove(path.c_str());
}
