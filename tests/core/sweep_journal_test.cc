/**
 * @file
 * Tests for the crash-safety journal: exact outcome round-trips
 * (doubles, counters, escaped labels), CRC rejection of corrupted
 * bytes, torn-tail truncation recovery, header validation, the
 * truncate-to-valid-prefix reopen contract, timeline series records,
 * and seeded mutation of whole journals.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/proc.hh"
#include "common/rng.hh"
#include "core/sweep_journal.hh"

using namespace oenet;

namespace {

/** Unique-ish per-test scratch path under the build tree. */
std::string
scratchPath(const char *name)
{
    return std::string("journal_test_") + name + ".jsonl";
}

SweepOutcome
sampleOutcome(std::size_t index)
{
    SweepOutcome o;
    o.index = index;
    o.label = "rate=0.5/pa \"quoted\"\nnewline";
    o.params = {{"rate", 0.5}, {"pa", 1.0}};
    o.seed = 0x9e3779b97f4a7c15ull + index;
    o.status = index % 3 == 2 ? PointStatus::kFailed : PointStatus::kOk;
    o.attempts = static_cast<int>(index % 3) + 1;
    o.error = o.status == PointStatus::kFailed ? "watchdog: killed" : "";
    o.wallMs = 12.625 + static_cast<double>(index);
    o.metrics.avgLatency = 123.4567890123456789; // exercises %.17g
    o.metrics.normalizedPower = 0.1 + static_cast<double>(index) * 1e-17;
    o.metrics.packetsMeasured = 1'000'000'007ull + index;
    o.metrics.packetsInjected = (1ull << 60) + index; // > 2^53
    o.metrics.drained = index % 2 == 0;
    o.metrics.auditFailures = index == 4 ? 2 : 0;
    o.metrics.measuredCycles = 50'000;
    return o;
}

void
writeJournal(const std::string &path, std::uint64_t base_seed,
             std::size_t n)
{
    SweepJournal j;
    j.open(path, SweepJournal::Header{base_seed, n}, 0);
    for (std::size_t i = 0; i < n; i++)
        j.append(sampleOutcome(i));
    j.close();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

class JournalFile : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        if (!path_.empty())
            std::remove(path_.c_str());
    }

    std::string path_;
};

} // namespace

TEST(Crc32, KnownVectors)
{
    // The classic check value for "123456789" (IEEE 802.3 reflected).
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Crc32, SingleBitFlipChangesValue)
{
    std::string a = "conservation";
    std::string b = a;
    b[5] ^= 0x01;
    EXPECT_NE(crc32(a.data(), a.size()), crc32(b.data(), b.size()));
}

TEST_F(JournalFile, MissingFileLoadsAsAbsent)
{
    path_ = scratchPath("missing");
    std::remove(path_.c_str());
    SweepJournal::Loaded l = SweepJournal::load(path_);
    EXPECT_FALSE(l.exists);
    EXPECT_FALSE(l.hasHeader);
    EXPECT_TRUE(l.outcomes.empty());
}

TEST_F(JournalFile, RoundTripIsExact)
{
    path_ = scratchPath("roundtrip");
    writeJournal(path_, 42, 6);

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.exists);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.header.baseSeed, 42u);
    EXPECT_EQ(l.header.points, 6u);
    EXPECT_EQ(l.droppedLines, 0u);
    EXPECT_EQ(l.validBytes, slurp(path_).size());
    ASSERT_EQ(l.outcomes.size(), 6u);
    for (std::size_t i = 0; i < 6; i++) {
        const SweepOutcome want = sampleOutcome(i);
        const SweepOutcome &got = l.outcomes[i];
        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(got.label, want.label);
        EXPECT_EQ(got.seed, want.seed);
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.attempts, want.attempts);
        EXPECT_EQ(got.error, want.error);
        EXPECT_EQ(got.wallMs, want.wallMs);
        // Every metrics field must round-trip bit-exactly — the
        // resumed manifest is byte-compared against the
        // uninterrupted one.
        EXPECT_EQ(got.metrics.avgLatency, want.metrics.avgLatency);
        EXPECT_EQ(got.metrics.normalizedPower,
                  want.metrics.normalizedPower);
        EXPECT_EQ(got.metrics.packetsMeasured,
                  want.metrics.packetsMeasured);
        EXPECT_EQ(got.metrics.packetsInjected,
                  want.metrics.packetsInjected);
        EXPECT_EQ(got.metrics.drained, want.metrics.drained);
        EXPECT_EQ(got.metrics.auditFailures,
                  want.metrics.auditFailures);
        EXPECT_EQ(got.metrics.measuredCycles,
                  want.metrics.measuredCycles);
    }
    // Re-serializing a loaded record reproduces the exact line.
    EXPECT_EQ(SweepJournal::recordLine(l.outcomes[0]),
              SweepJournal::recordLine(sampleOutcome(0)));
}

TEST_F(JournalFile, CorruptedByteEndsTheValidPrefix)
{
    path_ = scratchPath("corrupt");
    writeJournal(path_, 7, 4);
    std::string bytes = slurp(path_);

    // Flip one byte inside the third record line (header + 2 records
    // stay intact).
    std::size_t nl = 0, pos = 0;
    for (std::size_t i = 0; i < bytes.size(); i++) {
        if (bytes[i] == '\n' && ++nl == 3) {
            pos = i + 10;
            break;
        }
    }
    ASSERT_GT(pos, 0u);
    bytes[pos] ^= 0x20;
    spit(path_, bytes);

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    // Records after the corrupt line are dropped even if intact —
    // the journal is an append-only log, so a bad line means
    // everything after it is suspect.
    EXPECT_EQ(l.outcomes.size(), 2u);
    EXPECT_EQ(l.droppedLines, 2u);
    EXPECT_LT(l.validBytes, bytes.size());
}

TEST_F(JournalFile, TornTailLineIsDiscarded)
{
    path_ = scratchPath("torn");
    writeJournal(path_, 7, 3);
    std::string bytes = slurp(path_);
    // SIGKILL mid-write: the last line loses its tail (and newline).
    spit(path_, bytes.substr(0, bytes.size() - 17));

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.outcomes.size(), 2u);
    EXPECT_EQ(l.droppedLines, 1u);

    // Reopening with keep_bytes == validBytes truncates the torn
    // tail; a fresh append then yields a fully valid journal again.
    SweepJournal j;
    j.open(path_, SweepJournal::Header{7, 3}, l.validBytes);
    j.append(sampleOutcome(2));
    j.close();

    SweepJournal::Loaded l2 = SweepJournal::load(path_);
    EXPECT_EQ(l2.outcomes.size(), 3u);
    EXPECT_EQ(l2.droppedLines, 0u);
}

TEST_F(JournalFile, GarbageFileHasNoHeader)
{
    path_ = scratchPath("garbage");
    spit(path_, "this is not a journal\n{\"r\": nope}\n");
    SweepJournal::Loaded l = SweepJournal::load(path_);
    EXPECT_TRUE(l.exists);
    EXPECT_FALSE(l.hasHeader);
    EXPECT_TRUE(l.outcomes.empty());
}

TEST_F(JournalFile, EmptyFileHasNoHeader)
{
    path_ = scratchPath("empty");
    spit(path_, "");
    SweepJournal::Loaded l = SweepJournal::load(path_);
    EXPECT_TRUE(l.exists);
    EXPECT_FALSE(l.hasHeader);
}

TEST_F(JournalFile, HeaderCarriesSweepIdentity)
{
    path_ = scratchPath("header");
    writeJournal(path_, 1234567890123456789ull, 17);
    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.header.baseSeed, 1234567890123456789ull);
    EXPECT_EQ(l.header.points, 17u);
}

TEST_F(JournalFile, FreshOpenDiscardsOldContents)
{
    path_ = scratchPath("fresh");
    writeJournal(path_, 1, 5);
    // keep_bytes == 0: a fresh journal for a different sweep.
    SweepJournal j;
    j.open(path_, SweepJournal::Header{2, 1}, 0);
    j.append(sampleOutcome(0));
    j.close();

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.header.baseSeed, 2u);
    EXPECT_EQ(l.outcomes.size(), 1u);
}

// ---------------------------------------------------------------------
// Timeline series records, and seeded mutation of whole journals.
// ---------------------------------------------------------------------

namespace {

SweepOutcome
timelineOutcome(std::size_t index)
{
    SweepOutcome o = sampleOutcome(index);
    o.series.bin = 5000;
    o.series.offeredRate = {0.25, 1.0 / 3.0, 0.0};
    o.series.normalizedPower = {1.0, 0.1 + 1e-17, 2.0 / 3.0};
    o.series.avgLatency = {12.5, 0.0, 1e300};
    return o;
}

/** Tiny sweep mixing timeline points (series) and rollup points. */
std::vector<SweepPoint>
mixedSweep()
{
    std::vector<SweepPoint> points;
    for (Cycle bin : {Cycle{500}, Cycle{0}}) {
        for (double rate : {0.3, 0.7}) {
            SweepPoint p;
            p.label = (bin > 0 ? "timeline/rate=" : "rollup/rate=") +
                      std::to_string(rate);
            p.config.meshX = 2;
            p.config.meshY = 2;
            p.config.clusterSize = 2;
            p.config.windowCycles = 200;
            p.spec = TrafficSpec::uniform(rate, 4);
            p.protocol.warmup = bin > 0 ? 0 : 500;
            p.protocol.measure = 2000;
            p.protocol.drainLimit = 4000;
            p.protocol.bin = bin;
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::vector<std::string>
splitLines(const std::string &bytes)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        std::size_t nl = bytes.find('\n', pos);
        std::size_t end = nl == std::string::npos ? bytes.size() : nl + 1;
        lines.push_back(bytes.substr(pos, end - pos));
        pos = end;
    }
    return lines;
}

/** One to three seeded damages: byte flips, truncation, a duplicated
 *  line, two lines swapped. */
std::string
mutate(const std::string &bytes, Rng &rng)
{
    std::string out = bytes;
    const int damages = 1 + static_cast<int>(rng.uniformInt(3));
    for (int d = 0; d < damages && !out.empty(); d++) {
        switch (rng.uniformInt(4)) {
          case 0: {
            std::size_t at = rng.uniformInt(out.size());
            out[at] = static_cast<char>(
                out[at] ^ static_cast<char>(1 + rng.uniformInt(255)));
            break;
          }
          case 1:
            out.resize(rng.uniformInt(out.size()));
            break;
          default: {
            std::vector<std::string> lines = splitLines(out);
            std::size_t a = rng.uniformInt(lines.size());
            std::size_t b = rng.uniformInt(lines.size());
            if (rng.bernoulli(0.5))
                lines.insert(lines.begin() + static_cast<long>(b),
                             lines[a]);
            else
                std::swap(lines[a], lines[b]);
            out.clear();
            for (const std::string &l : lines)
                out += l;
            break;
          }
        }
    }
    return out;
}

} // namespace

TEST(JournalRecord, SeriesRoundTripsBitExact)
{
    SweepOutcome want = timelineOutcome(1);
    SweepOutcome got;
    ASSERT_TRUE(SweepJournal::parseRecordLine(
        SweepJournal::recordLine(want), got));
    EXPECT_EQ(got.series.bin, want.series.bin);
    EXPECT_EQ(got.series.offeredRate, want.series.offeredRate);
    EXPECT_EQ(got.series.normalizedPower, want.series.normalizedPower);
    EXPECT_EQ(got.series.avgLatency, want.series.avgLatency);
    EXPECT_EQ(SweepJournal::recordLine(got),
              SweepJournal::recordLine(want));
}

TEST(JournalRecord, PointRecordsCarryNoSeriesKey)
{
    // Point-sweep records keep the original v1 shape, so journals
    // written before timelines were journaled still resume.
    std::string line = SweepJournal::recordLine(sampleOutcome(0));
    EXPECT_EQ(line.find("series"), std::string::npos);
    EXPECT_NE(line.find("\"measured_cycles\": 50000}}, \"crc\": \""),
              std::string::npos);
    EXPECT_NE(SweepJournal::recordLine(timelineOutcome(0)).find(
                  "\"series\": {\"bin\": 5000, \"offered_rate\": [0.25, "),
              std::string::npos);
}

TEST(JournalRecord, MalformedSeriesIsRejected)
{
    SweepOutcome o = timelineOutcome(0);
    o.series.avgLatency.pop_back(); // arrays of unequal length
    SweepOutcome got;
    EXPECT_FALSE(SweepJournal::parseRecordLine(
        SweepJournal::recordLine(o), got));
    EXPECT_FALSE(SweepJournal::parseRecordLine("", got));
    EXPECT_FALSE(SweepJournal::parseRecordLine("{\"r\": {}}\n", got));
}

TEST_F(JournalFile, SeededMutationsLoadAValidPrefix)
{
    // Journals with and without series, damaged by a seeded xoshiro
    // stream. load() must return a prefix of whole lines whose records
    // are originals, bit for bit — never a damaged record, never a
    // crash or an out-of-bounds read (the sanitizer job runs this).
    path_ = scratchPath("mutation");
    std::string bytes =
        SweepJournal::headerLine(SweepJournal::Header{3, 6});
    std::set<std::string> originals;
    for (std::size_t i = 0; i < 6; i++) {
        std::string line = SweepJournal::recordLine(
            i % 2 == 0 ? timelineOutcome(i) : sampleOutcome(i));
        originals.insert(line);
        bytes += line;
    }

    Rng rng(0x6a6f75726e616cull);
    for (int iter = 0; iter < 400; iter++) {
        const std::string mutated = mutate(bytes, rng);
        spit(path_, mutated);
        SweepJournal::Loaded l = SweepJournal::load(path_);
        SCOPED_TRACE("iteration " + std::to_string(iter));
        ASSERT_LE(l.validBytes, mutated.size());
        if (l.validBytes > 0) {
            EXPECT_EQ(mutated[l.validBytes - 1], '\n');
        }
        EXPECT_EQ(splitLines(mutated.substr(0, l.validBytes)).size(),
                  l.hasHeader ? 1 + l.outcomes.size() : 0);
        if (l.hasHeader) {
            EXPECT_EQ(l.header.baseSeed, 3u);
            EXPECT_EQ(l.header.points, 6u);
        }
        for (const SweepOutcome &o : l.outcomes)
            EXPECT_EQ(originals.count(SweepJournal::recordLine(o)), 1u);
    }
}

TEST_F(JournalFile, SeededMutationsResumeExactlyOrAreRefused)
{
    // The runner's side of the contract: resuming from a damaged
    // journal either reproduces the uninterrupted manifest or dies in
    // fatal() (duplicated records). Each resume runs in a forked child
    // so a fatal() exit is observable.
    path_ = scratchPath("mutation_resume");
    std::remove(path_.c_str());
    const std::vector<SweepPoint> points = mixedSweep();
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.journalPath = path_;
    SweepReport full = SweepRunner(opts).run(points);
    ASSERT_TRUE(full.allOk());
    const std::string want = sweepManifestJson("m", 1, full.outcomes);
    const std::string journal = slurp(path_);
    ASSERT_NE(journal.find("\"series\""), std::string::npos);

    opts.resume = true;
    Rng rng(0x726573756d65ull);
    int refused = 0;
    for (int iter = 0; iter < 40; iter++) {
        spit(path_, mutate(journal, rng));
        ChildResult r = runInChild(
            [&](int fd) {
                setQuiet(true);
                std::freopen("/dev/null", "w", stderr);
                SweepReport resumed = SweepRunner(opts).run(points);
                std::string got =
                    sweepManifestJson("m", 1, resumed.outcomes);
                writeAll(fd, got.data(), got.size());
            },
            0.0);
        SCOPED_TRACE("iteration " + std::to_string(iter));
        if (r.status == ChildResult::Status::kExited && r.code == 1) {
            refused++;
            continue;
        }
        ASSERT_EQ(r.status, ChildResult::Status::kOk) << r.describe();
        EXPECT_EQ(r.payload, want);
    }
    EXPECT_LT(refused, 40) << "most damage is recoverable";
}
