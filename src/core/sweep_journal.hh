/**
 * @file
 * SweepJournal — the append-only checkpoint file behind --journal /
 * --resume (DESIGN.md §13).
 *
 * One JSONL line per record, each wrapped as
 *
 *     {"r": <record>, "crc": "xxxxxxxx"}
 *
 * where the CRC-32 is computed over the exact serialized bytes of
 * <record>. The first line is a header naming the sweep's base seed
 * and point count; every following line is one completed SweepOutcome
 * (full RunMetrics, via forEachRunMetricsField — including the
 * counters that are not manifest columns, so a resumed bench prints
 * the same tables an uninterrupted one would — plus, for a timeline
 * point only, its per-bin series; a point-sweep record carries no
 * series key at all). The same record line is what an isolated
 * point's child sends its parent over the pipe. Records are flushed
 * and fsync'd as each point completes, so after SIGKILL the journal
 * holds every finished point plus at most one torn tail line.
 *
 * Recovery rules: load() accepts the longest valid prefix — a line
 * that is truncated, fails its CRC, or does not parse ends the scan,
 * and everything from it on is reported as dropped. Reopening for
 * append truncates the file back to that valid prefix first, so a
 * resumed run's journal is again fully valid.
 *
 * Byte-identity: outcomes round-trip exactly. Doubles are serialized
 * with %.17g (shortest round-trip form — parsing and re-serializing
 * yields the same bytes), integers as decimals, so a manifest built
 * from replayed records is byte-identical to the uninterrupted one.
 */

#ifndef OENET_CORE_SWEEP_JOURNAL_HH
#define OENET_CORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep_runner.hh"

namespace oenet {

/** CRC-32 (IEEE 802.3, reflected) over @p data — the journal's
 *  per-record guard. Exposed for tests. */
std::uint32_t crc32(const void *data, std::size_t len);

class SweepJournal
{
  public:
    /** Identity of the sweep a journal belongs to; resume refuses a
     *  journal whose header does not match the live sweep. */
    struct Header
    {
        std::uint64_t baseSeed = 0;
        std::uint64_t points = 0;
    };

    /** Result of scanning a journal file. */
    struct Loaded
    {
        bool exists = false;    ///< file was present and readable
        bool hasHeader = false; ///< a valid header line led the file
        Header header{};
        std::vector<SweepOutcome> outcomes; ///< valid records, file order
        std::size_t validBytes = 0;   ///< length of the valid prefix
        std::size_t droppedLines = 0; ///< torn/corrupt lines discarded
    };

    /** Scan @p path. A missing file yields exists == false (an empty
     *  Loaded) — resuming from nothing is just a fresh run. */
    static Loaded load(const std::string &path);

    SweepJournal() = default;
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open @p path for appending, first truncating it to
     * @p keep_bytes (0 starts a fresh journal and writes the header;
     * pass Loaded::validBytes to keep a resumed run's valid prefix).
     * fatal() with errno context on failure — a requested journal
     * that cannot be written is an unusable crash-safety contract.
     */
    void open(const std::string &path, const Header &header,
              std::size_t keep_bytes);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /** Append one completed outcome: serialize, CRC, write, fsync.
     *  The caller serializes calls (the runner holds its progress
     *  mutex). */
    void append(const SweepOutcome &outcome);

    void close();

    /** Serialized record line for @p outcome, including the CRC wrap
     *  and trailing newline. */
    static std::string recordLine(const SweepOutcome &outcome);

    /** Inverse of recordLine: validate @p line's wrap and CRC and
     *  parse it into @p outcome (params are not journaled). @return
     *  false, leaving @p outcome unspecified, on any deviation. */
    static bool parseRecordLine(const std::string &line,
                                SweepOutcome &outcome);

    /** Serialized header line (exposed for tests). */
    static std::string headerLine(const Header &header);

  private:
    int fd_ = -1;
    std::string path_;
};

} // namespace oenet

#endif // OENET_CORE_SWEEP_JOURNAL_HH
