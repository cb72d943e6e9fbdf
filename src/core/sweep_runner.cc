#include "core/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/csv.hh"
#include "common/fs.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/proc.hh"
#include "common/rng.hh"
#include "core/sweep_journal.hh"

namespace oenet {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Shortest round-trip decimal form, deterministic across runs. */
std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    out += '"';
    return out;
}

/** @p o's journal encoding minus what a re-run may legitimately change
 *  (wall time, attempt count, error text): two outcomes with equal keys
 *  agree bit for bit on status, metrics and series. */
std::string
replayKey(SweepOutcome o)
{
    o.wallMs = 0.0;
    o.attempts = 1;
    o.error.clear();
    return SweepJournal::recordLine(o);
}

/** The manifest's metrics fields, in one place so the JSON and CSV
 *  writers cannot drift apart. */
std::vector<std::pair<const char *, double>>
metricsFields(const RunMetrics &m)
{
    return {
        {"avg_latency", m.avgLatency},
        {"p50_latency", m.p50Latency},
        {"p95_latency", m.p95Latency},
        {"max_latency", m.maxLatency},
        {"packets_measured", static_cast<double>(m.packetsMeasured)},
        {"avg_power_mw", m.avgPowerMw},
        {"baseline_power_mw", m.baselinePowerMw},
        {"normalized_power", m.normalizedPower},
        {"power_latency_product", m.powerLatencyProduct},
        {"throughput_flits_per_cycle", m.throughputFlitsPerCycle},
        {"offered_rate", m.offeredRate},
        {"packets_injected", static_cast<double>(m.packetsInjected)},
        {"packets_ejected", static_cast<double>(m.packetsEjected)},
        {"drained", m.drained ? 1.0 : 0.0},
        {"transitions", static_cast<double>(m.transitions)},
        {"decisions_up", static_cast<double>(m.decisionsUp)},
        {"decisions_down", static_cast<double>(m.decisionsDown)},
        {"optical_stalls", static_cast<double>(m.opticalStalls)},
        {"measured_cycles", static_cast<double>(m.measuredCycles)},
    };
}

/** One execution attempt of one sweep point. */
struct Attempt
{
    bool ok = false;
    bool retryable = true;
    SweepOutcome result; ///< metrics and series only
    std::string error;
};

Attempt
runAttempt(const SweepPoint &staged, std::uint64_t seed,
           const std::function<void(const SweepPoint &, std::uint64_t,
                                    SweepOutcome &)> &body,
           bool isolate, double budget_ms)
{
    Attempt a;
    if (isolate) {
        // The child ships its result as a journal record line: one
        // CRC-checked, bit-exact encoding for the pipe and the journal.
        ChildResult r = runInChild(
            [&](int write_fd) {
                body(staged, seed, a.result);
                std::string line = SweepJournal::recordLine(a.result);
                writeAll(write_fd, line.data(), line.size());
            },
            budget_ms);
        switch (r.status) {
          case ChildResult::Status::kOk:
            if (!SweepJournal::parseRecordLine(r.payload, a.result)) {
                a.error = "isolated child returned a malformed result "
                          "record (" +
                          std::to_string(r.payload.size()) + " bytes)";
                return a;
            }
            break;
          case ChildResult::Status::kTimeout:
            a.error = "watchdog: point exceeded its " +
                      jsonNumber(budget_ms) +
                      " ms budget; child killed";
            return a;
          default:
            a.error = "isolated child failed: " + r.describe();
            return a;
        }
    } else {
        try {
            body(staged, seed, a.result);
        } catch (const std::exception &e) {
            a.error = std::string("point body threw: ") + e.what();
            return a;
        } catch (...) {
            a.error = "point body threw a non-standard exception";
            return a;
        }
    }

    if (a.result.metrics.auditFailures > 0) {
        // Deterministic by construction -- retrying cannot change it.
        a.error = "conservation audit failed (" +
                  std::to_string(a.result.metrics.auditFailures) +
                  " violation(s))";
        a.retryable = false;
        return a;
    }
    a.ok = true;
    return a;
}

} // namespace

const char *
pointStatusName(PointStatus status)
{
    return status == PointStatus::kOk ? "ok" : "failed";
}

std::size_t
SweepReport::failedPoints() const
{
    std::size_t failed = 0;
    for (const SweepOutcome &o : outcomes)
        if (!o.ok())
            failed++;
    return failed;
}

double
sweepPointBudgetMs(const SweepRunner::Options &options,
                   std::vector<double> completed_wall_ms)
{
    if (options.timeoutMs > 0.0)
        return options.timeoutMs;
    if (options.timeoutFactor <= 0.0 || completed_wall_ms.size() < 3)
        return 0.0;
    auto mid = completed_wall_ms.begin() +
               static_cast<std::ptrdiff_t>(completed_wall_ms.size() / 2);
    std::nth_element(completed_wall_ms.begin(), mid,
                     completed_wall_ms.end());
    return std::max(100.0, options.timeoutFactor * *mid);
}

SweepRunner::SweepRunner(Options options) : options_(std::move(options))
{
}

std::uint64_t
SweepRunner::pointSeed(const SweepPoint &point, std::size_t index) const
{
    std::uint64_t key = point.seedKey == kSeedKeyFromIndex
                            ? static_cast<std::uint64_t>(index)
                            : point.seedKey;
    return deriveStreamSeed(options_.baseSeed, key);
}

SweepReport
SweepRunner::run(const std::vector<SweepPoint> &points) const
{
    return runBody(points, [this](const SweepPoint &point, std::uint64_t,
                                  SweepOutcome &out) {
        TraceOptions trace;
        std::unique_ptr<TraceSink> sink;
        if (point.trace && options_.traceFactory) {
            sink = options_.traceFactory(point.label);
            trace.sink = sink.get();
        }
        TimelineResult r =
            runPoint(point.config, point.spec, point.protocol, trace);
        out.metrics = r.metrics;
        out.series = std::move(r);
    });
}

SweepReport
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const PointFn &fn) const
{
    return runBody(points, [&fn](const SweepPoint &point,
                                 std::uint64_t seed, SweepOutcome &out) {
        out.metrics = fn(point, seed);
    });
}

SweepReport
SweepRunner::runBody(const std::vector<SweepPoint> &points,
                     const PointBody &body) const
{
    SweepReport report;
    report.jobs = effectiveJobs(options_.jobs, points.size());
    report.outcomes.resize(points.size());

    // ---- Journal / resume setup -------------------------------------
    if (options_.resume && options_.journalPath.empty())
        fatal("sweep: --resume requires a --journal path");

    // replayed[i]: point i's record came from the journal. Such points
    // are skipped, except a traced one: its trace exists only as a side
    // effect of running it, so it re-runs and must reproduce its record.
    std::vector<char> replayed(points.size(), 0);
    SweepJournal journal;
    if (!options_.journalPath.empty()) {
        SweepJournal::Header header;
        header.baseSeed = options_.baseSeed;
        header.points = points.size();

        std::size_t keepBytes = 0;
        if (options_.resume) {
            SweepJournal::Loaded loaded =
                SweepJournal::load(options_.journalPath);
            if (loaded.exists && loaded.hasHeader) {
                if (loaded.header.baseSeed != header.baseSeed ||
                    loaded.header.points != header.points) {
                    fatal("sweep journal '%s' belongs to a different "
                          "sweep (journal: base_seed=%llu points=%llu; "
                          "this run: base_seed=%llu points=%zu) -- "
                          "refusing to resume",
                          options_.journalPath.c_str(),
                          static_cast<unsigned long long>(
                              loaded.header.baseSeed),
                          static_cast<unsigned long long>(
                              loaded.header.points),
                          static_cast<unsigned long long>(header.baseSeed),
                          points.size());
                }
                if (loaded.droppedLines > 0) {
                    warn("sweep journal '%s': discarded %zu corrupt or "
                         "torn trailing line(s); those points re-run",
                         options_.journalPath.c_str(),
                         loaded.droppedLines);
                }
                for (SweepOutcome &o : loaded.outcomes) {
                    if (o.index >= points.size() || replayed[o.index]) {
                        fatal("sweep journal '%s': record for point %zu "
                              "is out of range or duplicated -- refusing "
                              "to resume",
                              options_.journalPath.c_str(), o.index);
                    }
                    const SweepPoint &point = points[o.index];
                    std::uint64_t seed = pointSeed(point, o.index);
                    if (o.label != point.label || o.seed != seed) {
                        fatal("sweep journal '%s': record %zu does not "
                              "match this sweep (journal: '%s' seed=%llu; "
                              "live: '%s' seed=%llu) -- refusing to "
                              "resume",
                              options_.journalPath.c_str(), o.index,
                              o.label.c_str(),
                              static_cast<unsigned long long>(o.seed),
                              point.label.c_str(),
                              static_cast<unsigned long long>(seed));
                    }
                    replayed[o.index] = 1;
                    o.params = point.params; // not journaled; from live
                    report.outcomes[o.index] = std::move(o);
                    report.resumedPoints++;
                }
                keepBytes = loaded.validBytes;
            } else if (loaded.exists) {
                warn("sweep journal '%s' has no valid header; starting "
                     "a fresh journal",
                     options_.journalPath.c_str());
            }
            if (report.resumedPoints > 0) {
                inform("sweep: resumed %zu of %zu point(s) from '%s'",
                       report.resumedPoints, points.size(),
                       options_.journalPath.c_str());
            }
        }
        journal.open(options_.journalPath, header, keepBytes);
    }

    const bool wantWatchdog =
        options_.timeoutMs > 0.0 || options_.timeoutFactor > 0.0;
    if (wantWatchdog && !options_.isolate) {
        warn("sweep: per-point timeouts are only enforceable with "
             "--isolate (an in-process point cannot be safely killed); "
             "running without a watchdog");
    }
    const int maxAttempts = 1 + std::max(0, options_.maxRetries);

    // ---- Execution ---------------------------------------------------
    auto sweepStart = std::chrono::steady_clock::now();
    std::vector<RunningStat> workerWallMs(
        static_cast<std::size_t>(report.jobs));
    std::mutex progressMutex;
    std::size_t done = report.resumedPoints;
    std::vector<double> completedWallMs;

    parallelFor(
        points.size(), report.jobs,
        [&](std::size_t i, int worker) {
            const SweepPoint &point = points[i];
            if (replayed[i] && !(point.trace && options_.traceFactory))
                return;
            std::uint64_t seed = pointSeed(point, i);

            SweepPoint staged = point;
            if (options_.reseedSpecs)
                staged.spec.seed = seed;

            SweepOutcome out;
            out.index = i;
            out.label = point.label;
            out.params = point.params;
            out.seed = seed;

            double totalWallMs = 0.0;
            for (int attempt = 1;; attempt++) {
                double budgetMs = 0.0;
                if (options_.isolate && wantWatchdog) {
                    std::lock_guard<std::mutex> lock(progressMutex);
                    budgetMs =
                        sweepPointBudgetMs(options_, completedWallMs);
                }

                auto attemptStart = std::chrono::steady_clock::now();
                Attempt a = runAttempt(staged, seed, body,
                                       options_.isolate, budgetMs);
                totalWallMs += elapsedMs(attemptStart);
                out.attempts = attempt;

                if (a.ok) {
                    out.status = PointStatus::kOk;
                    out.metrics = a.result.metrics;
                    out.series = std::move(a.result.series);
                    out.error.clear();
                    break;
                }
                out.error = a.error;
                if (!a.retryable || attempt >= maxAttempts) {
                    out.status = PointStatus::kFailed;
                    out.metrics = RunMetrics{};
                    warn("sweep: point %zu '%s' failed after %d "
                         "attempt(s): %s",
                         i, point.label.c_str(), attempt,
                         out.error.c_str());
                    break;
                }
                double backoffMs = std::min(
                    5000.0, options_.retryBackoffMs *
                                static_cast<double>(1u << (attempt - 1)));
                warn("sweep: point %zu '%s' attempt %d failed (%s); "
                     "retrying in %.0f ms",
                     i, point.label.c_str(), attempt, a.error.c_str(),
                     backoffMs);
                if (backoffMs > 0.0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            backoffMs));
                }
            }
            out.wallMs = totalWallMs;
            workerWallMs[static_cast<std::size_t>(worker)].add(
                totalWallMs);

            std::lock_guard<std::mutex> lock(progressMutex);
            if (replayed[i]) {
                // Already journaled (and counted as resumed): check the
                // re-run against the record instead of appending it twice.
                if (replayKey(out) != replayKey(report.outcomes[i]))
                    fatal("sweep journal '%s': traced point %zu '%s' "
                          "re-ran to results that differ from its "
                          "journal record -- refusing to mix them",
                          options_.journalPath.c_str(), i,
                          point.label.c_str());
                return;
            }
            if (out.ok())
                completedWallMs.push_back(totalWallMs);
            report.outcomes[i] = std::move(out);
            journal.append(report.outcomes[i]);
            done++;
            if (options_.progress)
                options_.progress(report.outcomes[i], done, points.size());
        });

    report.wallMs = elapsedMs(sweepStart);
    for (const RunningStat &w : workerWallMs)
        report.pointWallMs.merge(w);
    return report;
}

std::string
sweepManifestJson(const std::string &sweep_name, std::uint64_t base_seed,
                  const std::vector<SweepOutcome> &outcomes)
{
    std::string out = "{\n";
    out += "  \"sweep\": " + jsonString(sweep_name) + ",\n";
    out += "  \"base_seed\": " + std::to_string(base_seed) + ",\n";
    out += "  \"points\": " + std::to_string(outcomes.size()) + ",\n";
    out += "  \"results\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        const SweepOutcome &o = outcomes[i];
        out += "    {\"index\": " + std::to_string(o.index);
        out += ", \"label\": " + jsonString(o.label);
        out += ", \"seed\": " + std::to_string(o.seed);
        out += ", \"status\": ";
        out += jsonString(pointStatusName(o.status));
        out += ", \"params\": {";
        for (std::size_t p = 0; p < o.params.size(); p++) {
            if (p > 0)
                out += ", ";
            out += jsonString(o.params[p].first) + ": " +
                   jsonNumber(o.params[p].second);
        }
        out += "}, \"metrics\": {";
        auto fields = metricsFields(o.metrics);
        for (std::size_t f = 0; f < fields.size(); f++) {
            if (f > 0)
                out += ", ";
            out += jsonString(fields[f].first) + ": " +
                   jsonNumber(fields[f].second);
        }
        out += "}}";
        out += i + 1 < outcomes.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
writeSweepManifest(const std::string &path, const std::string &sweep_name,
                   std::uint64_t base_seed,
                   const std::vector<SweepOutcome> &outcomes)
{
    atomicWriteFileOrDie(
        path, sweepManifestJson(sweep_name, base_seed, outcomes));
}

void
writeSweepManifestCsv(const std::string &path,
                      const std::vector<SweepOutcome> &outcomes)
{
    CsvWriter csv(path);
    std::vector<std::string> header = {"index", "label", "seed",
                                       "status"};
    std::vector<std::string> paramKeys;
    if (!outcomes.empty()) {
        for (const auto &kv : outcomes.front().params)
            paramKeys.push_back(kv.first);
    }
    for (const auto &k : paramKeys)
        header.push_back(k);
    for (const auto &kv : metricsFields(RunMetrics{}))
        header.push_back(kv.first);
    csv.header(header);

    for (const SweepOutcome &o : outcomes) {
        std::vector<std::string> row = {std::to_string(o.index), o.label,
                                        std::to_string(o.seed),
                                        pointStatusName(o.status)};
        for (const auto &key : paramKeys) {
            std::string cell;
            for (const auto &kv : o.params) {
                if (kv.first == key) {
                    cell = jsonNumber(kv.second);
                    break;
                }
            }
            row.push_back(cell);
        }
        for (const auto &kv : metricsFields(o.metrics))
            row.push_back(jsonNumber(kv.second));
        csv.row(row);
    }
}

} // namespace oenet
