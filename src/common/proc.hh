/**
 * @file
 * Subprocess isolation primitives for the sweep runner: run a work
 * item in a forked child with its result returned over a pipe, so a
 * segfault, OOM kill, or hang in one item cannot take down the
 * driving process. The parent enforces a wall-clock deadline with
 * poll(2) and SIGKILLs + reaps a child that exceeds it.
 *
 * The child must confine itself to computing and writing its payload:
 * the body runs after fork() in a multi-threaded parent, so it must
 * not touch locks other threads might have held (our bodies build a
 * fresh simulation and write a serialized result record — malloc is
 * made fork-safe by glibc's pthread_atfork handlers). The child exits
 * with _exit(), never exit(), so no parent-owned atexit state runs
 * twice.
 */

#ifndef OENET_COMMON_PROC_HH
#define OENET_COMMON_PROC_HH

#include <functional>
#include <string>

namespace oenet {

/** Outcome of one isolated child execution. */
struct ChildResult
{
    enum class Status
    {
        kOk,       ///< child exited 0 and delivered a payload
        kExited,   ///< child exited nonzero (code holds the exit code)
        kSignaled, ///< child died on a signal (code holds the signal)
        kTimeout,  ///< deadline hit; child was SIGKILLed and reaped
        kError,    ///< fork/pipe/read machinery failed (error filled)
    };

    Status status = Status::kError;
    int code = 0;        ///< exit code or signal number
    std::string payload; ///< bytes the child wrote (kOk / kExited)
    std::string error;   ///< errno context for kError

    bool ok() const { return status == Status::kOk; }

    /** "exit 3" / "signal 11 (SIGSEGV)" / "timeout" for messages. */
    std::string describe() const;
};

/**
 * Fork a child, run @p body(write_fd) in it, and read everything the
 * child writes to @p write_fd until EOF or @p timeout_ms elapses
 * (<= 0 disables the deadline). The body should write its result and
 * return; the wrapper then _exit(0)s. An exception escaping the body
 * becomes _exit(kChildExceptionExit). On timeout the child is killed
 * with SIGKILL and reaped — no zombies are left behind in any path.
 *
 * Thread-safe: may be called concurrently from worker threads; each
 * call owns its pipe and child.
 */
ChildResult runInChild(const std::function<void(int write_fd)> &body,
                       double timeout_ms);

/** Exit code runInChild's wrapper uses when the body throws. */
inline constexpr int kChildExceptionExit = 125;

/** Write exactly @p len bytes to @p fd, retrying on EINTR/short
 *  writes. @return false on write error (e.g. closed pipe). */
bool writeAll(int fd, const void *data, std::size_t len);

} // namespace oenet

#endif // OENET_COMMON_PROC_HH
