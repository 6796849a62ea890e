#pragma once
// Minimal leveled logging. Off (Warn) by default so benches and tests stay
// quiet; examples turn on Info to narrate the pipeline phases.
//
// Every record carries a process-uptime timestamp and a dense per-thread
// id, and the write to stderr happens under one mutex — interleaved
// SPICE_LOG lines from ThreadPool workers can never shear into each other.
// An optional sink hook mirrors each record elsewhere (spice::obs routes
// them into the active trace as instant events).

#include <cstdint>
#include <sstream>
#include <string>

namespace spice {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Set the global log threshold. Thread-safe (atomic).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit a log line (used by the SPICE_LOG macro; rarely called directly).
void log_message(LogLevel level, const std::string& message);

/// Seconds since the process-wide monotonic anchor (first use). Shared by
/// log prefixes and the obs wall-clock tracer so their timestamps agree.
[[nodiscard]] double uptime_seconds();

/// Dense small id for the calling thread (0 = first thread to ask, which
/// in practice is main). Used for log prefixes, trace tracks, counter
/// shard selection and flight-recorder rings. No two live threads share
/// an id; an exited thread's id is reused by a later thread once more
/// than eight exited ids are waiting, so short-lived threads do not
/// exhaust per-id tables. Code that runs in a thread-local destructor
/// must not rely on the id.
[[nodiscard]] std::uint32_t thread_index();

/// Secondary log consumer, invoked (outside the stderr mutex) for every
/// record that passes the threshold. Must be safe to call from any thread.
using LogSink = void (*)(LogLevel level, const std::string& message, double uptime_s,
                         std::uint32_t thread);
/// Install / remove (nullptr) the secondary sink.
void set_log_sink(LogSink sink);

}  // namespace spice

#define SPICE_LOG(level, expr)                                        \
  do {                                                                \
    if (static_cast<int>(level) >= static_cast<int>(::spice::log_level())) { \
      std::ostringstream spice_log_os;                                \
      spice_log_os << expr;                                           \
      ::spice::log_message(level, spice_log_os.str());                \
    }                                                                 \
  } while (0)

#define SPICE_DEBUG(expr) SPICE_LOG(::spice::LogLevel::Debug, expr)
#define SPICE_INFO(expr) SPICE_LOG(::spice::LogLevel::Info, expr)
#define SPICE_WARN(expr) SPICE_LOG(::spice::LogLevel::Warn, expr)
#define SPICE_ERROR(expr) SPICE_LOG(::spice::LogLevel::Error, expr)
