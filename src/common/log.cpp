#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>

namespace spice {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};
std::atomic<LogSink> g_sink{nullptr};
std::mutex g_log_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Info:
      return "INFO ";
    case LogLevel::Warn:
      return "WARN ";
    case LogLevel::Error:
      return "ERROR";
    case LogLevel::Off:
      return "OFF  ";
  }
  return "?????";
}

/// Pool of thread ids. An exiting thread returns its id; ids are reused
/// first-in first-out once more than kQuarantine are waiting, so the ids
/// stay dense under thread churn while an exited thread's per-id state
/// (e.g. its flight-recorder ring, with its last events) survives the
/// next few thread exits.
class ThreadIds {
 public:
  static constexpr std::size_t kQuarantine = 8;

  std::uint32_t acquire() {
    std::lock_guard lock(mutex_);
    if (exited_.size() <= kQuarantine) return next_++;
    const std::uint32_t id = exited_.front();
    exited_.pop_front();
    return id;
  }
  void release(std::uint32_t id) {
    std::lock_guard lock(mutex_);
    exited_.push_back(id);
  }

 private:
  std::mutex mutex_;
  std::uint32_t next_ = 0;
  std::deque<std::uint32_t> exited_;
};

/// Never destroyed: threads may still exit while statics are torn down.
ThreadIds& thread_ids() {
  static ThreadIds* const ids = new ThreadIds;
  return *ids;
}

/// Holds the calling thread's id and hands it back when the thread's
/// thread-local storage is destroyed.
struct ThreadSlot {
  ThreadSlot() : id(thread_ids().acquire()) {}
  ~ThreadSlot() { thread_ids().release(id); }
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
  const std::uint32_t id;
};

std::chrono::steady_clock::time_point process_anchor() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return anchor;
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel log_level() { return static_cast<LogLevel>(g_level.load()); }

double uptime_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - process_anchor())
      .count();
}

std::uint32_t thread_index() {
  thread_local const ThreadSlot slot;
  return slot.id;
}

void set_log_sink(LogSink sink) { g_sink.store(sink, std::memory_order_release); }

void log_message(LogLevel level, const std::string& message) {
  const double uptime = uptime_seconds();
  const std::uint32_t thread = thread_index();
  {
    // One serialized, atomic-at-the-line-level write: worker threads
    // logging concurrently produce whole lines, never interleaved shards.
    std::lock_guard lock(g_log_mutex);
    std::fprintf(stderr, "[spice %s +%.3fs T%02u] %s\n", level_name(level), uptime, thread,
                 message.c_str());
  }
  if (const LogSink sink = g_sink.load(std::memory_order_acquire)) {
    sink(level, message, uptime, thread);
  }
}

}  // namespace spice
