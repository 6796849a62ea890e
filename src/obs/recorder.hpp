#pragma once
// spice::obs — always-on flight recorder (DESIGN.md §8.2).
//
// The black box: per-thread lock-free bounded ring buffers of compact
// fixed-size binary events, written at ~tens-of-ns cost with full tracing
// OFF, overwriting oldest-first so the last N events per thread are always
// resident. When something wedges — a watchdog stall, a fatal signal, a
// testkit check failure — the post-mortem dumper (obs/postmortem) drains
// every ring into a merged Chrome trace, so "what was the system doing in
// the seconds before?" has an answer without ever paying for full tracing.
//
// Hot-path contract:
//   * record() is wait-free: one relaxed head load, four relaxed word
//     stores into the caller's own ring slot, one release head store.
//     No allocation after a thread's first event, no locks, ever.
//   * `name` MUST be a string literal (or otherwise immortal): events
//     store the pointer, not the characters. This is what keeps an event
//     at 32 bytes and the write at a handful of stores.
//   * One writer per ring: rings are keyed by thread_index() (dense ids
//     from common/log). An exited thread's id, and with it its ring,
//     passes to a later thread, so thread churn reuses rings instead of
//     leaking one per thread. drain() from any thread is safe against
//     concurrent writers — slots that may have been overwritten during
//     the copy are discarded, never returned torn.
//   * Recording only reads the clock and writes the ring — simulation
//     state is untouched, so recorder-on runs are byte-identical to
//     recorder-off runs (locked in by test_obs_recorder).
//
// The recorder is ON by default (that is the point); set_recorder_enabled
// (or SPICE_OBS=OFF at compile time) turns the write into one relaxed
// flag load.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/context.hpp"
#include "obs/metrics.hpp"  // SPICE_OBS_ENABLED, now_us

namespace spice::obs {

namespace detail {
extern std::atomic<bool> g_recorder_enabled;
}  // namespace detail

/// True when flight recording is compiled in AND runtime-enabled
/// (default: enabled — the recorder is the always-on tier).
inline bool recorder_on() {
  return kCompiledIn && detail::g_recorder_enabled.load(std::memory_order_relaxed);
}
void set_recorder_enabled(bool on);

/// Event kinds, packed into the context word's reserved low 4 bits
/// (TraceContext declares bits 0..3 reserved) — the name pointer must stay
/// untouched because string literals have no alignment guarantee.
enum class RecordKind : std::uint8_t {
  Span = 0,     ///< completed span; value = duration µs, ts = start
  Instant = 1,  ///< point event
  Count = 2,    ///< sampled numeric value (ring occupancy, lag, ...)
  Command = 3,  ///< steering command accepted; value = sequence number
  Mark = 4,     ///< lifecycle marker (job start/finish, connect, ...)
};

/// One decoded recorder event (drain output).
struct RecorderEvent {
  RecordKind kind = RecordKind::Instant;
  const char* name = nullptr;
  double ts_us = 0.0;
  double value = 0.0;
  TraceContext ctx;
  std::uint32_t thread = 0;  ///< writer's thread_index()
};

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxThreads = 256;
  /// Default per-thread ring: 8192 × 32 B = 256 KiB per recording thread,
  /// allocated lazily on the thread's first event.
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// `capacity_per_thread` is rounded up to a power of two.
  explicit FlightRecorder(std::size_t capacity_per_thread = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event on the calling thread's ring. `name` must be
  /// immortal (string literal). Near-free when the recorder is disabled.
  void record(RecordKind kind, const char* name, double value = 0.0) {
    if (!recorder_on()) return;
    record_at(kind, name, now_us(), value, current_context());
  }
  /// Full-control variant (explicit timestamp and context) — used by the
  /// span helper and by layers that carry a non-thread-local context.
  void record_at(RecordKind kind, const char* name, double ts_us, double value,
                 TraceContext ctx) {
    if (!recorder_on()) return;
    Ring* ring = ring_for_thread();
    if (ring == nullptr) return;  // ring table exhausted: drop silently
    const std::uint64_t index = ring->head.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = ring->words.get() + (index & mask_) * kWordsPerEvent;
    w[0].store(reinterpret_cast<std::uint64_t>(name), std::memory_order_relaxed);
    w[1].store(bits_of(ts_us), std::memory_order_relaxed);
    w[2].store((ctx.bits & ~std::uint64_t{0xF}) | (static_cast<std::uint64_t>(kind) & 0xFu),
               std::memory_order_relaxed);
    w[3].store(bits_of(value), std::memory_order_relaxed);
    ring->head.store(index + 1, std::memory_order_release);
  }

  /// Copy out every thread's resident events, merged and sorted by
  /// timestamp. Safe against concurrent writers: events whose slot may
  /// have been rewritten during the copy are dropped, not returned torn.
  [[nodiscard]] std::vector<RecorderEvent> drain() const;

  /// Total events ever recorded (monotonic; resident ones are the last
  /// `capacity()` per thread).
  [[nodiscard]] std::uint64_t recorded_count() const;
  /// Events that have been overwritten (recorded − resident).
  [[nodiscard]] std::uint64_t overwritten_count() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Threads that have recorded at least one event.
  [[nodiscard]] std::size_t active_threads() const;

 private:
  static constexpr std::size_t kWordsPerEvent = 4;

  struct Ring {
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    std::atomic<std::uint64_t> head{0};
  };

  static std::uint64_t bits_of(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double double_of(std::uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Ring* ring_for_thread();

  std::size_t capacity_;
  std::uint64_t mask_;
  /// Lazily allocated per-thread rings; slot = thread_index(). Published
  /// with release so a drainer that sees the pointer sees the words array.
  std::array<std::atomic<Ring*>, kMaxThreads> rings_{};
};

/// The process-wide recorder every instrumented layer writes into.
[[nodiscard]] FlightRecorder& flight_recorder();

/// RAII span against the process recorder: one ring write at scope exit
/// (kind Span, ts = entry, value = duration µs). Context is captured at
/// exit so a scope that narrows the context stamps the narrowed id.
class RecordedSpan {
 public:
  explicit RecordedSpan(const char* name) {
    if (!recorder_on()) return;
    name_ = name;
    start_us_ = now_us();
  }
  ~RecordedSpan() {
    if (name_ == nullptr || !recorder_on()) return;
    flight_recorder().record_at(RecordKind::Span, name_, start_us_,
                                now_us() - start_us_, current_context());
  }
  RecordedSpan(const RecordedSpan&) = delete;
  RecordedSpan& operator=(const RecordedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace spice::obs

#if SPICE_OBS_ENABLED
#define SPICE_OBS_CONCAT_IMPL(a, b) a##b
#define SPICE_OBS_CONCAT(a, b) SPICE_OBS_CONCAT_IMPL(a, b)
/// Always-on flight-recorder span over the enclosing scope.
#define SPICE_RECORD_SPAN(name) \
  ::spice::obs::RecordedSpan SPICE_OBS_CONCAT(spice_record_span_, __LINE__)(name)
/// Always-on flight-recorder point event.
#define SPICE_RECORD_INSTANT(name) \
  ::spice::obs::flight_recorder().record(::spice::obs::RecordKind::Instant, (name))
#else
#define SPICE_RECORD_SPAN(name) \
  do {                          \
  } while (0)
#define SPICE_RECORD_INSTANT(name) \
  do {                             \
  } while (0)
#endif
