#include "obs/recorder.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace spice::obs {

namespace detail {
// The recorder is the always-on tier: unlike metrics/tracing it defaults
// to enabled, so the last seconds of any run are post-mortem-recoverable.
std::atomic<bool> g_recorder_enabled{kCompiledIn};
}  // namespace detail

void set_recorder_enabled(bool on) {
  detail::g_recorder_enabled.store(kCompiledIn && on, std::memory_order_relaxed);
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity_per_thread)
    : capacity_(round_up_pow2(std::max<std::size_t>(capacity_per_thread, 16))),
      mask_(capacity_ - 1) {}

FlightRecorder::~FlightRecorder() {
  for (auto& slot : rings_) delete slot.load(std::memory_order_acquire);
}

FlightRecorder::Ring* FlightRecorder::ring_for_thread() {
  const std::uint32_t index = thread_index();
  if (index >= kMaxThreads) return nullptr;
  Ring* ring = rings_[index].load(std::memory_order_acquire);
  if (ring != nullptr) return ring;
  // First event from this id: allocate its ring. A thread that inherits
  // an exited thread's id writes on into that thread's ring. The CAS loser
  // (only possible if one id were live in two threads at once, which
  // thread_index() precludes) frees its attempt.
  auto fresh = std::make_unique<Ring>();
  fresh->words = std::make_unique<std::atomic<std::uint64_t>[]>(capacity_ * kWordsPerEvent);
  Ring* expected = nullptr;
  if (rings_[index].compare_exchange_strong(expected, fresh.get(),
                                            std::memory_order_acq_rel)) {
    return fresh.release();
  }
  return expected;
}

std::vector<RecorderEvent> FlightRecorder::drain() const {
  std::vector<RecorderEvent> out;
  std::vector<std::uint64_t> words;
  for (std::uint32_t t = 0; t < kMaxThreads; ++t) {
    const Ring* ring = rings_[t].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t resident = std::min<std::uint64_t>(head, capacity_);
    const std::uint64_t first = head - resident;
    words.assign(resident * kWordsPerEvent, 0);
    for (std::uint64_t i = 0; i < resident * kWordsPerEvent; ++i) {
      const std::uint64_t base = (first + i / kWordsPerEvent) & mask_;
      words[i] = ring->words[base * kWordsPerEvent + i % kWordsPerEvent].load(
          std::memory_order_relaxed);
    }
    // Writers may have lapped part of the copy: every event with
    // index ≤ head_after − capacity sits in a slot that has been (or is
    // being) rewritten, so only strictly younger events are kept.
    const std::uint64_t head_after = ring->head.load(std::memory_order_acquire);
    const std::uint64_t safe_first =
        head_after > capacity_ ? head_after - capacity_ + 1 : 0;
    for (std::uint64_t i = std::max(first, safe_first); i < head; ++i) {
      const std::uint64_t* w = words.data() + (i - first) * kWordsPerEvent;
      RecorderEvent event;
      event.kind = static_cast<RecordKind>(w[2] & 0xFu);
      event.name = reinterpret_cast<const char*>(w[0]);
      event.ts_us = double_of(w[1]);
      event.ctx = TraceContext{w[2] & ~std::uint64_t{0xF}};
      event.value = double_of(w[3]);
      event.thread = t;
      out.push_back(event);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RecorderEvent& a, const RecorderEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::uint64_t FlightRecorder::recorded_count() const {
  std::uint64_t total = 0;
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t FlightRecorder::overwritten_count() const {
  std::uint64_t total = 0;
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > capacity_) total += head - capacity_;
  }
  return total;
}

std::size_t FlightRecorder::active_threads() const {
  std::size_t n = 0;
  for (const auto& slot : rings_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

FlightRecorder& flight_recorder() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace spice::obs
