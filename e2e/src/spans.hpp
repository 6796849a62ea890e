#pragma once
// In-memory span log for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (the
// program itself is not instrumented for this); each span keeps its name,
// start, end and parent. The log is written out once, when the run ends.

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the log was created
    double end_s = -1.0;   ///< < 0 while open
    int parent = -1;       ///< index into spans(), -1 = root

    [[nodiscard]] double seconds() const { return end_s - start_s; }
  };

  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time covered by child spans
  };

  SpanLog();

  /// Open a span whose parent is the innermost span still open.
  int open(std::string name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every closed span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Per-name totals and self times, in order of first appearance.
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON (one complete event per span, parent in args).
  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op.
class Scope {
 public:
  Scope(SpanLog* log, std::string name) : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace e2e
