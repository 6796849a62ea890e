#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace e2e {

SpanLog::SpanLog() : t0_(std::chrono::steady_clock::now()) {}

int SpanLog::open(std::string name) {
  const double now = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now, -1.0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int id) {
  // Scope closes spans from destructors, innermost first; it must not throw.
  spans_[id].end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  std::erase(open_, id);
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_s >= 0.0) out.push_back(span.seconds());
  }
  return out;
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_s >= 0.0) child_s[span.parent] += span.seconds();
  }
  std::vector<SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0.0) continue;
    auto it = out.begin();
    while (it != out.end() && it->name != span.name) ++it;
    if (it == out.end()) it = out.insert(out.end(), SelfTime{span.name});
    ++it->count;
    it->total_s += span.seconds();
    it->self_s += span.seconds() - child_s[i];
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",";
    // Span names are benchmark-chosen identifiers: no escaping needed.
    out << "\n{\"name\":\"" << span.name << "\""
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << span.start_s * 1e6
        << ",\"dur\":" << (span.end_s >= 0.0 ? span.seconds() : 0.0) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace e2e
