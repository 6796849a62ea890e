#include "grid/job_table.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace spice::grid {

JobState to_job_state(RowState s) {
  switch (s) {
    case RowState::Queued:
      return JobState::Queued;
    case RowState::Running:
      return JobState::Running;
    case RowState::Completed:
      return JobState::Completed;
    case RowState::Failed:
      return JobState::Failed;
    case RowState::Pending:
    case RowState::Held:
    case RowState::Backoff:
      return JobState::Pending;
    case RowState::Free:
      break;
  }
  SPICE_REQUIRE(false, "no public state for a free row");
  return JobState::Pending;
}

void JobTable::unlink(JobRow row) {
  const auto s = static_cast<std::size_t>(state_[row]);
  const JobRow p = prev_[row];
  const JobRow n = next_[row];
  if (p == kNoRow) {
    head_[s] = n;
  } else {
    next_[p] = n;
  }
  if (n == kNoRow) {
    tail_[s] = p;
  } else {
    prev_[n] = p;
  }
  --count_[s];
}

void JobTable::link_back(JobRow row, RowState state) {
  const auto s = static_cast<std::size_t>(state);
  state_[row] = state;
  prev_[row] = tail_[s];
  next_[row] = kNoRow;
  if (tail_[s] == kNoRow) {
    head_[s] = row;
  } else {
    next_[tail_[s]] = row;
  }
  tail_[s] = row;
  ++count_[s];
}

void JobTable::set_state(JobRow row, RowState state) {
  SPICE_REQUIRE(state_[row] != RowState::Free, "state change on a released row");
  unlink(row);
  link_back(row, state);
}

JobRow JobTable::alloc_row() {
  const JobRow free_head = head_[static_cast<std::size_t>(RowState::Free)];
  if (free_head != kNoRow) {
    unlink(free_head);
    return free_head;
  }
  const auto row = static_cast<JobRow>(id_.size());
  id_.push_back(0);
  name_id_.push_back(-1);
  kind_.push_back(JobKind::Background);
  state_.push_back(RowState::Pending);
  processors_.push_back(0);
  runtime_hours_.push_back(0.0);
  checkpoint_interval_.push_back(0.0);
  site_.push_back(kNoSite);
  submit_time_.push_back(0.0);
  start_time_.push_back(0.0);
  end_time_.push_back(0.0);
  requeues_.push_back(0);
  holds_.push_back(0);
  completed_fraction_.push_back(0.0);
  consumed_cpu_.push_back(0.0);
  wasted_cpu_.push_back(0.0);
  fail_reason_.push_back(nullptr);
  event_token_.push_back(0);
  running_index_.push_back(0);
  prev_.push_back(kNoRow);
  next_.push_back(kNoRow);
  return row;
}

JobRow JobTable::insert(const Job& job) {
  SPICE_REQUIRE(job.processors > 0, "job needs processors");
  SPICE_REQUIRE(job.runtime_hours > 0.0, "job needs a positive runtime");
  const JobRow row = alloc_row();
  id_[row] = job.id;
  if (job.name.empty()) {
    name_id_[row] = -1;
  } else if (!free_names_.empty()) {
    const std::int32_t nid = free_names_.back();
    free_names_.pop_back();
    names_[nid] = job.name;
    name_id_[row] = nid;
  } else {
    name_id_[row] = static_cast<std::int32_t>(names_.size());
    names_.push_back(job.name);
  }
  kind_[row] = job.kind;
  processors_[row] = job.processors;
  runtime_hours_[row] = job.runtime_hours;
  checkpoint_interval_[row] = job.checkpoint_interval_hours;
  site_[row] = job.site.empty() ? kNoSite : find_site(job.site);
  SPICE_REQUIRE(job.site.empty() || site_[row] != kNoSite,
                "job names unregistered site: " + job.site);
  submit_time_[row] = job.submit_time;
  start_time_[row] = job.start_time;
  end_time_[row] = job.end_time;
  requeues_[row] = job.requeues;
  holds_[row] = job.holds;
  completed_fraction_[row] = job.completed_fraction;
  consumed_cpu_[row] = job.consumed_cpu_hours;
  wasted_cpu_[row] = job.wasted_cpu_hours;
  fail_reason_[row] = nullptr;
  event_token_[row] = 0;
  running_index_[row] = 0;
  link_back(row, RowState::Pending);
  ++live_;
  peak_ = std::max(peak_, live_);
  return row;
}

void JobTable::release(JobRow row) {
  SPICE_REQUIRE(state_[row] != RowState::Free, "double release of a job row");
  if (name_id_[row] >= 0) {
    names_[name_id_[row]].clear();
    free_names_.push_back(name_id_[row]);
    name_id_[row] = -1;
  }
  unlink(row);
  link_back(row, RowState::Free);
  SPICE_ENSURE(live_ > 0, "row accounting underflow");
  --live_;
}

SiteId JobTable::register_site(const std::string& name) {
  const SiteId existing = find_site(name);
  if (existing != kNoSite) return existing;
  site_names_.push_back(name);
  site_loads_.emplace_back();
  return static_cast<SiteId>(site_names_.size() - 1);
}

SiteId JobTable::find_site(const std::string& name) const {
  for (std::size_t i = 0; i < site_names_.size(); ++i) {
    if (site_names_[i] == name) return static_cast<SiteId>(i);
  }
  return kNoSite;
}

GridId JobTable::register_grid(const std::string& name) {
  const GridId existing = find_grid(name);
  if (existing != kNoGrid) return existing;
  grid_names_.push_back(name);
  return static_cast<GridId>(grid_names_.size() - 1);
}

GridId JobTable::find_grid(const std::string& name) const {
  const auto it = std::find(grid_names_.begin(), grid_names_.end(), name);
  return it == grid_names_.end() ? kNoGrid : static_cast<GridId>(it - grid_names_.begin());
}

std::string JobTable::display_name(JobRow row) const {
  if (name_id_[row] >= 0) return names_[name_id_[row]];
  return "job" + std::to_string(id_[row]);
}

Job JobTable::materialize(JobRow row) const {
  Job job;
  job.id = id_[row];
  job.name = display_name(row);
  if (fail_reason_[row] != nullptr) {
    job.name += std::string(" [") + fail_reason_[row] + "]";
  }
  job.kind = kind_[row];
  job.processors = processors_[row];
  job.runtime_hours = runtime_hours_[row];
  job.checkpoint_interval_hours = checkpoint_interval_[row];
  job.state = to_job_state(state_[row]);
  if (site_[row] != kNoSite) job.site = site_names_[site_[row]];
  job.submit_time = submit_time_[row];
  job.start_time = start_time_[row];
  job.end_time = end_time_[row];
  job.requeues = requeues_[row];
  job.holds = holds_[row];
  job.completed_fraction = completed_fraction_[row];
  job.consumed_cpu_hours = consumed_cpu_[row];
  job.wasted_cpu_hours = wasted_cpu_[row];
  return job;
}

std::uint64_t JobTable::fingerprint() const {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto mix = [](std::uint64_t h, std::uint64_t v) { return (h ^ v) * kPrime; };
  const auto mix_double = [&mix](std::uint64_t h, double v) {
    return mix(h, std::bit_cast<std::uint64_t>(v));
  };
  // Per-row digests, combined order-independently via a sorted vector.
  std::vector<std::uint64_t> digests;
  digests.reserve(live_);
  for (JobRow row = 0; row < id_.size(); ++row) {
    if (state_[row] == RowState::Free) continue;
    std::uint64_t h = kBasis;
    h = mix(h, id_[row]);
    h = mix(h, static_cast<std::uint64_t>(state_[row]));
    h = mix(h, static_cast<std::uint64_t>(kind_[row]));
    h = mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(site_[row])));
    h = mix(h, static_cast<std::uint64_t>(requeues_[row]));
    h = mix(h, static_cast<std::uint64_t>(holds_[row]));
    h = mix(h, event_token_[row] != 0 ? 1 : 0);
    h = mix_double(h, submit_time_[row]);
    h = mix_double(h, start_time_[row]);
    h = mix_double(h, end_time_[row]);
    h = mix_double(h, completed_fraction_[row]);
    h = mix_double(h, consumed_cpu_[row]);
    h = mix_double(h, wasted_cpu_[row]);
    digests.push_back(h);
  }
  std::sort(digests.begin(), digests.end());
  std::uint64_t h = kBasis;
  for (const std::uint64_t d : digests) h = mix(h, d);
  // List order per state (skip Free: recycling order is interleaving
  // noise with no behavioral meaning).
  for (std::size_t s = 0; s < kRowStates; ++s) {
    if (s == static_cast<std::size_t>(RowState::Free)) continue;
    h = mix(h, 0x6c697374ULL /*"list"*/ + s);
    for (JobRow row = head_[s]; row != kNoRow; row = next_[row]) {
      h = mix(h, id_[row]);
    }
  }
  return h;
}

std::size_t JobTable::bytes_per_row() {
  return sizeof(JobId) + sizeof(std::int32_t) + sizeof(JobKind) + sizeof(RowState) +
         sizeof(std::int32_t) + 8 * sizeof(double) + sizeof(SiteId) +
         2 * sizeof(std::int32_t) + sizeof(const char*) + sizeof(std::uint64_t) +
         sizeof(std::uint32_t) + 2 * sizeof(JobRow);
}

}  // namespace spice::grid
