#include "grid/workflow.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/error.hpp"

namespace spice::grid {

WorkflowEngine::WorkflowEngine(Federation& federation, BrokerPolicy policy)
    : federation_(federation), policy_(policy) {
  federation_.add_listener([this](const Job& job) { on_job_done(job); });
}

NodeId WorkflowEngine::add_node(Job job, std::vector<NodeId> dependencies) {
  SPICE_REQUIRE(!started_, "cannot add nodes after start()");
  SPICE_REQUIRE(job.id != 0, "workflow jobs need non-zero ids");
  for (const NodeId dep : dependencies) {
    SPICE_REQUIRE(dep < nodes_.size(), "dependency on unknown node");
  }
  SPICE_REQUIRE(!job_to_node_.contains(job.id), "duplicate job id in workflow");
  const auto id = static_cast<NodeId>(nodes_.size());
  job_to_node_[job.id] = id;
  nodes_.push_back(WorkflowNode{std::move(job), std::move(dependencies)});
  states_.push_back(NodeState::Waiting);
  requeues_left_.push_back(3);
  return id;
}

void WorkflowEngine::start() {
  SPICE_REQUIRE(!started_, "workflow already started");
  SPICE_REQUIRE(!nodes_.empty(), "workflow is empty");
  started_ = true;
  start_time_ = federation_.events().now();
  last_completion_ = start_time_;
  try_dispatch();
}

bool WorkflowEngine::done() const {
  if (!started_) return false;
  return std::none_of(states_.begin(), states_.end(), [](NodeState s) {
    return s == NodeState::Waiting || s == NodeState::Submitted;
  });
}

void WorkflowEngine::try_dispatch() {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (states_[id] != NodeState::Waiting) continue;
    const bool ready = std::all_of(
        nodes_[id].dependencies.begin(), nodes_[id].dependencies.end(),
        [this](NodeId dep) { return states_[dep] == NodeState::Completed; });
    const bool doomed = std::any_of(
        nodes_[id].dependencies.begin(), nodes_[id].dependencies.end(),
        [this](NodeId dep) { return states_[dep] == NodeState::Failed; });
    if (doomed) {
      states_[id] = NodeState::Failed;
      fail_dependents(id);
      continue;
    }
    if (!ready) continue;

    // Pick the least-loaded usable site from the broker's site-load board
    // (no job-size term, unlike the broker's LeastBacklog).
    const std::span<const SiteLoad> board = federation_.jobs().site_loads();
    const SiteRequest request{.processors = nodes_[id].job.processors,
                              .now = federation_.events().now()};
    SiteId best = kNoSite;
    double best_load = std::numeric_limits<double>::infinity();
    for (SiteId s = 0; s < static_cast<SiteId>(board.size()); ++s) {
      if (!site_accepts(board[s], s, request)) continue;
      if (policy_ == BrokerPolicy::SingleSite) {
        best = s;
        break;
      }
      const double load = board[s].backlog_hours(request.now) / board[s].speed;
      if (load < best_load) {
        best_load = load;
        best = s;
      }
    }
    if (best == kNoSite) {
      states_[id] = NodeState::Failed;
      fail_dependents(id);
      continue;
    }
    states_[id] = NodeState::Submitted;
    federation_.sites()[static_cast<std::size_t>(best)]->submit(nodes_[id].job);
  }
}

void WorkflowEngine::fail_dependents(NodeId id) {
  for (NodeId other = 0; other < nodes_.size(); ++other) {
    if (states_[other] != NodeState::Waiting) continue;
    const auto& deps = nodes_[other].dependencies;
    if (std::find(deps.begin(), deps.end(), id) != deps.end()) {
      states_[other] = NodeState::Failed;
      fail_dependents(other);
    }
  }
}

void WorkflowEngine::on_job_done(const Job& job) {
  const auto it = job_to_node_.find(job.id);
  if (it == job_to_node_.end()) return;  // background job
  const NodeId id = it->second;
  if (states_[id] != NodeState::Submitted) return;

  if (job.state == JobState::Completed) {
    states_[id] = NodeState::Completed;
    last_completion_ = std::max(last_completion_, job.end_time);
    try_dispatch();
    return;
  }
  // Failed: retry with the remaining budget, else fail the subtree.
  if (requeues_left_[id] > 0) {
    --requeues_left_[id];
    states_[id] = NodeState::Waiting;
    federation_.events().after(0.1, [this] { try_dispatch(); });
    return;
  }
  states_[id] = NodeState::Failed;
  fail_dependents(id);
  try_dispatch();
}

WorkflowResult WorkflowEngine::result() const {
  SPICE_REQUIRE(done(), "workflow still in flight");
  WorkflowResult out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    out.states[id] = states_[id];
    if (states_[id] == NodeState::Completed) ++out.completed;
    if (states_[id] == NodeState::Failed) ++out.failed;
  }
  out.makespan_hours = last_completion_ - start_time_;

  // Critical path over completed nodes (DAG ⇒ simple memoized depth).
  std::vector<std::size_t> depth(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {  // add_node order is topological
    if (states_[id] != NodeState::Completed) continue;
    std::size_t best = 0;
    for (const NodeId dep : nodes_[id].dependencies) best = std::max(best, depth[dep]);
    depth[id] = best + 1;
    out.critical_path_nodes = std::max(out.critical_path_nodes, depth[id]);
  }
  return out;
}

}  // namespace spice::grid
