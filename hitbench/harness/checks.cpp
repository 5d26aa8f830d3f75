#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace hitbench {

using hit::NodeId;
using hit::ServerId;
using hit::TaskId;

namespace {

constexpr double kRel = 1e-7;  // relative slack for floating-point sums
constexpr double kAbs = 1e-9;

// One capacity-bearing element crossed by some flow: a switch or an
// undirected link, keyed by its (sorted) end nodes.
struct Element {
  double capacity = 0.0;
  double load = 0.0;
  std::vector<std::size_t> flows;  // one entry per crossing
};

// (lo << 32 | hi) of the element's end nodes; a switch is (w, w).
using ElementKey = std::uint64_t;

ElementKey element_key(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return lo << 32 | hi;
}

std::unordered_map<ElementKey, Element> load_elements(const hit::topo::Topology& topology,
                                            double scale,
                                            const std::vector<hit::net::FlowDemand>& demands,
                                            const std::vector<double>& rates,
                                            std::string& error) {
  std::unordered_map<ElementKey, Element> elements;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const hit::topo::Path& path = demands[i].path;
    for (std::size_t j = 0; j < path.size(); ++j) {
      if (topology.is_switch(path[j])) {
        Element& e = elements[element_key(path[j], path[j])];
        e.capacity = topology.switch_capacity(path[j]) * scale;
        e.load += rates[i];
        e.flows.push_back(i);
      }
      if (j + 1 == path.size()) continue;
      const auto bw = topology.graph().bandwidth(path[j], path[j + 1]);
      if (!bw) {
        error = "flow " + std::to_string(i) + " crosses a missing link";
        return {};
      }
      Element& e = elements[element_key(path[j], path[j + 1])];
      e.capacity = *bw * scale;
      e.load += rates[i];
      e.flows.push_back(i);
    }
  }
  return elements;
}

std::string describe(ElementKey key) {
  const std::uint64_t lo = key >> 32;
  const std::uint64_t hi = key & 0xFFFFFFFFull;
  return lo == hi ? "switch " + std::to_string(lo)
                  : "link " + std::to_string(lo) + "-" + std::to_string(hi);
}

}  // namespace

hit::topo::Path walk_path(NodeId src, const std::vector<NodeId>& switches, NodeId dst) {
  hit::topo::Path path{src};
  path.insert(path.end(), switches.begin(), switches.end());
  path.push_back(dst);
  return path;
}

std::string check_assignment(const hit::sched::Problem& problem,
                             const hit::sched::Assignment& assignment) {
  const hit::topo::Topology& topology = *problem.topology;
  const hit::cluster::Cluster& cluster = *problem.cluster;
  std::vector<hit::cluster::Resource> used(cluster.size());
  if (!problem.base_usage.empty()) {
    if (problem.base_usage.size() != cluster.size()) return "base_usage size mismatch";
    used = problem.base_usage;
  }
  for (const hit::sched::TaskRef& t : problem.tasks) {
    const auto it = assignment.placement.find(t.id);
    if (it == assignment.placement.end()) {
      return "task " + std::to_string(t.id.value()) + " is not placed";
    }
    const ServerId s = it->second;
    if (!s.valid() || s.index() >= cluster.size()) {
      return "task " + std::to_string(t.id.value()) + " placed on an unknown server";
    }
    if (!problem.base_usage.empty() &&
        !(problem.base_usage[s.index()] + t.demand).fits_in(cluster.server(s).capacity)) {
      return "task " + std::to_string(t.id.value()) + " placed on server " +
             std::to_string(s.value()) + ", which was offered no headroom";
    }
    used[s.index()] += t.demand;
  }
  if (assignment.placement.size() != problem.tasks.size()) {
    return "assignment places tasks the problem did not ask for";
  }
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    const hit::cluster::Resource cap = cluster.servers()[s].capacity;
    if (used[s].vcores > cap.vcores * (1 + kRel) + kAbs ||
        used[s].mem_gb > cap.mem_gb * (1 + kRel) + kAbs) {
      return "server " + std::to_string(s) + " over capacity";
    }
  }
  for (const hit::net::Flow& f : problem.flows) {
    const ServerId a = assignment.host(problem, f.src_task);
    const ServerId b = assignment.host(problem, f.dst_task);
    if (!a.valid() || !b.valid() || a == b) continue;
    const auto it = assignment.policies.find(f.id);
    if (it == assignment.policies.end() || it->second.list.empty()) {
      return "flow " + std::to_string(f.id.value()) + " between servers has no policy";
    }
    const hit::topo::Path path =
        walk_path(cluster.node_of(a), it->second.list, cluster.node_of(b));
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      if (j > 0 && !topology.is_switch(path[j])) {
        return "flow " + std::to_string(f.id.value()) + " policy lists a non-switch";
      }
      if (!topology.graph().adjacent(path[j], path[j + 1])) {
        return "flow " + std::to_string(f.id.value()) +
               " policy is not a connected walk between its endpoints";
      }
    }
  }
  return {};
}

namespace {

// Feasibility, and with `maxmin` also max-min optimality, in one pass over
// the loaded elements.
std::string check_rates(const hit::topo::Topology& topology, double scale,
                        const std::vector<hit::net::FlowDemand>& demands,
                        const std::vector<double>& rates, bool maxmin) {
  if (rates.size() != demands.size()) return "rate vector size mismatch";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (!std::isfinite(rates[i]) || rates[i] < 0.0) {
      return "flow " + std::to_string(i) + " has rate " + std::to_string(rates[i]);
    }
  }
  std::string error;
  const auto elements = load_elements(topology, scale, demands, rates, error);
  if (!error.empty()) return error;
  std::vector<char> has_bottleneck(demands.size(), 0);
  for (const auto& [key, e] : elements) {
    if (e.load > e.capacity * (1 + kRel) + kAbs) {
      std::ostringstream out;
      out << describe(key) << " carries " << e.load << " > capacity " << e.capacity;
      return out.str();
    }
    if (!maxmin || e.load < e.capacity * (1 - kRel) - kAbs) continue;  // not saturated
    double top = 0.0;
    for (std::size_t i : e.flows) top = std::max(top, rates[i]);
    for (std::size_t i : e.flows) {
      if (rates[i] >= top * (1 - kRel) - kAbs) has_bottleneck[i] = 1;
    }
  }
  for (std::size_t i = 0; maxmin && i < demands.size(); ++i) {
    if (!has_bottleneck[i]) {
      return "flow " + std::to_string(i) +
             " has no saturated resource where its rate is the largest";
    }
  }
  return {};
}

}  // namespace

std::string check_feasible(const hit::topo::Topology& topology, double scale,
                           const std::vector<hit::net::FlowDemand>& demands,
                           const std::vector<double>& rates) {
  return check_rates(topology, scale, demands, rates, /*maxmin=*/false);
}

std::string check_maxmin(const hit::topo::Topology& topology, double scale,
                         const std::vector<hit::net::FlowDemand>& demands,
                         const std::vector<double>& rates) {
  return check_rates(topology, scale, demands, rates, /*maxmin=*/true);
}

double path_bottleneck(const hit::topo::Topology& topology, double scale,
                       const hit::topo::Path& path) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < path.size(); ++j) {
    if (topology.is_switch(path[j])) {
      best = std::min(best, topology.switch_capacity(path[j]) * scale);
    }
    if (j + 1 < path.size()) {
      if (const auto bw = topology.graph().bandwidth(path[j], path[j + 1])) {
        best = std::min(best, *bw * scale);
      }
    }
  }
  return best;
}

std::string check_bottleneck(double size_gb, double bottleneck, double duration) {
  const double fastest = size_gb / bottleneck;
  if (duration < fastest * (1 - kRel) - kAbs) {
    std::ostringstream out;
    out << "a " << size_gb << " GB transfer took " << duration
        << " s, below its bottleneck bound " << fastest << " s";
    return out.str();
  }
  return {};
}

}  // namespace hitbench
