#include "replay.h"

#include <algorithm>
#include <map>
#include <utility>

#include "checks.h"
#include "coflow/rate_allocator.h"
#include "network/bandwidth.h"

namespace hitbench {

std::vector<double> event_instants(const std::vector<FlowRecord>& flows) {
  std::vector<double> t;
  t.reserve(2 * flows.size());
  for (const FlowRecord& f : flows) {
    t.push_back(f.release);
    t.push_back(f.finish);
  }
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

SolverReplay replay(Solver solver, const hit::topo::Topology& topology, double scale,
                    const std::vector<FlowRecord>& flows, SpanLog* log,
                    std::uint64_t run) {
  SolverReplay out;
  const hit::net::MaxMinFairAllocator allocator(topology, scale);
  const char* span = solver == Solver::MaxMin ? "network.maxmin.allocate"
                                              : "coflow.madd_allocate";

  std::vector<std::size_t> by_release(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) by_release[i] = i;
  std::stable_sort(by_release.begin(), by_release.end(), [&](std::size_t a, std::size_t b) {
    return flows[a].release < flows[b].release;
  });

  const std::vector<double> instants = event_instants(flows);
  std::vector<std::size_t> active;
  std::size_t next = 0;
  for (std::size_t k = 0; k + 1 < instants.size(); ++k) {
    const double now = instants[k];
    while (next < by_release.size() && flows[by_release[next]].release <= now) {
      active.push_back(by_release[next++]);
    }
    std::erase_if(active, [&](std::size_t i) { return flows[i].finish <= now; });
    if (active.empty()) continue;
    std::sort(active.begin(), active.end());

    std::vector<hit::net::FlowDemand> demands;
    demands.reserve(active.size());
    for (std::size_t i : active) {
      demands.push_back(hit::net::FlowDemand{flows[i].id, flows[i].path, 0.0});
    }
    std::vector<double> remaining;
    std::vector<std::vector<std::size_t>> groups;
    if (solver == Solver::Madd) {
      // Bytes left if the flow moved at a steady pace over its lifetime;
      // coflows are the flows of one job wave, served earliest-released
      // first.
      std::map<std::pair<double, std::pair<std::uint64_t, std::uint32_t>>,
               std::vector<std::size_t>>
          by_coflow;
      std::map<std::pair<std::uint64_t, std::uint32_t>, double> first_release;
      for (std::size_t j = 0; j < active.size(); ++j) {
        const FlowRecord& f = flows[active[j]];
        remaining.push_back(f.size_gb * (f.finish - now) / (f.finish - f.release));
        const auto key = std::make_pair(std::uint64_t{f.job.value()}, f.wave);
        const auto it = first_release.find(key);
        if (it == first_release.end() || f.release < it->second) first_release[key] = f.release;
      }
      for (std::size_t j = 0; j < active.size(); ++j) {
        const FlowRecord& f = flows[active[j]];
        const auto key = std::make_pair(std::uint64_t{f.job.value()}, f.wave);
        by_coflow[{first_release.at(key), key}].push_back(j);
      }
      for (auto& [key, members] : by_coflow) groups.push_back(std::move(members));
    }

    const Clock::time_point start = Clock::now();
    const std::vector<double> rates =
        solver == Solver::MaxMin
            ? allocator.allocate(demands)
            : hit::coflow::madd_allocate(topology, demands, remaining, groups, scale);
    const Clock::time_point end = Clock::now();
    if (log != nullptr) log->add(span, "replay", run, start, end);
    ++out.solves;
    out.flows += demands.size();
    out.solve_s.push_back(seconds_between(start, end));
    out.busy_s += out.solve_s.back();

    if (out.violation.empty()) {
      out.violation = solver == Solver::MaxMin
                          ? check_maxmin(topology, scale, demands, rates)
                          : check_feasible(topology, scale, demands, rates);
      if (!out.violation.empty()) {
        out.violation = std::string(span) + " at t=" + std::to_string(now) + ": " +
                        out.violation;
      }
    }
  }
  return out;
}

}  // namespace hitbench
