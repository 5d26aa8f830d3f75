// Self-test of the benchmark's checks: each one must accept a correct input
// and reject a hand-built bad one.  Exit code 0 when every case behaves.
//
//   python3 hitbench/run.py --self-test
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "network/bandwidth.h"
#include "topology/builders.h"

namespace {

using namespace hit;

int failures = 0;

void expect_ok(const std::string& what, const std::string& violation) {
  if (violation.empty()) {
    std::cout << "ok      " << what << "\n";
  } else {
    ++failures;
    std::cout << "FAILED  " << what << ": unexpected violation: " << violation << "\n";
  }
}

void expect_rejected(const std::string& what, const std::string& violation) {
  if (!violation.empty()) {
    std::cout << "ok      " << what << " (" << violation << ")\n";
  } else {
    ++failures;
    std::cout << "FAILED  " << what << ": bad input accepted\n";
  }
}

}  // namespace

int main() {
  const topo::Topology topology = topo::make_tree(topo::TreeConfig{3, 4, 2, 4});
  const cluster::Cluster cluster(topology, cluster::Resource{2.0, 8.0});
  const double scale = 0.05;
  const ServerId s0 = cluster.servers()[0].id;
  const ServerId s1 = cluster.servers()[1].id;
  const ServerId far = cluster.servers()[cluster.size() - 1].id;

  // ---- Assignments: three one-vcore tasks, one flow from t0 to t2.
  sched::Problem problem;
  problem.topology = &topology;
  problem.cluster = &cluster;
  for (std::uint32_t i = 0; i < 3; ++i) {
    problem.tasks.push_back(sched::TaskRef{TaskId(i), JobId(0)});
  }
  problem.flows.push_back(net::Flow{FlowId(0), JobId(0), TaskId(0), TaskId(2), 1.0});
  const topo::Path route = topology.shortest_path(cluster.node_of(s0), cluster.node_of(far));

  sched::Assignment good;
  good.placement = {{TaskId(0), s0}, {TaskId(1), s1}, {TaskId(2), far}};
  good.policies[FlowId(0)].list = topology.switch_list(route);
  expect_ok("valid assignment", hitbench::check_assignment(problem, good));

  sched::Assignment crowded = good;
  crowded.placement = {{TaskId(0), s0}, {TaskId(1), s0}, {TaskId(2), s0}};
  expect_rejected("over-capacity assignment", hitbench::check_assignment(problem, crowded));

  sched::Problem masked = problem;
  masked.base_usage.assign(cluster.size(), cluster::Resource{});
  masked.base_usage[s1.index()] = cluster.server(s1).capacity;  // a dead server
  expect_rejected("task on a server offered no headroom",
                  hitbench::check_assignment(masked, good));

  sched::Assignment broken = good;
  std::vector<NodeId>& list = broken.policies[FlowId(0)].list;
  list.erase(list.begin() + 1);  // skip a hop: the walk is no longer connected
  expect_rejected("disconnected policy walk", hitbench::check_assignment(problem, broken));

  sched::Assignment unrouted = good;
  unrouted.policies.clear();
  expect_rejected("flow without a policy", hitbench::check_assignment(problem, unrouted));

  // ---- Allocations: two flows out of s0 share its host link.
  const NodeId a = cluster.node_of(s0);
  const std::vector<net::FlowDemand> demands = {
      {FlowId(0), topology.shortest_path(a, cluster.node_of(s1)), 0.0},
      {FlowId(1), topology.shortest_path(a, cluster.node_of(far)), 0.0},
  };
  const double link = hitbench::path_bottleneck(topology, scale, demands[0].path);

  const std::vector<double> fair = net::MaxMinFairAllocator(topology, scale).allocate(demands);
  expect_ok("allocator output is feasible",
            hitbench::check_feasible(topology, scale, demands, fair));
  expect_ok("allocator output is max-min", hitbench::check_maxmin(topology, scale, demands, fair));

  expect_rejected("infeasible allocation",
                  hitbench::check_feasible(topology, scale, demands, {link, link}));
  const std::vector<double> lopsided = {0.7 * link, 0.3 * link};
  expect_ok("lopsided allocation is feasible",
            hitbench::check_feasible(topology, scale, demands, lopsided));
  expect_rejected("feasible but not max-min allocation",
                  hitbench::check_maxmin(topology, scale, demands, lopsided));
  expect_rejected("under-used allocation is not max-min",
                  hitbench::check_maxmin(topology, scale, demands, {0.25 * link, 0.25 * link}));

  // ---- Transfers: 1 GB over the host link.
  expect_ok("transfer at the bottleneck rate", hitbench::check_bottleneck(1.0, link, 1.0 / link));
  expect_rejected("flow faster than its bottleneck",
                  hitbench::check_bottleneck(1.0, link, 0.5 / link));

  std::cout << (failures == 0 ? "all checks behave\n" : "some checks misbehave\n");
  return failures == 0 ? 0 : 1;
}
