// Independent correctness checks for the benchmark.
//
// Each check re-derives a property from the topology and the program's
// output with the benchmark's own code (it never calls the program's own
// validators) and returns an empty string when the property holds, or a
// description of the first violation.
#pragma once

#include <string>
#include <vector>

#include "network/bandwidth.h"
#include "sched/scheduler.h"
#include "topology/topology.h"

namespace hitbench {

/// A scheduler answer is valid when every task of the problem is placed on a
/// server of the cluster that was offered headroom (dead servers are offered
/// none: the simulators mask them to full usage), `base_usage` plus the
/// placed demands fit every server's capacity, and every flow whose
/// endpoints sit on different servers has a policy that is a connected walk
/// of switches from the source server to the destination server.
[[nodiscard]] std::string check_assignment(const hit::sched::Problem& problem,
                                           const hit::sched::Assignment& assignment);

/// The node path a policy's switch list describes between two servers.
[[nodiscard]] hit::topo::Path walk_path(hit::NodeId src,
                                        const std::vector<hit::NodeId>& switches,
                                        hit::NodeId dst);

/// Every link and every switch carries at most its capacity times `scale`
/// (a flow that crosses a resource twice loads it twice).
[[nodiscard]] std::string check_feasible(const hit::topo::Topology& topology,
                                         double scale,
                                         const std::vector<hit::net::FlowDemand>& demands,
                                         const std::vector<double>& rates);

/// Feasibility plus max-min optimality: every flow crosses a saturated
/// resource on which no other flow gets a higher rate.  Assumes no demand
/// carries a rate cap.
[[nodiscard]] std::string check_maxmin(const hit::topo::Topology& topology,
                                       double scale,
                                       const std::vector<hit::net::FlowDemand>& demands,
                                       const std::vector<double>& rates);

/// Smallest capacity times `scale` along `path` (links and switches).
[[nodiscard]] double path_bottleneck(const hit::topo::Topology& topology,
                                     double scale, const hit::topo::Path& path);

/// A transfer of `size_gb` at no more than `bottleneck` per second cannot
/// take less than size / bottleneck seconds.
[[nodiscard]] std::string check_bottleneck(double size_gb, double bottleneck,
                                           double duration);

}  // namespace hitbench
