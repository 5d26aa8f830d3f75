// Offline replay of the fluid rate solvers.
//
// A finished run leaves, for every shuffle flow, its release and finish
// instants, its size and (through the scheduler probe) the route it took.
// From those the replay rebuilds the set of flows in flight at each distinct
// release/finish instant and hands each set to the program's rate solvers:
// net::MaxMinFairAllocator::allocate (per-flow fair sharing) and
// coflow::madd_allocate (coflows grouped per job wave, earliest first).  Each
// call is timed, and each allocation is checked with the benchmark's own
// feasibility and max-min predicates (checks.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"
#include "topology/topology.h"
#include "util/ids.h"

namespace hitbench {

/// One non-local shuffle flow of a finished run.
struct FlowRecord {
  hit::FlowId id;
  hit::JobId job;
  std::uint32_t wave = 0;
  double release = 0.0;
  double finish = 0.0;
  double size_gb = 0.0;
  hit::topo::Path path;  ///< server, switches..., server
};

struct SolverReplay {
  std::size_t solves = 0;
  std::size_t flows = 0;          ///< Σ flows handed to the solver
  double busy_s = 0.0;            ///< host time inside the solver calls
  std::vector<double> solve_s;    ///< host time of each call
  std::string violation;          ///< first failed check (empty = all passed)
};

enum class Solver { MaxMin, Madd };

/// Distinct release/finish instants, ascending.
[[nodiscard]] std::vector<double> event_instants(const std::vector<FlowRecord>& flows);

/// Solve the in-flight set at every instant but the last with `solver` under
/// capacities scaled by `scale`, checking each allocation.  With a non-null
/// `log`, each call becomes a span of run `run`.
[[nodiscard]] SolverReplay replay(Solver solver, const hit::topo::Topology& topology,
                                  double scale, const std::vector<FlowRecord>& flows,
                                  SpanLog* log, std::uint64_t run);

}  // namespace hitbench
