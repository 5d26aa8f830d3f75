// Benchmark workloads: seeded inputs, set-up, one simulation run (the
// benchmark's operation) and the output checks applied to every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "core/hit_scheduler.h"
#include "mapreduce/job.h"
#include "probe.h"
#include "replay.h"
#include "sim/engine.h"
#include "topology/builders.h"
#include "util/rng.h"

namespace hitbench {

struct WorkloadSpec {
  std::string name;
  hit::topo::TreeConfig tree;
  std::size_t jobs = 0;
  bool online = false;
  double arrival_rate = 0.0;   ///< Poisson jobs per simulated second (online)
  double bandwidth_scale = 0.05;
  bool coflow_sebf = false;    ///< MADD rates in SEBF coflow order
  double crash_mtbf = 0.0;     ///< seeded crash faults (switch, server, link)
  double gray_mtbf = 0.0;      ///< seeded gray degradations
  bool quarantine = false;     ///< health monitor + quarantine loop
  /// Input instances per round, each from its own sub-seed; reported
  /// figures pool or average over them, so one seed's luck moves them less.
  std::size_t instances = 4;
  /// Each round also attempts the reduce-capacity run (see below).
  bool with_reduce_capacity = false;
};

/// Seed of instance `i` of a run with seed `seed`.
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t seed, std::size_t i);

/// The named workloads; nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// The batch run that fails today because reduces alone fill the cluster
/// (64-host tree, 40 jobs).  Its input does not depend on the seed.
[[nodiscard]] const WorkloadSpec& reduce_capacity_spec();
inline constexpr std::uint64_t kReduceCapacitySeed = 1;

struct SetupTimes {
  double topology_s = 0.0;  ///< tree construction
  double cluster_s = 0.0;   ///< servers over the tree
  double workload_s = 0.0;  ///< Table-1 job generation
  double faults_s = 0.0;    ///< seeded fault plan
  double scheduler_s = 0.0; ///< HitScheduler construction
  [[nodiscard]] double total() const {
    return topology_s + cluster_s + workload_s + faults_s + scheduler_s;
  }
  SetupTimes& operator+=(const SetupTimes& o) {
    topology_s += o.topology_s;
    cluster_s += o.cluster_s;
    workload_s += o.workload_s;
    faults_s += o.faults_s;
    scheduler_s += o.scheduler_s;
    return *this;
  }
};

/// Everything one operation needs, built once.  Not movable: the cluster
/// points at the topology.
struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  hit::topo::Topology topology;
  std::unique_ptr<hit::cluster::Cluster> cluster;
  std::vector<hit::mr::Job> jobs;
  hit::mr::IdAllocator ids;       ///< state after generating `jobs`
  hit::Rng rng{0};                ///< state after generating `jobs`
  hit::sim::SimConfig sim;
  hit::core::HitConfig hit;
};

[[nodiscard]] std::unique_ptr<Instance> build_instance(const WorkloadSpec& spec,
                                                       std::uint64_t seed,
                                                       SetupTimes& times);

/// What one simulation run produced, reduced to what the benchmark reports
/// and checks.
struct Outcome {
  // Simulated results (deterministic per input).
  std::size_t jobs_done = 0;
  double mean_jct = 0.0;
  double makespan = 0.0;
  double shuffle_cost = 0.0;
  double shuffle_gb = 0.0;
  double mean_cct = 0.0;
  std::size_t reroutes = 0;
  double stall_s = 0.0;
  std::size_t job_restarts = 0;
  std::size_t quarantines = 0;
  std::size_t gray_false_positives = 0;
  // Inputs to the checks.
  std::vector<hit::sim::FlowTiming> flows;
  std::unordered_map<hit::JobId, double> job_finish;

  [[nodiscard]] bool same_simulated(const Outcome& o) const {
    return jobs_done == o.jobs_done && mean_jct == o.mean_jct &&
           makespan == o.makespan && shuffle_cost == o.shuffle_cost &&
           shuffle_gb == o.shuffle_gb && mean_cct == o.mean_cct &&
           reroutes == o.reroutes && stall_s == o.stall_s &&
           job_restarts == o.job_restarts && quarantines == o.quarantines &&
           gray_false_positives == o.gray_false_positives;
  }
};

/// Host-clock interval of one run call.
struct RunWindow {
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

/// One operation: one ClusterSimulator::run or OnlineSimulator::run over the
/// instance's jobs with `probe` (wrapping the scheduler under test) as the
/// scheduler.  `window` receives the interval of the run call alone.
[[nodiscard]] Outcome run_once(const Instance& inst, SchedulerProbe& probe,
                               RunWindow& window);

/// Output checks that need no record of the scheduler's decisions: every
/// generated job completes, the delivered shuffle volume equals the volume
/// mr::build_shuffle_flows gives for the generated jobs, and the shuffle cost
/// equals Σ size x hops over the run's own flows.
[[nodiscard]] std::string check_outcome(const Instance& inst, const Outcome& out);

/// Rebuild the run's non-local flows with the routes the probe recorded
/// (the final route, when a fault moved the flow).  `error` receives a
/// description when a flow has no recorded placement or route.
[[nodiscard]] std::vector<FlowRecord> rebuild_flows(const Instance& inst, const Outcome& out,
                                                    const SchedulerProbe& probe,
                                                    std::string& error);

/// Checks on the rebuilt flows: the shuffle cost recomputed from each
/// flow's recorded route length matches the run's, no flow beats its
/// bottleneck bound, and no job finishes before its last flow.
[[nodiscard]] std::string check_flows(const Instance& inst, const Outcome& out,
                                      const std::vector<FlowRecord>& flows);

}  // namespace hitbench
