#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "checks.h"
#include "mapreduce/profiles.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/workload.h"
#include "sim/faults.h"
#include "sim/online.h"

namespace hitbench {

namespace {

constexpr hit::topo::TreeConfig kTree64{3, 4, 2, 4};     // 64 hosts
constexpr hit::topo::TreeConfig kTree512{3, 8, 2, 8};    // 512 hosts

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec batch;
    batch.name = "batch_shuffle";
    batch.tree = kTree512;
    batch.jobs = 160;
    batch.instances = 6;
    batch.with_reduce_capacity = true;
    w.push_back(batch);

    WorkloadSpec sparse = batch;
    sparse.with_reduce_capacity = false;
    sparse.name = "online_sparse";
    sparse.online = true;
    sparse.arrival_rate = 0.2;
    sparse.instances = 8;
    w.push_back(sparse);

    WorkloadSpec contended;
    contended.name = "online_contended";
    contended.tree = kTree64;
    contended.jobs = 160;
    contended.online = true;
    contended.arrival_rate = 0.5;
    contended.coflow_sebf = true;
    contended.crash_mtbf = 3000.0;
    contended.gray_mtbf = 3000.0;
    contended.quarantine = true;
    contended.instances = 8;
    w.push_back(contended);
    return w;
  }();
  return all;
}

// `n` Table-1 jobs in Table-1 proportions exactly (largest-remainder
// counts per benchmark), in seeded order, each with a seeded lognormal input
// size as WorkloadGenerator::generate draws it.  generate() would also draw
// each job's benchmark at random; fixing the mix keeps every instance's
// composition equal to Table 1, so seeds differ only in order, sizes,
// arrivals and faults.
std::vector<hit::mr::Job> table1_jobs(std::size_t n, hit::mr::IdAllocator& ids,
                                      hit::Rng& rng) {
  hit::mr::WorkloadConfig config;
  config.num_jobs = n;
  config.max_maps_per_job = 10;
  config.max_reduces_per_job = 4;
  config.block_size_gb = 2.0;
  const hit::mr::WorkloadGenerator generator(config);

  const auto profiles = hit::mr::puma_profiles();
  double total = 0.0;
  for (const hit::mr::BenchmarkProfile& p : profiles) total += p.mix_percent;
  std::vector<std::size_t> count(profiles.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const double exact = static_cast<double>(n) * profiles[i].mix_percent / total;
    count[i] = static_cast<std::size_t>(exact);
    assigned += count[i];
    remainder.emplace_back(-(exact - static_cast<double>(count[i])), i);
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t k = 0; assigned < n; ++k, ++assigned) ++count[remainder[k].second];

  std::vector<const hit::mr::BenchmarkProfile*> order;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    order.insert(order.end(), count[i], &profiles[i]);
  }
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.uniform_index(k)]);
  }
  std::vector<hit::mr::Job> jobs;
  jobs.reserve(n);
  for (const hit::mr::BenchmarkProfile* p : order) {
    const double input = std::max(config.block_size_gb,
                                  rng.lognormal_median(p->typical_input_gb, config.input_sigma));
    jobs.push_back(generator.make_job(*p, input, ids));
  }
  return jobs;
}

// Relative agreement for sums taken in a different order.
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return hit::Rng(seed).fork(i).seed();
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : workloads()) names.push_back(w.name);
  return names;
}

const WorkloadSpec& reduce_capacity_spec() {
  static const WorkloadSpec spec = [] {
    WorkloadSpec s;
    s.name = "reduce_capacity";
    s.tree = kTree64;
    s.jobs = 40;
    s.instances = 1;
    return s;
  }();
  return spec;
}

std::unique_ptr<Instance> build_instance(const WorkloadSpec& spec, std::uint64_t seed,
                                         SetupTimes& times) {
  auto inst = std::make_unique<Instance>();
  inst->spec = &spec;
  inst->seed = seed;

  Clock::time_point t0 = Clock::now();
  inst->topology = hit::topo::make_tree(spec.tree);
  Clock::time_point t1 = Clock::now();
  times.topology_s = seconds_between(t0, t1);

  inst->cluster = std::make_unique<hit::cluster::Cluster>(inst->topology,
                                                          hit::cluster::Resource{2.0, 8.0});
  t0 = Clock::now();
  times.cluster_s = seconds_between(t1, t0);

  inst->rng = hit::Rng(seed);
  inst->jobs = table1_jobs(spec.jobs, inst->ids, inst->rng);
  t1 = Clock::now();
  times.workload_s = seconds_between(t0, t1);

  hit::sim::SimConfig& sim = inst->sim;
  sim.bandwidth_scale = spec.bandwidth_scale;
  if (spec.crash_mtbf > 0.0 || spec.gray_mtbf > 0.0) {
    hit::sim::MtbfConfig m;
    m.horizon = 5000.0;
    m.switch_mtbf = m.server_mtbf = m.link_mtbf = spec.crash_mtbf;
    m.switch_mttr = m.server_mttr = m.link_mttr = 120.0;
    m.gray_switch_mtbf = m.gray_link_mtbf = spec.gray_mtbf;
    m.gray_switch_mttr = m.gray_link_mttr = 120.0;
    sim.faults = hit::sim::FaultPlan::generate(inst->topology, m, seed);
  }
  sim.gray.monitor = spec.quarantine;
  sim.gray.quarantine = spec.quarantine;
  if (spec.coflow_sebf) {
    sim.coflow.enabled = true;
    sim.coflow.order = hit::coflow::OrderPolicy::Sebf;
    inst->hit.coflow = sim.coflow;
  }
  t0 = Clock::now();
  times.faults_s = seconds_between(t1, t0);

  { const hit::core::HitScheduler scheduler(inst->hit); }
  times.scheduler_s = seconds_between(t0, Clock::now());
  return inst;
}

namespace {

// Fields SimResult and OnlineResult share.
template <typename Result>
void fill_common(Outcome& out, Result& r) {
  out.jobs_done = r.jobs.size();
  out.makespan = r.makespan;
  out.shuffle_cost = r.total_shuffle_cost;
  out.shuffle_gb = r.total_shuffle_gb;
  out.reroutes = r.recovery.flows_rerouted;
  out.stall_s = r.recovery.stall_seconds;
  out.job_restarts = r.recovery.jobs_restarted;
  out.quarantines = r.gray.quarantines;
  out.gray_false_positives = r.gray.false_positives;
  out.flows = std::move(r.flows);
}

}  // namespace

Outcome run_once(const Instance& inst, SchedulerProbe& probe, RunWindow& window) {
  hit::mr::IdAllocator ids = inst.ids;
  hit::Rng rng = inst.rng;
  Outcome out;
  double jct_sum = 0.0;
  if (!inst.spec->online) {
    const hit::sim::ClusterSimulator sim(*inst.cluster, inst.sim);
    window.start = Clock::now();
    hit::sim::SimResult r = sim.run(probe, inst.jobs, ids, rng);
    window.end = Clock::now();
    for (const hit::sim::JobResult& j : r.jobs) {
      jct_sum += j.completion_time;
      out.job_finish[j.id] = j.completion_time;  // batch jobs all start at 0
    }
    out.mean_cct = r.average_coflow_cct();
    fill_common(out, r);
  } else {
    hit::sim::OnlineConfig oconfig;
    oconfig.arrival_rate = inst.spec->arrival_rate;
    oconfig.sim = inst.sim;
    const hit::sim::OnlineSimulator sim(*inst.cluster, oconfig);
    window.start = Clock::now();
    hit::sim::OnlineResult r = sim.run(probe, inst.jobs, ids, rng);
    window.end = Clock::now();
    for (const hit::sim::OnlineJobRecord& j : r.jobs) {
      jct_sum += j.completion_time();
      out.job_finish[j.id] = j.finish;
    }
    out.mean_cct = r.avg_coflow_cct;
    fill_common(out, r);
  }
  out.mean_jct = out.jobs_done ? jct_sum / static_cast<double>(out.jobs_done) : 0.0;
  return out;
}

std::string check_outcome(const Instance& inst, const Outcome& out) {
  if (out.jobs_done != inst.jobs.size()) {
    return std::to_string(out.jobs_done) + " of " + std::to_string(inst.jobs.size()) +
           " jobs completed";
  }
  hit::mr::IdAllocator ids = inst.ids;
  const double expected_gb =
      hit::net::total_size_gb(hit::mr::build_shuffle_flows(inst.jobs, ids, inst.sim.shuffle));
  double delivered_gb = 0.0;
  double cost = 0.0;
  for (const hit::sim::FlowTiming& f : out.flows) {
    delivered_gb += f.size_gb;
    cost += f.size_gb * static_cast<double>(f.route_hops);
  }
  if (!close(delivered_gb, expected_gb) || !close(out.shuffle_gb, expected_gb)) {
    return "shuffle volume " + std::to_string(delivered_gb) + " GB delivered, " +
           std::to_string(out.shuffle_gb) + " GB reported, expected " +
           std::to_string(expected_gb) + " GB";
  }
  if (!close(cost, out.shuffle_cost)) {
    return "shuffle cost " + std::to_string(out.shuffle_cost) +
           " GB*T reported, flows sum to " + std::to_string(cost);
  }
  return {};
}

std::vector<FlowRecord> rebuild_flows(const Instance& inst, const Outcome& out,
                                      const SchedulerProbe& probe, std::string& error) {
  std::vector<FlowRecord> records;
  for (const hit::sim::FlowTiming& f : out.flows) {
    if (f.local) continue;
    const auto ends = probe.flow_ends().find(f.id);
    if (ends == probe.flow_ends().end()) {
      error = "flow " + std::to_string(f.id.value()) + " never reached the scheduler";
      return {};
    }
    const auto src = probe.placement().find(ends->second.src);
    const auto dst = probe.placement().find(ends->second.dst);
    if (src == probe.placement().end() || dst == probe.placement().end()) {
      error = "flow " + std::to_string(f.id.value()) + " has an unplaced endpoint";
      return {};
    }
    const std::vector<hit::NodeId>* route = &f.final_route;
    if (route->empty()) {
      const auto it = probe.routes().find(f.id);
      if (it == probe.routes().end()) {
        error = "flow " + std::to_string(f.id.value()) + " has no recorded route";
        return {};
      }
      route = &it->second;
    }
    records.push_back(FlowRecord{
        f.id, f.job, f.wave, f.release, f.finish, f.size_gb,
        walk_path(inst.cluster->node_of(src->second), *route,
                  inst.cluster->node_of(dst->second))});
  }
  return records;
}

std::string check_flows(const Instance& inst, const Outcome& out,
                        const std::vector<FlowRecord>& flows) {
  const hit::topo::Topology& topo = inst.topology;
  const double scale = inst.sim.bandwidth_scale;
  // A flow that faults may have moved keeps only its two server links for
  // certain; bound it by the faster link of each endpoint.
  const auto uplink = [&](hit::NodeId server) {
    double best = 0.0;
    for (const hit::topo::Edge& e : topo.graph().neighbors(server)) {
      best = std::max(best, e.bandwidth * scale);
    }
    return best;
  };
  double cost = 0.0;
  std::unordered_map<hit::JobId, double> last_flow;
  for (const FlowRecord& f : flows) {
    cost += f.size_gb * static_cast<double>(f.path.size() - 2);
    const double bound = inst.sim.faults.empty()
                             ? path_bottleneck(topo, scale, f.path)
                             : std::min(uplink(f.path.front()), uplink(f.path.back()));
    if (std::string v = check_bottleneck(f.size_gb, bound, f.finish - f.release);
        !v.empty()) {
      return "flow " + std::to_string(f.id.value()) + ": " + v;
    }
    double& last = last_flow[f.job];
    last = std::max(last, f.finish);
  }
  if (!close(cost, out.shuffle_cost)) {
    return "shuffle cost " + std::to_string(out.shuffle_cost) +
           " GB*T reported, recorded routes give " + std::to_string(cost);
  }
  for (const auto& [job, last] : last_flow) {
    const auto it = out.job_finish.find(job);
    if (it == out.job_finish.end() || it->second < last) {
      return "job " + std::to_string(job.value()) + " finished before its last flow";
    }
  }
  return {};
}

}  // namespace hitbench
