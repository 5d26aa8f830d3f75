// hitbench: one benchmark process runs one workload.
//
//   hitbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// An operation is one simulation run (ClusterSimulator::run or
// OnlineSimulator::run) over inputs generated from the seed.  The process
// builds a few input instances from sub-seeds of the seed (several times, to
// time set-up), makes one checked round (every scheduler answer validated,
// every output checked, the rate solvers replayed on the first instance's
// flow sets), then repeats whole rounds - one run of each instance - one
// after another on this thread until S seconds have passed.  Each round of
// batch_shuffle also attempts the reduce-capacity run that fails today.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 rounds alternate untraced and traced runs and it reports the
// per-layer metrics, measured in traced runs, plus the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "core/hit_scheduler.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "probe.h"
#include "replay.h"
#include "workloads.h"

namespace {

using namespace hitbench;

constexpr int kSetups = 25;
constexpr double kSetupSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace wants 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument("need --workload, --seed, --seconds > 0 and --trace");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  [[nodiscard]] std::string json(bool correct, std::size_t attempted,
                                 std::size_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g",
                    std::isfinite(metrics_[i].second.first) ? metrics_[i].second.first : 0.0);
      out << (i ? ", " : "") << "\"" << metrics_[i].first << "\": {\"value\": " << num
          << ", \"unit\": \"" << metrics_[i].second.second << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// Per-layer figures of one traced run.
struct LayerSample {
  double run_s = 0.0;
  double calls = 0.0;
  double grants = 0.0;
  double tasks_per_call = 0.0;
  double flows_per_call = 0.0;
  double sched_busy_s = 0.0;
  double sched_failed_s = 0.0;
  double sim_self_s = 0.0;
  double route_calls = 0.0;
  double route_s = 0.0;
  double route_flows_s = 0.0;
  double prefs_s = 0.0;
  double match_s = 0.0;
  double proposals = 0.0;
  double core_self_s = 0.0;
};

double scope_s(const std::map<std::string, hit::obs::Profiler::ScopeStats>& scopes,
               const char* name) {
  const auto it = scopes.find(name);
  return it == scopes.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-9;
}

double scope_calls(const std::map<std::string, hit::obs::Profiler::ScopeStats>& scopes,
                   const char* name) {
  const auto it = scopes.find(name);
  return it == scopes.end() ? 0.0 : static_cast<double>(it->second.count);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "hitbench: unknown workload '" << args.workload << "' (";
    for (const std::string& n : workload_names()) std::cerr << " " << n;
    std::cerr << " )\n";
    return 2;
  }
  std::vector<std::string> failures;
  const auto expect = [&](const std::string& what, const std::string& violation) {
    if (!violation.empty()) failures.push_back(what + ": " + violation);
  };

  // ---- Set-up of every instance, repeated for at least kSetups times and
  // kSetupSeconds, so the median sees a warmed-up process; the last set is
  // measured.
  std::vector<SetupTimes> setups;
  std::vector<std::unique_ptr<Instance>> insts;
  const Clock::time_point setup_start = Clock::now();
  for (int rep = 0; rep < kSetups || seconds_between(setup_start, Clock::now()) < kSetupSeconds;
       ++rep) {
    insts.clear();
    SetupTimes sum;
    for (std::size_t i = 0; i < spec->instances; ++i) {
      SetupTimes t;
      insts.push_back(build_instance(*spec, instance_seed(args.seed, i), t));
      sum += t;
    }
    setups.push_back(sum);
  }
  std::unique_ptr<Instance> reduce_inst;
  if (spec->with_reduce_capacity) {
    SetupTimes ignored;
    reduce_inst = build_instance(reduce_capacity_spec(), kReduceCapacitySeed, ignored);
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  // The reduce-capacity run: today ClusterSimulator rejects it because the
  // 40 jobs' reduces alone fill the 64-host cluster.  Should a later change
  // make it run, its outputs are checked like any other run.
  const auto reduce_capacity_run = [&] {
    if (!reduce_inst) return;
    ++attempted;
    hit::core::HitScheduler scheduler(reduce_inst->hit);
    SchedulerProbe probe(scheduler);
    RunWindow window;
    try {
      const Outcome out = run_once(*reduce_inst, probe, window);
      expect("reduce-capacity run", check_outcome(*reduce_inst, out));
    } catch (const std::runtime_error& e) {
      ++failed;
      if (std::string(e.what()).find("reduces leave no map slots") == std::string::npos) {
        failures.push_back(std::string("reduce-capacity run failed otherwise: ") + e.what());
      }
    }
  };

  SpanLog spans;
  std::uint64_t run_id = 0;

  // ---- The checked round: every scheduler answer validated, every output
  // checked; the first instance's flow sets replayed through the solvers.
  std::vector<Outcome> reference;
  SolverReplay maxmin, madd;
  std::vector<double> flow_records, flow_events;
  const Clock::time_point checked_start = Clock::now();
  for (const auto& inst : insts) {
    hit::core::HitScheduler scheduler(inst->hit);
    SchedulerProbe probe(scheduler);
    probe.set_checking(true);
    RunWindow window;
    ++attempted;
    reference.push_back(run_once(*inst, probe, window));
    const Outcome& out = reference.back();
    expect("scheduler answer", probe.violation());
    expect("outputs", check_outcome(*inst, out));
    std::string error;
    const std::vector<FlowRecord> flows = rebuild_flows(*inst, out, probe, error);
    expect("flow rebuild", error);
    expect("flows", check_flows(*inst, out, flows));
    flow_records.push_back(static_cast<double>(flows.size()));
    flow_events.push_back(static_cast<double>(event_instants(flows).size()));
    if (&inst != &insts.front()) continue;
    SpanLog* log = args.trace ? &spans : nullptr;
    maxmin = replay(Solver::MaxMin, inst->topology, inst->sim.bandwidth_scale, flows, log,
                    run_id);
    madd = replay(Solver::Madd, inst->topology, inst->sim.bandwidth_scale, flows, log,
                  run_id);
    expect("max-min replay", maxmin.violation);
    expect("MADD replay", madd.violation);
  }
  reduce_capacity_run();
  std::cerr << "hitbench: checked round took " << seconds_between(checked_start, Clock::now())
            << " s (replay: max-min " << maxmin.busy_s << " s, MADD " << madd.busy_s
            << " s)\n";

  // ---- Timed rounds.
  std::vector<double> plain_s;  // run wall, untraced
  std::vector<double> grant_s;  // granting schedule calls, untraced
  double plain_jobs = 0.0;
  std::vector<LayerSample> layers;
  const std::size_t min_rounds = args.trace ? 2 : 1;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (std::size_t round = 0; round < min_rounds || Clock::now() < deadline; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const Instance& inst = *insts[i];
      hit::core::HitScheduler scheduler(inst.hit);
      SchedulerProbe probe(scheduler);
      RunWindow window;
      Outcome out;
      ++attempted;
      if (!traced) {
        out = run_once(inst, probe, window);
        plain_s.push_back(window.seconds());
        plain_jobs += static_cast<double>(out.jobs_done);
        grant_s.insert(grant_s.end(), probe.stats().grant_s.begin(),
                       probe.stats().grant_s.end());
      } else {
        hit::obs::Registry registry;
        hit::obs::Profiler profiler;
        const hit::obs::Context ctx(&registry, nullptr, &profiler);
        ++run_id;
        probe.set_spans(&spans, run_id);
        {
          const hit::obs::Bind bind(ctx);
          out = run_once(inst, probe, window);
        }
        spans.add("sim.run", "", run_id, window.start, window.end);
        const SchedulerProbe::Stats& st = probe.stats();
        LayerSample s;
        s.run_s = window.seconds();
        s.sched_busy_s = spans.total_s("sched.schedule", run_id) +
                         spans.total_s("sched.schedule.failed", run_id);
        s.sched_failed_s = st.failed_busy_s;
        s.sim_self_s = s.run_s - s.sched_busy_s;
        s.calls = static_cast<double>(st.calls);
        s.grants = static_cast<double>(st.grants);
        s.tasks_per_call = st.calls ? static_cast<double>(st.tasks) / s.calls : 0.0;
        s.flows_per_call = st.calls ? static_cast<double>(st.flows) / s.calls : 0.0;
        const auto scopes = profiler.snapshot();
        s.route_calls = scope_calls(scopes, "core.policy_optimizer.optimal_route");
        s.route_s = scope_s(scopes, "core.policy_optimizer.optimal_route");
        s.route_flows_s = scope_s(scopes, "core.hit_scheduler.route_flows");
        s.prefs_s = scope_s(scopes, "core.policy_optimizer.build_preferences");
        s.match_s = scope_s(scopes, "core.stable_matching.match");
        s.proposals =
            static_cast<double>(registry.counter("core.stable_matching.proposals").value());
        s.core_self_s = scope_s(scopes, "core.hit_scheduler.schedule") - s.prefs_s -
                        s.match_s - s.route_flows_s;
        // The sched spans and the probe read the same clock samples.
        if (std::abs(s.sched_busy_s - st.busy_s) > 1e-6) {
          failures.push_back("sched spans do not add up to the probe's busy time");
        }
        layers.push_back(s);
      }
      if (!out.same_simulated(reference[i])) {
        failures.push_back("simulated results differ between runs of one seed");
      }
      expect("outputs", check_outcome(inst, out));
    }
    reduce_capacity_run();
  }

  if (!args.trace_out.empty() && args.trace) {
    std::ofstream file(args.trace_out);
    spans.write_chrome(file);
    if (!file) failures.push_back("cannot write " + args.trace_out);
  }

  // ---- Report.  Simulated figures are means over the instances.
  Report report;
  const auto over_instances = [&](auto field) {
    std::vector<double> v;
    for (const Outcome& o : reference) v.push_back(static_cast<double>(o.*field));
    return mean(v);
  };
  std::vector<double> setup_total, setup_topology, setup_workload;
  for (const SetupTimes& t : setups) {
    setup_total.push_back(t.total());
    setup_topology.push_back(t.topology_s);
    setup_workload.push_back(t.workload_s);
  }
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    double plain_total_s = 0.0;
    for (double s : plain_s) plain_total_s += s;
    report.add("jobs_per_s", plain_jobs / plain_total_s, "jobs/s");
    report.add("run_wall_s", median(plain_s), "s");
    report.add("decision_p50_us", median(grant_s) * 1e6, "us");
    report.add("decision_p95_us", percentile(grant_s, 0.95) * 1e6, "us");
    report.add("setup_s", median(setup_total), "s");
    report.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    report.add("sim_mean_jct_s", over_instances(&Outcome::mean_jct), "sim_s");
    report.add("sim_makespan_s", over_instances(&Outcome::makespan), "sim_s");
    report.add("shuffle_cost_gbt", over_instances(&Outcome::shuffle_cost), "GB.T");
    report.add("sim_mean_cct_s", over_instances(&Outcome::mean_cct), "sim_s");
    std::cerr << "hitbench: " << plain_s.size() << " timed runs, " << grant_s.size()
              << " granting schedule calls\n";
  } else {
    // Per-layer figures: means over the traced runs (whole rounds, so every
    // instance weighs the same).
    const auto avg = [&](double LayerSample::*field) {
      std::vector<double> v;
      for (const LayerSample& s : layers) v.push_back(s.*field);
      return mean(v);
    };
    const double run_s = avg(&LayerSample::run_s);
    const double plain_run_s = mean(plain_s);
    report.add("sched.busy_s", avg(&LayerSample::sched_busy_s), "s");
    report.add("sched.calls", avg(&LayerSample::calls), "count");
    report.add("sched.grants", avg(&LayerSample::grants), "count");
    report.add("sched.admit_ratio", avg(&LayerSample::grants) / avg(&LayerSample::calls),
               "ratio");
    report.add("sched.failed_busy_s", avg(&LayerSample::sched_failed_s), "s");
    report.add("sched.tasks_per_call", avg(&LayerSample::tasks_per_call), "count");
    report.add("sched.flows_per_call", avg(&LayerSample::flows_per_call), "count");
    report.add("core.route.calls", avg(&LayerSample::route_calls), "count");
    report.add("core.route.busy_s", avg(&LayerSample::route_s), "s");
    report.add("core.route_flows.busy_s", avg(&LayerSample::route_flows_s), "s");
    report.add("core.prefs.busy_s", avg(&LayerSample::prefs_s), "s");
    report.add("core.match.busy_s", avg(&LayerSample::match_s), "s");
    report.add("core.match.proposals", avg(&LayerSample::proposals), "count");
    report.add("core.self_s", avg(&LayerSample::core_self_s), "s");
    report.add("sim.self_s", avg(&LayerSample::sim_self_s), "s");
    report.add("sim.self_share", avg(&LayerSample::sim_self_s) / run_s, "ratio");
    report.add("sim.flows", mean(flow_records), "count");
    report.add("sim.flow_events", mean(flow_events), "count");
    report.add("sim.reroutes", over_instances(&Outcome::reroutes), "count");
    report.add("sim.stall_s", over_instances(&Outcome::stall_s), "sim_s");
    report.add("sim.job_restarts", over_instances(&Outcome::job_restarts), "count");
    report.add("sim.quarantines", over_instances(&Outcome::quarantines), "count");
    report.add("sim.gray_false_positives", over_instances(&Outcome::gray_false_positives),
               "count");
    report.add("network.maxmin.solves", static_cast<double>(maxmin.solves), "count");
    report.add("network.maxmin.busy_s", maxmin.busy_s, "s");
    report.add("network.maxmin.solve_p50_us", median(maxmin.solve_s) * 1e6, "us");
    report.add("network.maxmin.flows_per_solve",
               maxmin.solves ? static_cast<double>(maxmin.flows) /
                                   static_cast<double>(maxmin.solves)
                             : 0.0,
               "count");
    report.add("coflow.madd.solves", static_cast<double>(madd.solves), "count");
    report.add("coflow.madd.busy_s", madd.busy_s, "s");
    report.add("setup.topology_s", median(setup_topology), "s");
    report.add("setup.workload_s", median(setup_workload), "s");
    report.add("trace.run_wall_s", run_s, "s");
    report.add("trace.overhead_s", run_s - plain_run_s, "s");
    report.add("trace.overhead_share", (run_s - plain_run_s) / plain_run_s, "ratio");
  }

  for (const std::string& f : failures) std::cerr << "hitbench: CHECK FAILED: " << f << "\n";
  std::cout << report.json(failures.empty(), attempted, failed) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hitbench: " << e.what()
              << "\nusage: hitbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--trace-out FILE]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "hitbench: run aborted: " << e.what() << "\n";
    return 1;
  }
}
