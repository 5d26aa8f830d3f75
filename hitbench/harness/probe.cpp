#include "probe.h"

#include <algorithm>
#include <iomanip>

#include "checks.h"

namespace hitbench {

double SpanLog::total_s(const std::string& name, std::uint64_t run) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name == name) sum += seconds_between(s.start, s.end);
  }
  return sum;
}

void SpanLog::write_chrome(std::ostream& out) const {
  Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << std::fixed << std::setprecision(3)
        << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
        << ",\"args\":{\"run\":" << s.run << ",\"parent\":\"" << s.parent << "\"}}";
  }
  out << "\n]}\n";
}

hit::sched::Assignment SchedulerProbe::schedule(const hit::sched::Problem& problem,
                                                hit::Rng& rng) {
  ++stats_.calls;
  stats_.tasks += problem.tasks.size();
  stats_.flows += problem.flows.size();
  const Clock::time_point start = Clock::now();
  hit::sched::Assignment assignment;
  try {
    assignment = inner_->schedule(problem, rng);
  } catch (...) {
    const Clock::time_point end = Clock::now();
    stats_.busy_s += seconds_between(start, end);
    stats_.failed_busy_s += seconds_between(start, end);
    if (log_ != nullptr) log_->add("sched.schedule.failed", "sim.run", run_, start, end);
    throw;
  }
  const Clock::time_point end = Clock::now();
  const double took = seconds_between(start, end);
  stats_.busy_s += took;
  ++stats_.grants;
  stats_.grant_s.push_back(took);
  if (log_ != nullptr) log_->add("sched.schedule", "sim.run", run_, start, end);

  if (checking_) {
    if (violation_.empty()) violation_ = check_assignment(problem, assignment);
    for (const hit::net::Flow& f : problem.flows) {
      flow_ends_[f.id] = FlowEnds{f.src_task, f.dst_task};
    }
    for (const auto& [task, server] : assignment.placement) placement_[task] = server;
    for (const auto& [flow, policy] : assignment.policies) routes_[flow] = policy.list;
  }
  return assignment;
}

}  // namespace hitbench
