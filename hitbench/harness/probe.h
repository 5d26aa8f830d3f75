// Measurement at the scheduler boundary: an in-memory span log and a
// sched::Scheduler decorator that times, counts and (optionally) validates
// every call the simulators make into the wrapped scheduler.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.h"

namespace hitbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans recorded around calls into the program's layers.  Spans of one
/// simulation run share its `run` id; `parent` names the enclosing span
/// (empty for a run span).  Kept in memory, written once at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string parent;
    std::uint64_t run = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  void add(std::string name, std::string parent, std::uint64_t run,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{std::move(name), std::move(parent), run, start, end});
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Total duration of the spans called `name` that belong to `run`.
  [[nodiscard]] double total_s(const std::string& name, std::uint64_t run) const;

  /// Chrome trace-event JSON ("X" events, microseconds from the first span).
  void write_chrome(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

/// Decorator around the scheduler under test.  Always times each call;
/// with checking on it also validates every returned Assignment with
/// check_assignment() and records the final placement of every task and the
/// route of every flow, so the run's flow sets can be rebuilt afterwards.
class SchedulerProbe final : public hit::sched::Scheduler {
 public:
  struct Stats {
    std::size_t calls = 0;
    std::size_t grants = 0;          ///< calls that returned an Assignment
    double busy_s = 0.0;             ///< host time inside all calls
    double failed_busy_s = 0.0;      ///< host time inside calls that threw
    std::size_t tasks = 0;           ///< Σ tasks over all calls
    std::size_t flows = 0;           ///< Σ flows over all calls
    std::vector<double> grant_s;     ///< host time of each granting call
  };
  struct FlowEnds {
    hit::TaskId src;
    hit::TaskId dst;
  };

  explicit SchedulerProbe(hit::sched::Scheduler& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] hit::sched::Assignment schedule(const hit::sched::Problem& problem,
                                                hit::Rng& rng) override;

  void set_checking(bool on) noexcept { checking_ = on; }
  /// Record one span per call into `log` under run `run` (nullptr = off).
  void set_spans(SpanLog* log, std::uint64_t run) noexcept {
    log_ = log;
    run_ = run;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// First assignment violation seen (empty when every grant was valid).
  [[nodiscard]] const std::string& violation() const noexcept { return violation_; }

  // Captured while checking: the latest grant wins (re-placement after a
  // fault, a restarted job).
  [[nodiscard]] const std::unordered_map<hit::FlowId, FlowEnds>& flow_ends() const {
    return flow_ends_;
  }
  [[nodiscard]] const std::unordered_map<hit::TaskId, hit::ServerId>& placement() const {
    return placement_;
  }
  [[nodiscard]] const std::unordered_map<hit::FlowId, std::vector<hit::NodeId>>& routes()
      const {
    return routes_;
  }

 private:
  hit::sched::Scheduler* inner_;
  bool checking_ = false;
  SpanLog* log_ = nullptr;
  std::uint64_t run_ = 0;
  Stats stats_;
  std::string violation_;
  std::unordered_map<hit::FlowId, FlowEnds> flow_ends_;
  std::unordered_map<hit::TaskId, hit::ServerId> placement_;
  std::unordered_map<hit::FlowId, std::vector<hit::NodeId>> routes_;
};

}  // namespace hitbench
