#pragma once

// Layer replays: run a captured operation stream against one layer's
// public API at a time, with the benchmark's own timers around each call.
// Every layer replay also checks itself against the capture (same
// selections, same placements, same walk order, same pop order) and
// counts the operations it ran, so its figures can be set beside the
// replay's own counters.

#include <cstdint>

#include "capture.hpp"
#include "inputs.hpp"

namespace perfbench {

struct LayerNumbers {
  // actuator: ResourceLedger
  double select_us_p50 = 0.0;
  double select_us_p99 = 0.0;
  double select_pool_speedup = 0.0;  ///< serial select time / pooled
  double commit_ns_per_node = 0.0;   ///< allocate + release, per node
  // sched: SchedulingPolicy, JobQueue, FinishCalendar
  double tryplace_us_p50 = 0.0;
  double tryplace_us_p99 = 0.0;
  double queue_op_ns = 0.0;
  double calendar_op_ns = 0.0;
  // perfmodel: SolverCache
  double solve_miss_us = 0.0;
  double solve_hit_ns = 0.0;

  // Operation counts and self-check failures.
  std::uint64_t selects = 0;
  std::uint64_t placements = 0;
  std::uint64_t releases = 0;
  std::uint64_t tryplace_calls = 0;
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_visits = 0;
  std::uint64_t calendar_ops = 0;
  std::uint64_t solves = 0;
  std::uint64_t solve_misses = 0;
  std::uint64_t checks = 0;    ///< self-checks made
  std::uint64_t failures = 0;  ///< self-checks failed
};

LayerNumbers runLayerReplays(const Inputs& in, const Workload& w, const Capture& cap);

}  // namespace perfbench
