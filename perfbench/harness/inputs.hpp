#pragma once

// Benchmark inputs and the replay primitive every mode shares: the
// calibrated machine + program library + profile database, the Fig-20 job
// list generated from the seeds, the four workloads, and one timed
// ClusterSimulator::run() with its output checks and exact counters.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/profile/database.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/telemetry/phase_profiler.hpp"
#include "sns/telemetry/sampler.hpp"
#include "sns/telemetry/slo.hpp"
#include "sns/telemetry/timeseries.hpp"
#include "sns/xray/span.hpp"

namespace perfbench {

/// Fig-20 trace defaults: bench_sim_scale's trace seed and the mapping
/// seed its 0.9 scaling ratio implies.
constexpr std::uint64_t kDefaultTraceSeed = 0x7417177;
constexpr double kScalingRatio = 0.9;
constexpr std::uint64_t kDefaultMapSeed = 900;

/// The benchmark's `--seed` only sets `order`: it shuffles the order of
/// the job list (and so the job ids the simulator assigns) while the
/// trace and its program mapping stay fixed, so every seed replays the
/// same schedule with the same deterministic work and runs with
/// different seeds measure the same thing. Seed 0 keeps the list as
/// generated. Another trace is a different workload: `--trace-seed` and
/// `--map-seed` select it.
struct Seeds {
  std::uint64_t trace = kDefaultTraceSeed;
  std::uint64_t map = kDefaultMapSeed;
  std::uint64_t order = 0;
};

/// Everything a replay reads, built once per set-up and shared by
/// reference (jobs resolve to programs by address in `lib`).
struct Inputs {
  explicit Inputs(const Seeds& seeds);
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  sns::perfmodel::Estimator est;
  std::vector<sns::app::ProgramModel> lib;
  sns::profile::ProfileDatabase reference_db;  ///< 16/28-proc profiles
  sns::profile::ProfileDatabase db;            ///< synthesized trace profiles
  std::vector<sns::app::JobSpec> jobs;
  double generate_s = 0.0;    ///< trace::generateTrace + mapTraceToJobs
  double synthesize_s = 0.0;  ///< trace::synthesizeTraceProfiles
};

struct Workload {
  const char* name;
  int nodes;
  sns::sched::PolicyKind policy;
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// Bucket bounds the benchmark registers for `sim.decision_us`: geometric,
/// kDecisionBucketRatio apart, from 0.1 us to 1 s. The simulator keeps a
/// histogram already in the registry, so its percentiles resolve to about
/// 1% instead of a 1-2-5 bucket.
constexpr double kDecisionBucketRatio = 1.02;
const std::vector<double>& decisionBuckets();

/// The replay-scale simulator knobs bench_sim_scale uses, plus `metrics`
/// (with the fine `sim.decision_us` buckets registered).
sns::sim::SimConfig baseConfig(const Workload& w, sns::obs::Registry& metrics);

/// The observer set `uberun report` attaches to a run (sink, sampler with
/// SLO watchdog, phase profiler, xray sampled 1/32, flight recorder).
/// Members reference each other, so the struct is immovable.
struct Observers {
  Observers();
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  sns::telemetry::TimeSeriesStore store;
  sns::telemetry::SloWatchdog watchdog;
  sns::telemetry::Sampler sampler;
  sns::telemetry::PhaseProfiler phases;
  sns::obs::RingBufferLog log;
  sns::obs::Recorder slo_rec;
  sns::xray::Tracer xray;
  sns::flight::FlightRecorder flight;
};

/// Which observers one replay attaches on top of the metrics registry.
struct Attach {
  bool sink = false;
  bool sampler = false;
  bool phases = false;
  bool xray = false;
  bool flight = false;
  static Attach all() { return {true, true, true, true, true}; }
};

/// Outcome of one replay, with the output checks already applied.
struct Replay {
  double wall_s = 0.0;  ///< host seconds inside run()
  sns::sim::SimResult result;
  std::uint64_t digest = 0;
  /// Jobs that did not complete or broke start >= submit / finish > start.
  std::uint64_t bad_jobs = 0;
  double events = 0.0;  ///< submit + start + finish
  double decision_mean_us = 0.0;
  double decision_p50_us = 0.0;
  double decision_p99_us = 0.0;
  std::uint64_t decisions = 0;
  /// Every counter and gauge peak the replay's registry holds, plus the
  /// decision-pass count: deterministic work, identical across replays.
  std::map<std::string, double> exact;
  double phase_self_ns[sns::telemetry::kPhaseCount] = {};
  double events_logged = 0.0;  ///< events the ring-buffer sink received
};

/// Construct a fresh simulator for `w` (+ `attach`, + an optional extra
/// sink/tracer for capture) and time one run() of the whole job list.
Replay replay(const Inputs& in, const Workload& w, const Attach& attach,
              sns::obs::EventSink* extra_sink = nullptr,
              sns::xray::Tracer* extra_xray = nullptr);

/// 64-bit digest of per-job start/finish bit patterns, makespan and
/// throughput.
std::uint64_t resultDigest(const sns::sim::SimResult& r);

/// An exact counter of `r` by registry name (gauge peaks end in ".max"),
/// 0 when the replay never registered it.
double exactOr0(const Replay& r, const char* name);

}  // namespace perfbench
