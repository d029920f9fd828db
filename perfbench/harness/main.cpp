// Fig-20 replay benchmark.
//
//   sns_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--trace-seed N] [--map-seed N]
//
// --trace 0 times untraced replays of the whole Fig-20 trace through
// sim::ClusterSimulator::run (metrics registry only) for S seconds and
// reports the end-to-end metrics, scaled to the reference host speed
// (host_speed.hpp). --trace 1 makes a separate traced run:
// phase-profiled replays, an operation-stream capture, the layer replays
// and the observer overhead matrix, and reports the per-layer metrics.
// Both modes check every replay's output and print one JSON result as the
// last line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture.hpp"
#include "host_speed.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "sns/util/json.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kMinSetups = 5;          // setup_s is the median of these
constexpr double kSetupWindowS = 0.5;
constexpr int kMinReplays = 2;         // timed replays per --trace 0 run
constexpr int kTracedReps = 2;         // untraced / traced replays per --trace 1 run
constexpr double kKernelShare = 0.1;   // reference-kernel time per replay time
constexpr double kFastQuantile = 0.1;  // replay figures: the run's fastest tenth

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linearly interpolated q-quantile of `v`, 0 <= q <= 1.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double x = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(x);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (x - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Operations attempted / failed: every replayed job (it must complete
/// with submit <= start < finish) and every replay-level check
/// (determinism, observer read-only digest, layer-replay self-checks).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void jobs(const Replay& r) {
    attempted += r.result.jobs.size();
    failed += std::min<std::uint64_t>(r.bad_jobs, r.result.jobs.size());
  }
};

/// Replays of one workload must agree bit for bit on the result digest
/// and on every exact counter.
void checkSame(Tally& t, const Replay& ref, const Replay& r, const char* what) {
  t.check(r.digest == ref.digest, std::string(what) + ": result digest differs");
  t.check(r.exact == ref.exact, std::string(what) + ": exact counters differ");
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printResult(const Tally& t, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += t.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted);
  s += ", \"failed\": " + std::to_string(t.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void printMeta(const Workload& w, const Seeds& seeds, long long seed, int trace) {
  sns::util::Json m;
  m["workload"] = sns::util::Json(std::string(w.name));
  m["nodes"] = sns::util::Json(w.nodes);
  m["seed"] = sns::util::Json(static_cast<double>(seed));
  m["trace_seed"] = sns::util::Json(static_cast<double>(seeds.trace));
  m["map_seed"] = sns::util::Json(static_cast<double>(seeds.map));
  m["scaling_ratio"] = sns::util::Json(kScalingRatio);
  m["trace"] = sns::util::Json(trace);
  m["nproc"] = sns::util::Json(static_cast<int>(std::thread::hardware_concurrency()));
  m["cpu_model"] = sns::util::Json(cpuModel());
  m["compiler"] = sns::util::Json(std::string(PB_COMPILER));
  m["build_type"] = sns::util::Json(std::string(PB_BUILD_TYPE));
  m["ipo"] = sns::util::Json(PB_IPO != 0);
#if defined(SNS_AUDIT)
  m["sns_audit"] = sns::util::Json(true);
#else
  m["sns_audit"] = sns::util::Json(false);
#endif
  const char* src = std::getenv("PERFBENCH_SOURCE");
  m["source"] = sns::util::Json(std::string(src != nullptr ? src : "unknown"));
  std::printf("meta: %s\n", m.dump().c_str());
}

/// Build the inputs repeatedly (the simulator is constructed and dropped
/// each time, as a replay would) and keep the last set. Set-up takes
/// milliseconds, so it is repeated for kSetupWindowS and reported as the
/// median. One timed reference kernel runs after each set-up.
struct Setup {
  std::unique_ptr<Inputs> in;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double synthesize_s = 0.0;
  double kernel_s = 0.0;  ///< median reference-kernel time between set-ups
};

Setup setUp(const Workload& w, const Seeds& seeds, HostSpeed& speed) {
  Setup s;
  std::vector<double> total, gen, syn, kernel;
  const auto begin = Clock::now();
  while (static_cast<int>(total.size()) < kMinSetups ||
         secondsSince(begin) < kSetupWindowS) {
    s.in.reset();
    const auto t0 = Clock::now();
    s.in = std::make_unique<Inputs>(seeds);
    {
      sns::obs::Registry metrics;
      sns::sim::ClusterSimulator sim(s.in->est, s.in->lib, s.in->db,
                                     baseConfig(w, metrics));
    }
    total.push_back(secondsSince(t0));
    gen.push_back(s.in->generate_s);
    syn.push_back(s.in->synthesize_s);
    speed.sampleFor(0.0, kernel);
  }
  s.setup_s = median(total);
  s.kernel_s = median(kernel);
  s.generate_s = median(gen);
  s.synthesize_s = median(syn);
  return s;
}

void printReplay(const char* label, const Replay& r) {
  std::printf("%-10s wall %.4f s  events %.0f  events/s %.1f  decisions %" PRIu64
              "  mean %.2f us  p50 %.2f us  p99 %.2f us  digest %016" PRIx64 "\n",
              label, r.wall_s, r.events, ratio(r.events, r.wall_s), r.decisions,
              r.decision_mean_us, r.decision_p50_us, r.decision_p99_us, r.digest);
}

void printOutcome(const Replay& r, const Tally& t) {
  std::printf("exact counters (identical on every replay of this run):");
  for (const auto& [name, v] : r.exact) std::printf(" %s=%.17g", name.c_str(), v);
  std::printf("\n");
  std::printf("result: digest %016" PRIx64 "  makespan %.17g s  throughput %.17g 1/s"
              "  jobs %zu  bad_jobs %" PRIu64 "\n",
              r.digest, r.result.makespan, r.result.throughput(), r.result.jobs.size(),
              r.bad_jobs);
  std::printf("failed_ratio: %.17g (failed %" PRIu64 " of %" PRIu64 " operations)\n",
              ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
              t.failed, t.attempted);
}

int runEndToEnd(const Workload& w, const Seeds& seeds, double seconds,
                HostSpeed& speed) {
  Setup s = setUp(w, seeds, speed);
  const Inputs& in = *s.in;
  Tally tally;

  // One warm-up replay (page faults, lazily grown pools), then timed
  // replays until the measuring window is spent. Peak RSS is read after
  // the warm-up: set-up plus one replay. Later replays only add allocator
  // fragmentation from the simulators built and dropped in between, which
  // would tie the figure to the run length.
  const auto window = Clock::now();
  const Replay ref = replay(in, w, Attach{});
  const double peak_rss_mb = peakRssMb();
  printReplay("warmup", ref);
  tally.jobs(ref);
  // A replay that would predictably end past the window is not started,
  // so a run's length stays close to `seconds` even when replays are long.
  // Reference kernels for kKernelShare of each replay's time follow it.
  std::vector<double> wall, mean, p50, p99, kernel;
  double last_wall = ref.wall_s;
  while (static_cast<int>(wall.size()) < kMinReplays ||
         secondsSince(window) + (1.0 + kKernelShare) * last_wall <= seconds) {
    const Replay r = replay(in, w, Attach{});
    speed.sampleFor(kKernelShare * r.wall_s, kernel);
    last_wall = r.wall_s;
    printReplay("replay", r);
    tally.jobs(r);
    checkSame(tally, ref, r, "replay vs first replay");
    wall.push_back(r.wall_s);
    mean.push_back(r.decision_mean_us);
    p50.push_back(r.decision_p50_us);
    p99.push_back(r.decision_p99_us);
  }

  printOutcome(ref, tally);
  std::printf("decision_us percentiles are interpolated inside sim.decision_us "
              "buckets %.0f%% wide (%g..%g us); %" PRIu64 " passes per replay\n",
              100.0 * (kDecisionBucketRatio - 1.0), decisionBuckets().front(),
              decisionBuckets().back(), ref.decisions);

  // A slow spell of the host (a co-tenant's memory traffic) can slow the
  // replays by half for part of a run while the reference kernel barely
  // feels it. The replay figures are therefore the run's fastest tenth
  // (kFastQuantile; the slowest for events/s), the figures least touched by
  // such a spell, and the replays' kernels are read at the same quantile,
  // so both describe the host's fast state. Host times are then scaled by
  // kReferenceKernelS / that kernel time; set-up times by
  // kReferenceKernelS / the set-up kernels' median, matching the set-up
  // median.
  const auto fast = [](const std::vector<double>& v) {
    return quantile(v, kFastQuantile);
  };
  const double setup_scale = kReferenceKernelS / s.kernel_s;
  const double run_scale = kReferenceKernelS / fast(kernel);
  std::printf("host speed: reference kernel %.4f ms (median) over the set-ups; "
              "%.4f ms (fastest tenth), %.4f ms (median) over the replays "
              "(%zu kernels); reference host %.4f ms\n",
              s.kernel_s * 1e3, fast(kernel) * 1e3, median(kernel) * 1e3,
              kernel.size(), kReferenceKernelS * 1e3);
  std::printf("raw (host time): setup_s %.6g; replays' fastest tenth: events_per_s "
              "%.6g  decision_us_mean %.6g  decision_us_p50 %.6g  decision_us_p99 "
              "%.6g; replays' median: events_per_s %.6g  decision_us_mean %.6g"
              "  decision_us_p50 %.6g  decision_us_p99 %.6g\n",
              s.setup_s, ref.events / fast(wall), fast(mean), fast(p50), fast(p99),
              ref.events / median(wall), median(mean), median(p50), median(p99));
  printResult(tally, {
                         {"setup_s", s.setup_s * setup_scale, "s"},
                         {"events_per_s", ref.events / (fast(wall) * run_scale), "1/s"},
                         {"decision_us_mean", fast(mean) * run_scale, "us"},
                         {"decision_us_p50", fast(p50) * run_scale, "us"},
                         {"decision_us_p99", fast(p99) * run_scale, "us"},
                         {"peak_rss_mb", peak_rss_mb, "MB"},
                     });
  return 0;
}

double medianWall(const std::vector<Replay>& v) {
  std::vector<double> w;
  for (const Replay& r : v) w.push_back(r.wall_s);
  return median(w);
}

int runTraced(const Workload& w, const Seeds& seeds, HostSpeed& speed) {
  Setup s = setUp(w, seeds, speed);
  const Inputs& in = *s.in;
  Tally tally;
  Attach profiled;
  profiled.phases = true;

  // Untraced and phase-profiled replays.
  std::vector<Replay> untraced, traced;
  for (int i = 0; i < kTracedReps; ++i) {
    untraced.push_back(replay(in, w, Attach{}));
    printReplay("untraced", untraced.back());
    tally.jobs(untraced.back());
    checkSame(tally, untraced.front(), untraced.back(), "untraced replays");
  }
  for (int i = 0; i < kTracedReps; ++i) {
    traced.push_back(replay(in, w, profiled));
    printReplay("traced", traced.back());
    tally.jobs(traced.back());
    tally.check(traced.back().digest == untraced.front().digest,
                "phase profiler changed the result");
  }
  const Replay& ref = untraced.front();
  const double untraced_s = medianWall(untraced);
  const double traced_s = medianWall(traced);
  double phase_ms[sns::telemetry::kPhaseCount] = {};
  double self_ns_total = 0.0;
  for (std::size_t p = 0; p < sns::telemetry::kPhaseCount; ++p) {
    std::vector<double> v;
    for (const Replay& r : traced) v.push_back(r.phase_self_ns[p]);
    phase_ms[p] = median(v) * 1e-6;
    self_ns_total += median(v);
  }

  // Operation-stream capture and the layer replays.
  const Capture cap = capture(in, w);
  tally.jobs(cap.replay);
  tally.check(cap.replay.digest == ref.digest, "capture changed the result");
  std::printf("capture: %zu ops, %zu attempts, %zu select queries, %u passes, "
              "%" PRIu64 " explorations\n",
              cap.ops.size(), cap.attempts.size(), cap.queries.size(), cap.passes,
              cap.explorations);
  const LayerNumbers ln = runLayerReplays(in, w, cap);
  tally.attempted += ln.checks;
  tally.failed += ln.failures;
  const double started = exactOr0(cap.replay, "sim.jobs_started");
  const double finished = exactOr0(cap.replay, "sim.jobs_finished");
  std::printf("layers vs replay: placements %" PRIu64 " vs sim.jobs_started %.0f; "
              "releases %" PRIu64 " vs sim.jobs_finished %.0f; tryPlace %" PRIu64
              " vs attempts %zu; selects %" PRIu64 "; queue pushes %" PRIu64
              " visits %" PRIu64 "; calendar ops %" PRIu64 "; solves %" PRIu64
              " (misses %" PRIu64 ") vs sim.solver_calls %.0f (capture) / %.0f (untraced)\n",
              ln.placements, started, ln.releases, finished, ln.tryplace_calls,
              cap.attempts.size(), ln.selects, ln.queue_pushes, ln.queue_visits,
              ln.calendar_ops, ln.solves, ln.solve_misses,
              exactOr0(cap.replay, "sim.solver_calls"),
              exactOr0(ref, "sim.solver_calls"));
  tally.check(static_cast<double>(ln.placements) == started,
              "layer-replay placements != sim.jobs_started");
  tally.check(static_cast<double>(ln.releases) == finished,
              "layer-replay releases != sim.jobs_finished");

  // Observer overhead matrix: each observer alone over the median
  // untraced replay, then the whole `uberun report` set at once. Every one
  // is read-only, so each must reproduce the untraced result.
  const auto observed = [&](Attach a, const char* label) {
    const Replay r = replay(in, w, a);
    printReplay(label, r);
    tally.jobs(r);
    tally.check(r.digest == ref.digest, std::string(label) + " changed the result");
    return r;
  };
  const Replay with_sink = observed(Attach{true, false, false, false, false}, "sink");
  const Replay with_sampler = observed(Attach{false, true, false, false, false}, "sampler");
  const Replay with_xray = observed(Attach{false, false, false, true, false}, "xray");
  const Replay with_flight = observed(Attach{false, false, false, false, true}, "flight");
  const Replay with_all = observed(Attach::all(), "all");
  std::printf("observer overhead vs untraced: sink %.3fx sampler %.3fx xray %.3fx "
              "flight %.3fx all %.3fx\n",
              ratio(with_sink.wall_s, untraced_s), ratio(with_sampler.wall_s, untraced_s),
              ratio(with_xray.wall_s, untraced_s), ratio(with_flight.wall_s, untraced_s),
              ratio(with_all.wall_s, untraced_s));

  printOutcome(ref, tally);
  const double sel_hits = exactOr0(ref, "sim.select_cache_hits");
  const double sel_miss = exactOr0(ref, "sim.select_cache_misses");
  const double sc_hits = exactOr0(ref, "solver.cache.hits");
  const double sc_miss = exactOr0(ref, "solver.cache.misses");
  using sns::telemetry::Phase;
  const auto ph = [&](Phase p) { return phase_ms[static_cast<std::size_t>(p)]; };
  printResult(
      tally,
      {
          {"actuator.select_us_p50", ln.select_us_p50, "us"},
          {"actuator.select_us_p99", ln.select_us_p99, "us"},
          {"actuator.select_pool_speedup", ln.select_pool_speedup, "x"},
          {"actuator.commit_ns_per_node", ln.commit_ns_per_node, "ns"},
          {"actuator.select_cache_hit_ratio", ratio(sel_hits, sel_hits + sel_miss), "ratio"},
          {"actuator.spec_skips", exactOr0(ref, "sim.spec_skips"), "count"},
          {"sched.tryplace_us_p50", ln.tryplace_us_p50, "us"},
          {"sched.tryplace_us_p99", ln.tryplace_us_p99, "us"},
          {"sched.queue_op_ns", ln.queue_op_ns, "ns"},
          {"sched.calendar_op_ns", ln.calendar_op_ns, "ns"},
          {"sched.passes", exactOr0(ref, "sim.schedule_passes"), "count"},
          {"sched.futile_pass_skips", exactOr0(ref, "sim.futile_pass_skips"), "count"},
          {"perfmodel.solve_miss_us", ln.solve_miss_us, "us"},
          {"perfmodel.solve_hit_ns", ln.solve_hit_ns, "ns"},
          {"perfmodel.solver_calls", exactOr0(ref, "sim.solver_calls"), "count"},
          {"perfmodel.cache_hit_ratio", ratio(sc_hits, sc_hits + sc_miss), "ratio"},
          {"perfmodel.cache_evictions", exactOr0(ref, "solver.cache.evictions"), "count"},
          {"sim.queue_walk_self_ms", ph(Phase::kQueueWalk), "ms"},
          {"sim.ledger_scan_self_ms", ph(Phase::kLedgerScan), "ms"},
          {"sim.placement_commit_self_ms", ph(Phase::kPlacementCommit), "ms"},
          {"sim.contention_solve_self_ms", ph(Phase::kContentionSolve), "ms"},
          {"sim.rate_refresh_self_ms", ph(Phase::kRateRefresh), "ms"},
          {"sim.accounting_self_ms", ph(Phase::kAccounting), "ms"},
          {"sim.phase_coverage", ratio(self_ns_total * 1e-9, traced_s), "ratio"},
          {"sim.trace_overhead", ratio(traced_s, untraced_s), "x"},
          {"sim.active_jobs_hwm", exactOr0(ref, "sim.active_jobs_hwm.max"), "count"},
          {"obs.sink_overhead", ratio(with_sink.wall_s, untraced_s), "x"},
          {"telemetry.sampler_overhead", ratio(with_sampler.wall_s, untraced_s), "x"},
          {"xray.tracer_overhead", ratio(with_xray.wall_s, untraced_s), "x"},
          {"flight.recorder_overhead", ratio(with_flight.wall_s, untraced_s), "x"},
          {"obs.events_logged", with_sink.events_logged, "count"},
          {"trace.generate_s", s.generate_s, "s"},
          {"profile.synthesize_s", s.synthesize_s, "s"},
      });
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--trace-seed N] [--map-seed N]\n"
               "workloads:",
               argv0);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  long long trace = -1;
  Seeds seeds;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
      continue;
    }
    char* end = nullptr;
    errno = 0;
    if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
    } else {
      const long long n = std::strtoll(v, &end, 0);
      if (flag == "--seed") {
        seed = n;
      } else if (flag == "--trace") {
        trace = n;
      } else if (flag == "--trace-seed") {
        seeds.trace = static_cast<std::uint64_t>(n);
      } else if (flag == "--map-seed") {
        seeds.map = static_cast<std::uint64_t>(n);
      } else {
        usage(argv[0]);
      }
      if (n < 0) usage(argv[0]);
    }
    if (end == v || *end != '\0' || errno != 0) usage(argv[0]);
  }
  const Workload* w = findWorkload(workload);
  if (argc % 2 != 1 || w == nullptr || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    usage(argv[0]);
  }
  seeds.order = static_cast<std::uint64_t>(seed);
  printMeta(*w, seeds, seed, static_cast<int>(trace));
  std::fflush(stdout);
  try {
    HostSpeed speed;
    return trace == 0 ? runEndToEnd(*w, seeds, seconds, speed)
                      : runTraced(*w, seeds, speed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
