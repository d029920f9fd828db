#include "inputs.hpp"

#include <bit>
#include <chrono>
#include <utility>

#include "sns/profile/profiler.hpp"
#include "sns/trace/generator.hpp"
#include "sns/trace/replay.hpp"
#include "sns/util/rng.hpp"

namespace perfbench {

using namespace sns;
using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer over an FNV-style running state.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

Inputs::Inputs(const Seeds& seeds) : lib(app::programLibrary()) {
  // The figure benches' environment (bench/common.cpp): calibrated
  // programs and noisy 16/28-process profiles accumulated from prior runs.
  for (auto& p : lib) est.calibrate(p);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.02;
  profile::Profiler prof(est, pcfg, 0xBE7C4);
  for (const auto& p : lib) {
    reference_db.put(prof.profileProgram(p, 16));
    if (!p.pow2_procs && p.multi_node) {
      reference_db.put(prof.profileProgram(p, 28));
    }
  }
  for (const char* n : {"HC", "BW"}) {
    reference_db.put(prof.profileProgram(app::findProgram(lib, n), 28));
  }

  const auto t0 = Clock::now();
  util::Rng trace_rng(seeds.trace);
  const auto raw = trace::generateTrace(trace_rng, trace::TraceGenParams{});
  util::Rng map_rng(seeds.map);
  jobs = trace::mapTraceToJobs(map_rng, raw, kScalingRatio, est.machine().cores);
  if (seeds.order != 0) {
    // Fisher-Yates over the job list: the simulator numbers jobs by list
    // position, so this relabels them without changing the trace.
    util::Rng rng(seeds.order);
    for (std::size_t i = jobs.size(); i > 1; --i) {
      const auto k = rng.uniformInt(0, static_cast<std::int64_t>(i) - 1);
      std::swap(jobs[i - 1], jobs[static_cast<std::size_t>(k)]);
    }
  }
  generate_s = secondsSince(t0);

  const auto t1 = Clock::now();
  db = trace::synthesizeTraceProfiles(reference_db, 16, jobs, est);
  synthesize_s = secondsSince(t1);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"fig20_sns_4k", 4096, sched::PolicyKind::kSNS},
      {"fig20_sns_32k", 32768, sched::PolicyKind::kSNS},
      {"fig20_ce_4k", 4096, sched::PolicyKind::kCE},
  };
  return kAll;
}

const Workload* findWorkload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<double>& decisionBuckets() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    for (double v = 0.1; v <= 1e6; v *= kDecisionBucketRatio) b.push_back(v);
    return b;
  }();
  return kBounds;
}

sim::SimConfig baseConfig(const Workload& w, obs::Registry& metrics) {
  metrics.histogram("sim.decision_us", decisionBuckets());
  sim::SimConfig cfg;
  cfg.nodes = w.nodes;
  cfg.policy = w.policy;
  cfg.monitor_episode_s = 0.0;
  cfg.age_limit_s = 14.0 * 86400.0;
  cfg.max_queue_scan = 256;
  cfg.metrics = &metrics;
  return cfg;
}

namespace {

xray::TracerConfig reportTracerConfig() {
  xray::TracerConfig x;
  x.sample_period = 32;
  x.provenance = false;
  return x;
}

telemetry::SamplerConfig reportSamplerConfig() {
  telemetry::SamplerConfig s;
  s.period_s = 600.0;  // `uberun report --workload fig20`: 10-minute ticks
  return s;
}

double counterOr0(const obs::Registry& m, const char* name) {
  const obs::Counter* c = m.findCounter(name);
  return c != nullptr ? c->value() : 0.0;
}

}  // namespace

Observers::Observers()
    : store(512),
      watchdog(telemetry::SloWatchdog::defaultRules()),
      sampler(store, reportSamplerConfig()),
      xray(reportTracerConfig()) {
  slo_rec.setSink(&log);
  watchdog.setRecorder(&slo_rec);
  sampler.attachWatchdog(&watchdog);
}

double exactOr0(const Replay& r, const char* name) {
  const auto it = r.exact.find(name);
  return it != r.exact.end() ? it->second : 0.0;
}

std::uint64_t resultDigest(const sim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& j : r.jobs) {
    h = mix(h, std::bit_cast<std::uint64_t>(j.start));
    h = mix(h, std::bit_cast<std::uint64_t>(j.finish));
  }
  h = mix(h, std::bit_cast<std::uint64_t>(r.makespan));
  h = mix(h, std::bit_cast<std::uint64_t>(r.throughput()));
  return h;
}

Replay replay(const Inputs& in, const Workload& w, const Attach& attach,
              obs::EventSink* extra_sink, xray::Tracer* extra_xray) {
  obs::Registry metrics;
  sim::SimConfig cfg = baseConfig(w, metrics);
  std::unique_ptr<Observers> obsv;
  obs::TeeSink tee;
  if (attach.sink || attach.sampler || attach.phases || attach.xray ||
      attach.flight) {
    obsv = std::make_unique<Observers>();
    if (attach.sink) tee.add(&obsv->log);
    if (attach.sampler) cfg.sampler = &obsv->sampler;
    if (attach.phases) cfg.phases = &obsv->phases;
    if (attach.xray) cfg.xray = &obsv->xray;
    if (attach.flight) {
      obsv->flight.attachMetrics(&metrics);
      cfg.flight = &obsv->flight;
    }
  }
  tee.add(extra_sink);
  if (!tee.empty()) cfg.sink = &tee;
  if (extra_xray != nullptr) cfg.xray = extra_xray;

  sim::ClusterSimulator sim(in.est, in.lib, in.db, cfg);
  Replay out;
  const auto t0 = Clock::now();
  out.result = sim.run(in.jobs);
  out.wall_s = secondsSince(t0);

  for (const auto& j : out.result.jobs) {
    const bool ok = j.completed() && j.start >= j.submit && j.finish > j.start;
    if (!ok) ++out.bad_jobs;
  }
  if (out.result.jobs.size() != in.jobs.size()) {
    out.bad_jobs += in.jobs.size();
  }
  out.digest = resultDigest(out.result);
  out.events = counterOr0(metrics, "sim.jobs_submitted") +
               counterOr0(metrics, "sim.jobs_started") +
               counterOr0(metrics, "sim.jobs_finished");
  if (const obs::Histogram* d = metrics.findHistogram("sim.decision_us")) {
    out.decision_mean_us = d->mean();
    out.decision_p50_us = d->quantile(0.5);
    out.decision_p99_us = d->quantile(0.99);
    out.decisions = d->count();
  }
  for (const auto& [name, c] : metrics.counters()) out.exact[name] = c.value();
  for (const auto& [name, g] : metrics.gauges()) out.exact[name + ".max"] = g.max();
  out.exact["sim.decision_us.count"] = static_cast<double>(out.decisions);
  if (obsv != nullptr) {
    for (std::size_t p = 0; p < sns::telemetry::kPhaseCount; ++p) {
      out.phase_self_ns[p] = static_cast<double>(
          obsv->phases.stat(static_cast<telemetry::Phase>(p)).self_ns);
    }
    out.events_logged = static_cast<double>(obsv->log.totalRecorded());
  }
  return out;
}

}  // namespace perfbench
