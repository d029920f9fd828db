#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/app/comm.hpp"
#include "sns/perfmodel/solver_cache.hpp"
#include "sns/sched/finish_calendar.hpp"
#include "sns/sched/policies.hpp"
#include "sns/sched/queue.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/util/thread_pool.hpp"

namespace perfbench {

using namespace sns;
using Clock = std::chrono::steady_clock;

namespace {

double nsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Repetitions of the cheap whole-stream replays (queue, calendar, warm
/// solver); the median damps host noise.
constexpr int kReps = 5;

/// The simulator's search-pool rule: min(4, nproc) workers, only on a
/// multi-core host.
std::unique_ptr<util::ThreadPool> makeSearchPool() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(std::min(4u, hw));
}

const sched::Placement& placementOf(const Capture& cap, sched::JobId id) {
  return cap.replay.result.jobs[static_cast<std::size_t>(id)].placement;
}

std::vector<sched::Job> jobsOf(const Inputs& in) {
  std::vector<sched::Job> out(in.jobs.size());
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    out[i].id = static_cast<sched::JobId>(i);
    out[i].spec = in.jobs[i];
    out[i].program = &app::findProgram(in.lib, in.jobs[i].program);
    out[i].submit_time = in.jobs[i].submit_time;
  }
  return out;
}

// The layers are wired as ClusterSimulator wires its own for the default
// SimConfig::opt flags (applyLedgerOpts and the constructor), so the layer
// replays measure the configuration the replays run. A retired switch
// breaks this build rather than silently changing what is measured.
void configureLedger(actuator::ResourceLedger& ledger, util::ThreadPool* pool) {
  const sim::SimOptFlags opt;
  ledger.setFullScan(!opt.indexed_ledger);
  ledger.setSelectionCache(opt.incremental_prune);
  if (opt.parallel_select) ledger.setSearchPool(pool, opt.parallel_min_candidates);
}

void configureSolverCache(perfmodel::SolverCache& cache) {
  cache.setFlatSolve(sim::SimOptFlags{}.simd_solver);
}

void configurePolicy(sched::SchedulingPolicy& policy) {
  policy.setBatchScoring(sim::SimOptFlags{}.batched_scoring);
}

/// A ResourceLedger configured as the simulator configures its own, kept
/// in step with the capture by replaying every start and finish. Times
/// each job's allocate/release loop.
class LedgerReplay {
 public:
  LedgerReplay(const Inputs& in, const Workload& w, util::ThreadPool* pool)
      : ledger(w.nodes, in.est.machine()) {
    configureLedger(ledger, pool);
  }

  void start(const sched::Placement& p, sched::JobId id) {
    const actuator::NodeAllocation alloc = p.nodeAllocation();
    const auto t0 = Clock::now();
    for (int nd : p.nodes) ledger.allocate(nd, id, alloc);
    commit_ns += nsBetween(t0, Clock::now());
    commit_nodes += p.nodes.size();
    ++placements;
  }

  void finish(const sched::Placement& p, sched::JobId id) {
    const auto t0 = Clock::now();
    for (int nd : p.nodes) ledger.release(nd, id);
    commit_ns += nsBetween(t0, Clock::now());
    commit_nodes += p.nodes.size();
    ++releases;
  }

  /// After every release the ledger must be back to an empty cluster.
  bool drained() const {
    return ledger.idleNodeCount() == ledger.nodeCount() &&
           ledger.cachedTotalCoresUsed() == 0;
  }

  actuator::ResourceLedger ledger;
  double commit_ns = 0.0;
  std::uint64_t commit_nodes = 0;
  std::uint64_t placements = 0;
  std::uint64_t releases = 0;
};

struct Check {
  std::uint64_t made = 0;
  std::uint64_t failed = 0;
  void operator()(bool ok, const char* what) {
    ++made;
    if (!ok) {
      if (failed < 5) std::fprintf(stderr, "perfbench: self-check failed: %s\n", what);
      ++failed;
    }
  }
};

struct SelectPass {
  std::vector<double> us;
  double total_ns = 0.0;
  double commit_ns_per_node = 0.0;
  std::uint64_t placements = 0;
  std::uint64_t releases = 0;
};

/// actuator: every captured selectNodes query, in stream order, against a
/// ledger in the state the simulator's had when it ran the query.
SelectPass selectPass(const Inputs& in, const Workload& w, const Capture& cap,
                      util::ThreadPool* pool, Check& check) {
  LedgerReplay lr(in, w, pool);
  SelectPass out;
  out.us.reserve(cap.queries.size());
  std::uint64_t mismatches = 0;
  for (const Op& op : cap.ops) {
    switch (op.kind) {
      case Op::Kind::kAttempt: {
        const Attempt& a = cap.attempts[op.attempt];
        for (std::uint32_t k = 0; k < a.query_count; ++k) {
          const SelectQuery& q = cap.queries[a.first_query + k];
          const auto t0 = Clock::now();
          const std::vector<int> nodes = lr.ledger.selectNodes(q.count, q.request);
          const double ns = nsBetween(t0, Clock::now());
          out.us.push_back(ns * 1e-3);
          out.total_ns += ns;
          const bool ok = q.accepted ? nodes == placementOf(cap, a.job).nodes
                                     : nodes.empty();
          if (!ok) ++mismatches;
        }
        break;
      }
      case Op::Kind::kStart:
        lr.start(placementOf(cap, op.job), op.job);
        break;
      case Op::Kind::kFinish:
        lr.finish(placementOf(cap, op.job), op.job);
        break;
      case Op::Kind::kSubmit:
        break;
    }
  }
  check(mismatches == 0, "selectNodes replay diverged from the capture");
  check(lr.drained(), "select replay ledger not empty after all releases");
  out.commit_ns_per_node =
      lr.commit_nodes > 0 ? lr.commit_ns / static_cast<double>(lr.commit_nodes) : 0.0;
  out.placements = lr.placements;
  out.releases = lr.releases;
  return out;
}

/// sched: SchedulingPolicy::tryPlace for every captured attempt.
std::vector<double> tryPlacePass(const Inputs& in, const Workload& w,
                                 const Capture& cap, util::ThreadPool* pool,
                                 const std::vector<sched::Job>& jobs,
                                 Check& check) {
  LedgerReplay lr(in, w, pool);
  std::unique_ptr<sched::SchedulingPolicy> policy =
      w.policy == sched::PolicyKind::kSNS
          ? std::make_unique<sched::SnsPolicy>(in.est, sched::SnsPolicy::Options{})
          : sched::makePolicy(w.policy, in.est);
  configurePolicy(*policy);
  policy->beginRun();
  std::vector<double> us;
  us.reserve(cap.attempts.size());
  std::uint64_t mismatches = 0;
  for (const Op& op : cap.ops) {
    switch (op.kind) {
      case Op::Kind::kAttempt: {
        const Attempt& a = cap.attempts[op.attempt];
        const auto t0 = Clock::now();
        const auto p = policy->tryPlace(jobs[static_cast<std::size_t>(a.job)],
                                        lr.ledger, in.db);
        us.push_back(nsBetween(t0, Clock::now()) * 1e-3);
        const bool ok = a.accepted
                            ? p.has_value() && p->nodes == placementOf(cap, a.job).nodes
                            : !p.has_value();
        if (!ok) ++mismatches;
        break;
      }
      case Op::Kind::kStart:
        lr.start(placementOf(cap, op.job), op.job);
        break;
      case Op::Kind::kFinish:
        lr.finish(placementOf(cap, op.job), op.job);
        break;
      case Op::Kind::kSubmit:
        break;
    }
  }
  check(mismatches == 0, "tryPlace replay diverged from the capture");
  check(lr.drained(), "tryPlace replay ledger not empty after all releases");
  return us;
}

/// sched: JobQueue push on every submission and one walk per captured
/// scheduling pass, visiting the attempted jobs and removing the started
/// ones. Returns ns per operation (push or visit).
double queuePass(const Capture& cap, const std::vector<sched::Job>& jobs,
                 LayerNumbers& ln, Check& check) {
  std::vector<double> runs;
  std::uint64_t mismatches = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sched::JobQueue queue;
    std::uint64_t pushes = 0;
    std::uint64_t visits = 0;
    std::uint32_t last_pass = ~0u;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cap.ops.size(); ++i) {
      const Op& op = cap.ops[i];
      if (op.kind == Op::Kind::kSubmit) {
        queue.push(jobs[static_cast<std::size_t>(op.job)]);
        ++pushes;
        continue;
      }
      if (op.kind != Op::Kind::kAttempt || op.pass == last_pass) continue;
      last_pass = op.pass;
      // The pass's attempts, in order, up to the next submission/finish.
      std::size_t next = i;
      queue.walk([&](const sched::Job& job) {
        using W = sched::JobQueue::Walk;
        while (next < cap.ops.size() && cap.ops[next].kind == Op::Kind::kStart) ++next;
        if (next >= cap.ops.size() || cap.ops[next].kind != Op::Kind::kAttempt ||
            cap.ops[next].pass != op.pass) {
          return W::kStop;
        }
        ++visits;
        const Attempt& a = cap.attempts[cap.ops[next].attempt];
        ++next;
        if (a.job != job.id) ++mismatches;
        return a.accepted ? W::kRemove : W::kContinue;
      });
    }
    runs.push_back(nsBetween(t0, Clock::now()) / static_cast<double>(pushes + visits));
    ln.queue_pushes = pushes;
    ln.queue_visits = visits;
    if (rep == 0) {
      check(visits == cap.attempts.size(), "queue walk visited a different job count");
      check(queue.empty(), "queue not empty after the last pass");
    }
  }
  check(mismatches == 0, "queue walk order diverged from the capture");
  return median(runs);
}

/// sched: FinishCalendar. A start inserts the job keyed by its finish time
/// and re-keys the co-residents of its nodes; a finish pops the top (which
/// must be that job) and re-keys the co-residents it leaves. Keys are the
/// captured final finish times. Returns ns per upsert/pop.
double calendarPass(const Inputs& in, const Workload& w, const Capture& cap,
                    LayerNumbers& ln, Check& check) {
  struct CalOp {
    bool pop;
    sched::JobId id;
    double key;
  };
  std::vector<CalOp> seq;
  {
    std::vector<std::vector<sched::JobId>> on_node(static_cast<std::size_t>(w.nodes));
    std::vector<std::uint32_t> stamp(in.jobs.size(), 0);
    std::uint32_t epoch = 0;
    const auto finishOf = [&](sched::JobId id) {
      return cap.replay.result.jobs[static_cast<std::size_t>(id)].finish;
    };
    const auto rekeyCoResidents = [&](const sched::Placement& p, sched::JobId self) {
      ++epoch;
      for (int nd : p.nodes) {
        for (sched::JobId k : on_node[static_cast<std::size_t>(nd)]) {
          if (k == self || stamp[static_cast<std::size_t>(k)] == epoch) continue;
          stamp[static_cast<std::size_t>(k)] = epoch;
          seq.push_back({false, k, finishOf(k)});
        }
      }
    };
    for (const Op& op : cap.ops) {
      const sched::Placement& p = placementOf(cap, op.job);
      if (op.kind == Op::Kind::kStart) {
        for (int nd : p.nodes) on_node[static_cast<std::size_t>(nd)].push_back(op.job);
        seq.push_back({false, op.job, finishOf(op.job)});
        rekeyCoResidents(p, op.job);
      } else if (op.kind == Op::Kind::kFinish) {
        seq.push_back({true, op.job, 0.0});
        for (int nd : p.nodes) {
          auto& v = on_node[static_cast<std::size_t>(nd)];
          v.erase(std::find(v.begin(), v.end(), op.job));
        }
        rekeyCoResidents(p, op.job);
      }
    }
  }
  std::vector<double> runs;
  std::uint64_t mismatches = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sched::FinishCalendar cal;
    cal.reset(in.jobs.size());
    const auto t0 = Clock::now();
    for (const CalOp& c : seq) {
      if (c.pop) {
        if (cal.empty() || cal.pop() != c.id) ++mismatches;
      } else {
        cal.upsert(c.id, c.key);
      }
    }
    runs.push_back(nsBetween(t0, Clock::now()) / static_cast<double>(seq.size()));
    if (rep == 0) check(cal.empty(), "calendar not empty after the last finish");
  }
  check(mismatches == 0, "calendar pop order diverged from the capture");
  ln.calendar_ops = seq.size();
  return median(runs);
}

/// perfmodel: SolverCache::solve on the co-run signature of every node a
/// start or finish touched (nodes with the same resident set as the
/// previous node of that event are deduplicated, as the simulator does).
void solverPass(const Inputs& in, const Workload& w, const Capture& cap,
                const std::vector<sched::Job>& jobs, LayerNumbers& ln) {
  std::vector<perfmodel::NodeShare> shares;
  std::vector<std::size_t> offsets = {0};
  {
    std::vector<double> remote(jobs.size(), 0.0);
    for (const auto& j : cap.replay.result.jobs) {
      if (!j.completed()) continue;
      const auto& p = j.placement;
      remote[static_cast<std::size_t>(j.id)] = app::remoteFraction(
          jobs[static_cast<std::size_t>(j.id)].program->comm.pattern, j.spec.procs,
          p.procs_per_node, p.nodeCount());
    }
    LedgerReplay lr(in, w, nullptr);
    std::vector<sched::JobId> prev, cur;
    const auto collect = [&](const sched::Placement& p) {
      prev.clear();
      for (int nd : p.nodes) {
        const auto& node = lr.ledger.node(nd);
        cur.clear();
        for (const auto& [id, alloc] : node.allocations()) cur.push_back(id);
        if (cur.empty() || cur == prev) continue;
        prev = cur;
        for (const auto& [id, alloc] : node.allocations()) {
          const sched::Placement& q = placementOf(cap, id);
          shares.push_back({jobs[static_cast<std::size_t>(id)].program,
                            q.procs_per_node, node.effectiveWays(alloc),
                            remote[static_cast<std::size_t>(id)], 1.0, 0.0});
        }
        offsets.push_back(shares.size());
      }
    };
    for (const Op& op : cap.ops) {
      if (op.kind == Op::Kind::kStart) {
        lr.start(placementOf(cap, op.job), op.job);
        collect(placementOf(cap, op.job));
      } else if (op.kind == Op::Kind::kFinish) {
        lr.finish(placementOf(cap, op.job), op.job);
        collect(placementOf(cap, op.job));
      }
    }
  }
  const std::size_t n = offsets.size() - 1;
  const auto sig = [&](std::size_t i) {
    return std::span<const perfmodel::NodeShare>(shares.data() + offsets[i],
                                                 offsets[i + 1] - offsets[i]);
  };
  perfmodel::SolverCache cache(in.est.solver());
  configureSolverCache(cache);
  double miss_ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t misses = cache.misses();
    const auto t0 = Clock::now();
    cache.solve(sig(i));
    const double ns = nsBetween(t0, Clock::now());
    if (cache.misses() != misses) miss_ns += ns;
  }
  ln.solves = n;
  ln.solve_misses = cache.misses();
  ln.solve_miss_us =
      cache.misses() > 0 ? miss_ns * 1e-3 / static_cast<double>(cache.misses()) : 0.0;
  std::vector<double> runs;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) cache.solve(sig(i));
    runs.push_back(n > 0 ? nsBetween(t0, Clock::now()) / static_cast<double>(n) : 0.0);
  }
  ln.solve_hit_ns = median(runs);
}

}  // namespace

LayerNumbers runLayerReplays(const Inputs& in, const Workload& w, const Capture& cap) {
  LayerNumbers ln;
  Check check;
  const std::vector<sched::Job> jobs = jobsOf(in);
  const auto pool = makeSearchPool();

  const SelectPass pooled = selectPass(in, w, cap, pool.get(), check);
  const SelectPass serial = selectPass(in, w, cap, nullptr, check);
  ln.select_us_p50 = percentile(pooled.us, 0.5);
  ln.select_us_p99 = percentile(pooled.us, 0.99);
  ln.select_pool_speedup = pooled.total_ns > 0.0 ? serial.total_ns / pooled.total_ns : 0.0;
  ln.commit_ns_per_node = pooled.commit_ns_per_node;
  ln.selects = pooled.us.size();
  ln.placements = pooled.placements;
  ln.releases = pooled.releases;

  const std::vector<double> tp = tryPlacePass(in, w, cap, pool.get(), jobs, check);
  ln.tryplace_us_p50 = percentile(tp, 0.5);
  ln.tryplace_us_p99 = percentile(tp, 0.99);
  ln.tryplace_calls = tp.size();

  ln.queue_op_ns = queuePass(cap, jobs, ln, check);
  ln.calendar_op_ns = calendarPass(in, w, cap, ln, check);
  solverPass(in, w, cap, jobs, ln);

  ln.checks = check.made;
  ln.failures = check.failed;
  return ln;
}

}  // namespace perfbench
