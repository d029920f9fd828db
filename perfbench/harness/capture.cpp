#include "capture.hpp"

#include "sns/obs/sink.hpp"
#include "sns/xray/provenance.hpp"
#include "sns/xray/span.hpp"

namespace perfbench {

using namespace sns;

namespace {

class CaptureSink final : public obs::EventSink {
 public:
  CaptureSink(Capture& out, sched::PolicyKind policy, const xray::Tracer& tracer)
      : out_(&out), policy_(policy), tracer_(&tracer) {}

  void record(const obs::Event& e) override;

 private:
  Capture* out_;
  sched::PolicyKind policy_;
  const xray::Tracer* tracer_;
  bool in_pass_ = false;
};

void CaptureSink::record(const obs::Event& e) {
  Op op;
  op.job = static_cast<sched::JobId>(e.job);
  switch (e.type) {
    case obs::EventType::kJobSubmitted:
      op.kind = Op::Kind::kSubmit;
      in_pass_ = false;
      break;
    case obs::EventType::kJobFinished:
      op.kind = Op::Kind::kFinish;
      in_pass_ = false;
      break;
    case obs::EventType::kJobStarted:
      op.kind = Op::Kind::kStart;
      op.pass = out_->passes - 1;
      break;
    case obs::EventType::kExplorationStarted:
    case obs::EventType::kExplorationPreempted:
      ++out_->explorations;
      return;
    case obs::EventType::kScheduleAttempt: {
      // Submissions and finishes are processed before the pass at their
      // instant, so any attempt after one of them opens a new pass.
      if (!in_pass_) {
        ++out_->passes;
        in_pass_ = true;
      }
      op.kind = Op::Kind::kAttempt;
      op.pass = out_->passes - 1;
      Attempt a;
      a.job = op.job;
      a.first_query = static_cast<std::uint32_t>(out_->queries.size());
      // The attempt's provenance holds its full scale walk with the exact
      // request of every selection the policy ran; steps rejected before
      // reaching the ledger (single-node program, cluster too small) made
      // no query.
      const xray::DecisionRecord& rec = tracer_->provenance()->record(e.job);
      for (const xray::ScaleAttempt& s : rec.walk) {
        if (s.reason != xray::RejectReason::kNone &&
            s.reason != xray::RejectReason::kInsufficientResources) {
          continue;
        }
        SelectQuery q;
        q.count = s.nodes;
        q.request.cores = s.cores;
        q.request.ways = s.ways;
        q.request.bw_gbps = s.bw_gbps;
        q.request.exclusive = policy_ == sched::PolicyKind::kCE;
        q.accepted = s.reason == xray::RejectReason::kNone;
        a.accepted = a.accepted || q.accepted;
        out_->queries.push_back(q);
      }
      a.query_count =
          static_cast<std::uint32_t>(out_->queries.size()) - a.first_query;
      op.attempt = static_cast<std::uint32_t>(out_->attempts.size());
      out_->attempts.push_back(a);
      break;
    }
    default:
      return;
  }
  out_->ops.push_back(op);
}

}  // namespace

Capture capture(const Inputs& in, const Workload& w) {
  Capture out;
  xray::TracerConfig xcfg;
  xcfg.sample_period = 1 << 30;  // provenance only; span timing stays off
  xcfg.provenance = true;
  xray::Tracer tracer(xcfg);
  CaptureSink sink(out, w.policy, tracer);
  out.replay = replay(in, w, Attach{}, &sink, &tracer);
  return out;
}

}  // namespace perfbench
