#pragma once

// Operation-stream capture. A capture replay attaches CaptureSink (an
// obs::EventSink) plus a provenance-only xray tracer; both are read-only,
// so the replay's SimResult is bit-identical to an unobserved one. The
// sink turns the simulator's event stream into the ordered operations the
// layer replays run: submissions, scheduling attempts (with every
// ledger selection query the policy issued, read from the attempt's
// provenance scale walk), starts and finishes.

#include <cstdint>
#include <vector>

#include "inputs.hpp"
#include "sns/actuator/node_ledger.hpp"
#include "sns/sched/job.hpp"

namespace perfbench {

/// One ResourceLedger::selectNodes call as the policy issued it.
struct SelectQuery {
  int count = 0;
  sns::actuator::NodeAllocation request;
  bool accepted = false;  ///< the query returned nodes (the winning scale)
};

struct Attempt {
  sns::sched::JobId job = 0;
  bool accepted = false;
  std::uint32_t first_query = 0;  ///< index into Capture::queries
  std::uint32_t query_count = 0;
};

struct Op {
  enum class Kind : std::uint8_t { kSubmit, kAttempt, kStart, kFinish };
  Kind kind = Kind::kSubmit;
  sns::sched::JobId job = 0;
  std::uint32_t attempt = 0;  ///< index into Capture::attempts (kAttempt)
  std::uint32_t pass = 0;     ///< scheduling pass (kAttempt / kStart)
};

struct Capture {
  std::vector<Op> ops;
  std::vector<Attempt> attempts;
  std::vector<SelectQuery> queries;
  std::uint32_t passes = 0;
  std::uint64_t explorations = 0;  ///< exclusive trial runs (not replayed)
  /// The capture replay's own result; placements and finish times of the
  /// layer replays come from here.
  Replay replay;
};

/// Run the capture replay of `w` and return its operation stream.
Capture capture(const Inputs& in, const Workload& w);

}  // namespace perfbench
