#pragma once

// Host-speed reference. The benchmark runs on shared hosts whose speed
// drifts by 20-30% from one minute to the next (co-tenants on the sibling
// hyperthread, frequency changes), which moves every wall-clock figure of
// a run together. The reference kernel is a fixed piece of the
// benchmark's own code: sort a copy of 65,536 pseudo-random 64-bit keys.
// It is branchy, cache-resident compute that no change to the simulator
// can speed up or slow down. The benchmark times it between set-ups and
// between replays, and scales each phase's host times by
// kReferenceKernelS / (median kernel time in that phase), so a run on a
// slow host and a run on a fast one report the same figures for the same
// program. The raw figures are printed beside the scaled ones.

#include <cstdint>
#include <vector>

namespace perfbench {

/// The kernel's median time on the reference host (a 4-vCPU
/// "Intel(R) Xeon(R) Processor" KVM guest, GCC 12.2 Release): a scaled
/// figure reads as the host figure that host would give at that speed.
constexpr double kReferenceKernelS = 4.5e-3;

class HostSpeed {
 public:
  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Run the kernel once untimed, to bring its data back into the caches
  /// the last set-up or replay evicted, then timed until `budget_s` host
  /// seconds are spent (at least once), appending each time to `out`.
  /// The program's cache footprint therefore never reaches the times.
  void sampleFor(double budget_s, std::vector<double>& out);

 private:
  double sample();  ///< one kernel; returns its host seconds

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> work_;
  std::uint64_t sink_ = 0;  ///< keeps the sort observable
};

}  // namespace perfbench
