#include "host_speed.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

using Clock = std::chrono::steady_clock;

HostSpeed::HostSpeed() : keys_(65536), work_(keys_.size()) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64, fixed seed
  for (auto& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
}

double HostSpeed::sample() {
  const auto t0 = Clock::now();
  std::copy(keys_.begin(), keys_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  sink_ += work_[work_.size() / 2];
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void HostSpeed::sampleFor(double budget_s, std::vector<double>& out) {
  sample();
  double spent = 0.0;
  do {
    const double t = sample();
    out.push_back(t);
    spent += t;
  } while (spent < budget_s);
}

}  // namespace perfbench
