// Arithmetic of the scope-server benchmark, kept free of I/O so the tests
// in ../tests can pin it down: percentile choice, deadline-relative echo
// lag, server CPU after subtracting harness threads, open-loop lateness and
// deadline-miss accounting.
#ifndef SCOPEBENCH_HARNESS_MATH_H_
#define SCOPEBENCH_HARNESS_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace scopebench {

constexpr int64_t kNanosPerMs = 1'000'000;

// 1-based nearest rank of percentile `pct` in an n-sample set: the smallest
// rank with at least `pct` percent of the sample at or below it.  The
// epsilon keeps 99.9% of 10000 at rank 9990 despite binary rounding.
inline size_t NearestRank(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : std::min(static_cast<size_t>(rank), n);
}

// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
template <typename T>
double Percentile(const std::vector<T>& sorted, double pct) {
  if (sorted.empty()) {
    return 0.0;
  }
  return static_cast<double>(sorted[NearestRank(sorted.size(), pct) - 1]);
}

// Samples strictly above the nearest-rank `pct` position of an n-sample set.
inline size_t SamplesBeyond(size_t n, double pct) {
  return n == 0 ? 0 : n - NearestRank(n, pct);
}

// The highest percentile of the ladder 99.99 / 99.9 / 99 / 90 / 50 that
// leaves at least `min_beyond` samples beyond it; 0 when even the median
// does not (too few samples to report a tail).
inline double HighestSupportedPercentile(size_t n, size_t min_beyond = 10) {
  for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= min_beyond) {
      return pct;
    }
  }
  return 0.0;
}

// Echo lag: how long after its display deadline a sample was decoded.  The
// deadline is the sample's stamp (ms on the server's scope axis, whose zero
// is `scope_start_ns` on the shared steady clock) plus the session DELAY.
inline double LagMs(int64_t decode_ns, int64_t scope_start_ns, int64_t stamp_ms,
                    int64_t delay_ms) {
  const int64_t deadline_ns = scope_start_ns + (stamp_ms + delay_ms) * kNanosPerMs;
  return static_cast<double>(decode_ns - deadline_ns) / static_cast<double>(kNanosPerMs);
}

// Server CPU: the server process's CPU over the window minus the CPU of
// harness threads living in that process (never below zero).
inline int64_t ServerCpuNs(int64_t process_cpu_ns, const std::vector<int64_t>& harness_thread_cpu_ns) {
  int64_t cpu = process_cpu_ns;
  for (int64_t t : harness_thread_cpu_ns) {
    cpu -= t;
  }
  return std::max<int64_t>(cpu, 0);
}

// Open-loop schedule: sample `seq` is due `seq / rate` seconds after t0,
// whether or not earlier samples went out on time.
inline int64_t DueNs(int64_t t0_ns, int64_t seq, int64_t rate_per_s) {
  return t0_ns + seq * 1'000'000'000 / rate_per_s;
}

// How late the generator sent a sample relative to its schedule (ms, >= 0).
inline double LatenessMs(int64_t sent_ns, int64_t due_ns) {
  return sent_ns <= due_ns ? 0.0
                           : static_cast<double>(sent_ns - due_ns) / static_cast<double>(kNanosPerMs);
}

// Deadline-miss accounting over (sample, target) deliveries.  A viewer
// target misses a sample it never decoded or decoded more than the limit
// past the deadline; a display-scope target misses the samples the server
// late-dropped for it.
struct DeliveryTally {
  int64_t offered = 0;
  int64_t missed = 0;

  void AddViewer(int64_t expected, int64_t decoded, int64_t decoded_past_limit) {
    offered += expected;
    missed += std::max<int64_t>(expected - decoded, 0) + decoded_past_limit;
  }
  void AddDisplayScope(int64_t expected, int64_t late_dropped) {
    offered += expected;
    missed += std::min(late_dropped, expected);
  }
  double MissFrac() const {
    return offered == 0 ? 0.0 : static_cast<double>(missed) / static_cast<double>(offered);
  }
};

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

}  // namespace scopebench

#endif  // SCOPEBENCH_HARNESS_MATH_H_
