// Entry points of the benchmark's three parts: the server process, the live
// open-loop run against it, and the traced replay of the layers' public
// calls on the same generated inputs.
#ifndef SCOPEBENCH_SCOPEBENCH_H_
#define SCOPEBENCH_SCOPEBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace scopebench {

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  int64_t seconds = 10;
  bool trace = false;
  std::string self_exe;     // re-executed as the server process
  std::string scratch_dir;  // RECORD logs and the layer replay's extent log
};

// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LiveResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false, one per line
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;         // counter- and clock-based layer metrics
  // Inputs of trace.unaccounted_frac.
  double server_cpu_ns_per_tuple = 0.0;
  double echo_per_tuple = 0.0;
};

int RunServerProcess(const Workload& workload, uint64_t seed, int cmd_fd, int report_fd);
LiveResult RunLive(const RunConfig& config);
// Appends the span-based layer metrics, trace.overhead_frac and
// trace.unaccounted_frac to `live.layers`.
void RunLayers(const RunConfig& config, LiveResult& live);

}  // namespace scopebench

#endif  // SCOPEBENCH_SCOPEBENCH_H_
