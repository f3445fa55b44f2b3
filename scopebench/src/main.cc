// scopebench: one open-loop workload against an in-tree StreamServer.
//
//   scopebench --workload <text_echo|binary_fanout|binary_stage_record>
//              --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Prints human-readable metric lines, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  See
// README.md for the workloads, the metrics and the layer map.
//
// `--serve <workload> --seed <n> --cmd-fd <fd> --report-fd <fd>` is the
// server process the benchmark starts for itself.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "scopebench.h"

namespace scopebench {
namespace {

struct Args {
  std::string workload;
  std::string serve;
  uint64_t seed = 0;
  bool has_seed = false;
  int64_t seconds = 0;
  int trace = -1;
  int cmd_fd = -1;
  int report_fd = -1;
  std::string scratch = ".bench_build/scopebench-scratch";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for %s", flag.c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--serve") {
      a.serve = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
      a.has_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtoll(value, nullptr, 10);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value);
    } else if (flag == "--cmd-fd") {
      a.cmd_fd = std::atoi(value);
    } else if (flag == "--report-fd") {
      a.report_fd = std::atoi(value);
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      Die("unknown flag %s", flag.c_str());
    }
  }
  return a;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      mkdir(path.substr(0, i).c_str(), 0755);
    }
  }
}

}  // namespace
}  // namespace scopebench

int main(int argc, char** argv) {
  using namespace scopebench;
  const Args args = ParseArgs(argc, argv);
  if (!args.serve.empty()) {
    const Workload* w = FindWorkload(args.serve);
    if (w == nullptr || args.cmd_fd < 0 || args.report_fd < 0) {
      Die("bad --serve invocation");
    }
    return RunServerProcess(*w, args.seed, args.cmd_fd, args.report_fd);
  }
  RunConfig config;
  config.workload = FindWorkload(args.workload);
  if (config.workload == nullptr) {
    Die("unknown --workload '%s'", args.workload.c_str());
  }
  if (!args.has_seed || args.seconds < 1 || args.seconds > 600 ||
      (args.trace != 0 && args.trace != 1)) {
    Die("usage: --workload <name> --seed <n> --seconds <1..600> --trace <0|1>");
  }
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace == 1;
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    Die("cannot resolve /proc/self/exe");
  }
  config.self_exe.assign(exe, static_cast<size_t>(n));
  config.scratch_dir = args.scratch;
  MakeDirs(config.scratch_dir);

  LiveResult result = RunLive(config);
  if (config.trace) {
    RunLayers(config, result);
  }
  const std::vector<Metric>& metrics = config.trace ? result.layers : result.end_to_end;

  std::printf("workload %s seed %llu seconds %lld trace %d\n", config.workload->name,
              static_cast<unsigned long long>(config.seed), static_cast<long long>(config.seconds),
              config.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      json += ", ";
    }
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
