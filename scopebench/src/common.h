// Shared pieces of the scope-server benchmark: workload table, the seeded
// generator both processes derive inputs from, clocks and small I/O helpers.
#ifndef SCOPEBENCH_COMMON_H_
#define SCOPEBENCH_COMMON_H_

#include <pthread.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace scopebench {

enum class WorkloadId { kTextEcho, kBinaryFanout, kBinaryStageRecord };

// One traffic mix (README.md explains why each exists).  Every workload has
// one producer connection, DELAY 50 on every session and 64 signals.
struct Workload {
  const char* name;
  WorkloadId id;
  bool binary;            // producer and viewers negotiate HELLO BIN 1
  int64_t rate;           // offered tuples per second (open loop)
  int display_scopes;     // in-process AddScope display-only scopes
  bool record;            // RECORD on, plus the REPLAY viewer
};

constexpr int kSignals = 64;
constexpr int64_t kDelayMs = 50;
constexpr int64_t kLateLimitMs = 100;  // decoded later than this past the deadline = miss
constexpr int64_t kWarmupMs = 1000;
constexpr int64_t kDecimate = 10;

const Workload* FindWorkload(std::string_view name);
const std::vector<Workload>& AllWorkloads();

// Seeded input generator.  Every sample is a pure function of (seed, seq),
// so the producer, the viewers' checks and the server-side check agree
// without sharing tables.  The value carries the sequence number in its
// integer part (exact in a double far beyond any run's length), so an
// echoed tuple identifies the sample it came from.
struct Gen {
  uint64_t seed = 1;

  static uint64_t Mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  int Signal(int64_t seq) const {
    return static_cast<int>(Mix(seed * 0x2545F4914F6CDD1Dull ^ static_cast<uint64_t>(seq)) %
                            kSignals);
  }
  double Value(int64_t seq) const {
    const uint64_t frac = Mix(seed + 0x5851F42D4C957F2Dull * static_cast<uint64_t>(seq + 1)) & 1023;
    return static_cast<double>(seq) + static_cast<double>(frac) / 1024.0;
  }
  static int64_t SeqOf(double value) { return static_cast<int64_t>(value); }
  // Deterministic per-seed draw in [lo, hi] for schedule jitter.
  int64_t Draw(uint64_t stream, int64_t k, int64_t lo, int64_t hi) const {
    const uint64_t r = Mix(seed ^ (stream << 40) ^ static_cast<uint64_t>(k));
    return lo + static_cast<int64_t>(r % static_cast<uint64_t>(hi - lo + 1));
  }
};

const std::string& SignalName(int index);  // "sig00" .. "sig63"

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // steady_clock's source on Linux
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline int64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline int64_t ThreadCpuNs(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) {
    return 0;
  }
  return CpuNs(clock);
}
void SleepUntilNs(int64_t t_ns);

// "key value key value ..." lines exchanged with the server process.
using KeyValues = std::map<std::string, double>;
KeyValues ParseKeyValues(std::string_view text);
void AppendKeyValue(std::string& out, std::string_view key, double value);

// Blocking line I/O on a pipe; ReadLine gives up after `timeout_ms`.
bool WriteLine(int fd, const std::string& line);
bool ReadLine(int fd, std::string* line, int timeout_ms);

// Prints the message and exits with code 2 without a result, after
// killing and reaping the server process registered here (0 = none).
[[noreturn]] void Die(const char* fmt, ...);
void SetServerPid(int pid);

}  // namespace scopebench

#endif  // SCOPEBENCH_COMMON_H_
