#include "common.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstdlib>

namespace scopebench {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = {
      {"text_echo", WorkloadId::kTextEcho, false, 50'000, 0, false},
      {"binary_fanout", WorkloadId::kBinaryFanout, true, 50'000, 64, false},
      {"binary_stage_record", WorkloadId::kBinaryStageRecord, true, 200'000, 0, true},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

const std::string& SignalName(int index) {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (int i = 0; i < kSignals; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "sig%02d", i);
      names.emplace_back(buf);
    }
    return names;
  }();
  return kNames[static_cast<size_t>(index)];
}

void SleepUntilNs(int64_t t_ns) {
  timespec ts;
  ts.tv_sec = t_ns / 1'000'000'000;
  ts.tv_nsec = t_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

KeyValues ParseKeyValues(std::string_view text) {
  KeyValues out;
  size_t pos = 0;
  auto next = [&]() -> std::string_view {
    while (pos < text.size() && text[pos] == ' ') {
      ++pos;
    }
    size_t start = pos;
    while (pos < text.size() && text[pos] != ' ') {
      ++pos;
    }
    return text.substr(start, pos - start);
  };
  while (true) {
    std::string_view key = next();
    std::string_view value = next();
    if (key.empty() || value.empty()) {
      break;
    }
    out[std::string(key)] = std::strtod(std::string(value).c_str(), nullptr);
  }
  return out;
}

void AppendKeyValue(std::string& out, std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  if (!out.empty()) {
    out.push_back(' ');
  }
  out.append(key).push_back(' ');
  out.append(buf);
}

bool WriteLine(int fd, const std::string& line) {
  std::string buf = line + "\n";
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = write(fd, buf.data() + off, buf.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, std::string* line, int timeout_ms) {
  line->clear();
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  while (true) {
    int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) {
      return false;
    }
    pollfd p{fd, POLLIN, 0};
    int r = poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    char c;
    ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    if (c == '\n') {
      return true;
    }
    line->push_back(c);
  }
}

namespace {
int g_server_pid = 0;
}  // namespace

void SetServerPid(int pid) { g_server_pid = pid; }

void Die(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fputs("scopebench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
  std::fflush(stderr);
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
  }
  std::_Exit(2);
}

}  // namespace scopebench
