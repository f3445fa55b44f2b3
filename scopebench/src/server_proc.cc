// The server process: one StreamServer with server defaults on its own
// MainLoop, the workload's display scopes, and a control thread that takes
// commands from the generator process over a pipe.  Running the server in
// its own process keeps the generator's CPU and memory out of the server's
// figures; the control thread's own CPU is subtracted (ServerCpuNs).
//
// Commands (one per line): MARK / END bracket the measurement window and
// LAP splits it into laps (END answers with the window's counters and the
// median lap's server CPU per tuple), CHECK <n> compares every display
// scope's LatestValue with the last of the first n generated samples per
// signal, QUIT closes the server and exits.
#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "harness_math.h"
#include "net/stream_server.h"
#include "scopebench.h"

namespace scopebench {
namespace {

struct Snapshot {
  int64_t wall_ns = 0;
  int64_t process_cpu_ns = 0;
  int64_t control_cpu_ns = 0;
  int64_t loop_cpu_ns = 0;
  int64_t tuples = 0;
  int64_t echoed = 0;
  int64_t echo_dropped = 0;
  int64_t echo_evicted = 0;
  int64_t stage_evals = 0;
  int64_t server_dropped_late = 0;
  int64_t scope_dropped = 0;
  int64_t coalesced = 0;
  int64_t retained = 0;
  int64_t timer_fired = 0;
  int64_t timer_lost = 0;
  int64_t timer_latency_ns = 0;
};

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

class ServerProcess {
 public:
  ServerProcess(const Workload& workload, uint64_t seed, int cmd_fd, int report_fd)
      : workload_(workload), cmd_fd_(cmd_fd), report_fd_(report_fd) {
    gen_.seed = seed;
  }

  int Run() {
    const int64_t construct_ns = NowNs();
    app_ = std::make_unique<gscope::Scope>(&loop_, gscope::ScopeOptions{.name = "app"});
    app_->SetPollingMode(10);
    app_->SetDelayMs(kDelayMs);
    const int64_t before = NowNs();
    app_->StartPolling();
    const int64_t after = NowNs();
    server_ = std::make_unique<gscope::StreamServer>(&loop_, app_.get());
    display_.push_back(app_.get());
    for (int i = 0; i < workload_.display_scopes; ++i) {
      auto scope = std::make_unique<gscope::Scope>(
          &loop_, gscope::ScopeOptions{.name = "display" + std::to_string(i)});
      scope->SetPollingMode(10);
      scope->SetDelayMs(kDelayMs);
      scope->AdoptTimeBase(*app_);
      scope->StartPolling();
      server_->AddScope(scope.get());
      display_.push_back(scope.get());
      owned_.push_back(std::move(scope));
    }
    if (!server_->Listen(0)) {
      Die("server: Listen failed");
    }
    std::string ready = "READY";
    AppendKeyValue(ready, "port", server_->port());
    AppendKeyValue(ready, "construct_ns", static_cast<double>(construct_ns));
    AppendKeyValue(ready, "scope_start_ns", static_cast<double>(before + (after - before) / 2));
    WriteLine(report_fd_, ready);

    std::thread control([this] { ControlThread(); });
    loop_.Run();
    control.join();
    return 0;
  }

 private:
  void ControlThread() {
    std::string line;
    while (ReadLine(cmd_fd_, &line, 600'000)) {
      const int64_t control_cpu = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      const bool quit = line == "QUIT";
      loop_.Invoke([this, line, control_cpu] { Handle(line, control_cpu); });
      if (quit) {
        return;
      }
    }
    // The generator went away: shut down rather than linger.
    loop_.Invoke([this] { Handle("QUIT", 0); });
  }

  Snapshot Take(int64_t control_cpu) {
    Snapshot s;
    s.wall_ns = NowNs();
    s.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    s.control_cpu_ns = control_cpu;
    s.loop_cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    const gscope::StreamServer::Stats& st = server_->stats();
    s.tuples = st.tuples.load();
    s.echoed = st.tuples_echoed.load();
    s.echo_dropped = st.echo_dropped.load();
    s.echo_evicted = st.echo_evicted.load();
    s.stage_evals = st.stage_evals.load();
    s.server_dropped_late = st.dropped_late.load();
    for (gscope::Scope* scope : display_) {
      const auto spans = scope->ingest_span_stats();
      const auto buf = scope->buffer().stats();
      s.scope_dropped += spans.dropped_late + spans.dropped_overflow + buf.dropped_late +
                         buf.dropped_overflow;
      s.coalesced += scope->counters().samples_coalesced;
      s.retained += scope->counters().samples_retained;
    }
    const gscope::TimerStatsAggregate timers = server_->GatherTimerStats();
    s.timer_fired = timers.total.fired;
    s.timer_lost = timers.total.lost;
    s.timer_latency_ns = timers.total.total_latency_ns;
    return s;
  }

  void Handle(const std::string& line, int64_t control_cpu) {
    if (line == "MARK" || line == "LAP") {
      if (line == "MARK") {
        laps_.clear();
      }
      laps_.push_back(Take(control_cpu));
      return;
    }
    if (line == "END" && !laps_.empty()) {
      const Snapshot end = Take(control_cpu);
      const Snapshot mark = laps_.front();
      laps_.push_back(end);
      // Per-lap CPU per tuple; the median lap resists a short burst of
      // interference from other work on the host.
      std::vector<double> per_lap;
      for (size_t i = 1; i < laps_.size(); ++i) {
        const Snapshot& a = laps_[i - 1];
        const Snapshot& b = laps_[i];
        const int64_t cpu = ServerCpuNs(b.process_cpu_ns - a.process_cpu_ns,
                                        {b.control_cpu_ns - a.control_cpu_ns});
        per_lap.push_back(static_cast<double>(cpu) /
                          static_cast<double>(std::max<int64_t>(b.tuples - a.tuples, 1)));
      }
      const gscope::TimerStatsAggregate timers = server_->GatherTimerStats();
      std::string out = "END";
      AppendKeyValue(out, "wall_ns", end.wall_ns - mark.wall_ns);
      AppendKeyValue(out, "server_cpu_ns_per_tuple_lap_median", Median(per_lap));
      AppendKeyValue(out, "loop_cpu_ns", end.loop_cpu_ns - mark.loop_cpu_ns);
      AppendKeyValue(out, "tuples", end.tuples - mark.tuples);
      AppendKeyValue(out, "echoed", end.echoed - mark.echoed);
      AppendKeyValue(out, "echo_loss", (end.echo_dropped - mark.echo_dropped) +
                                           (end.echo_evicted - mark.echo_evicted));
      AppendKeyValue(out, "stage_evals", end.stage_evals - mark.stage_evals);
      AppendKeyValue(out, "server_dropped_late", end.server_dropped_late - mark.server_dropped_late);
      AppendKeyValue(out, "scope_dropped", end.scope_dropped - mark.scope_dropped);
      AppendKeyValue(out, "display_scopes", static_cast<double>(display_.size()));
      AppendKeyValue(out, "coalesced", end.coalesced - mark.coalesced);
      AppendKeyValue(out, "retained", end.retained - mark.retained);
      AppendKeyValue(out, "timer_fired", end.timer_fired - mark.timer_fired);
      AppendKeyValue(out, "timer_lost", end.timer_lost - mark.timer_lost);
      AppendKeyValue(out, "timer_latency_ns", end.timer_latency_ns - mark.timer_latency_ns);
      AppendKeyValue(out, "timer_max_latency_ns", static_cast<double>(timers.total.max_latency_ns));
      AppendKeyValue(out, "fanout_workers", static_cast<double>(server_->router().fanout_worker_count()));
      AppendKeyValue(out, "rss_kb", static_cast<double>(PeakRssKb()));
      WriteLine(report_fd_, out);
      return;
    }
    if (line.rfind("CHECK ", 0) == 0) {
      Check(std::strtoll(line.c_str() + 6, nullptr, 10));
      return;
    }
    if (line == "QUIT") {
      server_->Close();
      loop_.Quit();
    }
  }

  // Every display scope must show, per signal, the last value sent.  A
  // scope that late-dropped samples is reported, not judged.
  void Check(int64_t sent) {
    double last[kSignals];
    bool have[kSignals] = {};
    int found = 0;
    for (int64_t seq = sent - 1; seq >= 0 && found < kSignals; --seq) {
      const int s = gen_.Signal(seq);
      if (!have[s]) {
        have[s] = true;
        last[s] = gen_.Value(seq);
        ++found;
      }
    }
    int64_t checked = 0, mismatches = 0, unjudged = 0;
    for (gscope::Scope* scope : display_) {
      const auto spans = scope->ingest_span_stats();
      const bool dropped = spans.dropped_late + spans.dropped_overflow +
                               scope->buffer().stats().dropped_late +
                               scope->buffer().stats().dropped_overflow > 0;
      for (int s = 0; s < kSignals; ++s) {
        if (!have[s]) {
          continue;
        }
        const std::optional<double> v = scope->LatestValue(scope->FindSignal(SignalName(s)));
        ++checked;
        if (!v.has_value() || *v != last[s]) {
          (dropped ? unjudged : mismatches) += 1;
        }
      }
    }
    std::string out = "CHECK";
    AppendKeyValue(out, "checked", static_cast<double>(checked));
    AppendKeyValue(out, "mismatches", static_cast<double>(mismatches));
    AppendKeyValue(out, "unjudged", static_cast<double>(unjudged));
    WriteLine(report_fd_, out);
  }

  const Workload& workload_;
  Gen gen_;
  int cmd_fd_;
  int report_fd_;
  gscope::MainLoop loop_;
  std::unique_ptr<gscope::Scope> app_;
  std::vector<std::unique_ptr<gscope::Scope>> owned_;
  std::vector<gscope::Scope*> display_;
  std::unique_ptr<gscope::StreamServer> server_;
  std::vector<Snapshot> laps_;  // MARK, each LAP, END
};

}  // namespace

int RunServerProcess(const Workload& workload, uint64_t seed, int cmd_fd, int report_fd) {
  ServerProcess process(workload, seed, cmd_fd, report_fd);
  return process.Run();
}

}  // namespace scopebench
