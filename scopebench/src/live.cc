// The live run: an open-loop producer thread and one viewer thread (all
// viewer connections on one MainLoop) against the server process.  Every
// echoed tuple is checked against the generator; lag is measured against
// the sample's display deadline on the shared steady clock.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "common.h"
#include "harness_math.h"
#include "net/control_client.h"
#include "net/stream_client.h"
#include "record/extent_log.h"
#include "scopebench.h"

namespace scopebench {
namespace {

constexpr int kSetupRounds = 5;
constexpr int64_t kTailMs = 300;           // producer keeps sending past the window
constexpr int64_t kReplayAgeMs = 250;      // replay windows end this far behind "now"
constexpr int kMaxProblems = 8;
constexpr int64_t kProbeCloseMs = 250;
constexpr int64_t kSteadyPollMs = 10;     // viewer thread's poll once set up

// The deterministic part of one run: which seqs exist, which fall in the
// measured window, and each seq's signal and per-signal position.
struct Plan {
  const Workload* workload = nullptr;
  Gen gen;
  int64_t rate = 0;
  int64_t window_lo = 0;  // first measured seq
  int64_t window_hi = 0;  // one past the last measured seq
  int64_t total = 0;      // seqs the producer sends
  std::vector<uint8_t> sig;
  std::vector<uint32_t> sigpos;  // index of the seq among its signal's samples
  int64_t scope_start_ns = 0;    // the server's scope axis zero (per round)
  std::atomic<int64_t> t0_ns{0}; // the producer's schedule origin (per round)

  int64_t Stamp(int64_t seq) const {
    return (DueNs(t0_ns.load(std::memory_order_acquire), seq, rate) - scope_start_ns) /
           kNanosPerMs;
  }
  // First seq whose stamp is >= ms (Stamp is monotone in seq).
  int64_t FirstSeqAtStamp(int64_t ms) const {
    int64_t lo = 0, hi = total;
    while (lo < hi) {
      int64_t mid = (lo + hi) / 2;
      if (Stamp(mid) < ms) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

// Why a run is not correct: the viewer thread records, the main thread adds
// its own verdicts after joining it.
struct Problems {
  std::vector<std::string> lines;
  int64_t count = 0;
  void Add(std::string line) {
    ++count;
    if (lines.size() < kMaxProblems) {
      lines.push_back(std::move(line));
    }
  }
};

// ---- server process ----------------------------------------------------------

class ServerChild {
 public:
  ~ServerChild() { Kill(); }

  void Spawn(const RunConfig& config, KeyValues* ready) {
    int cmd[2], report[2];
    if (pipe(cmd) != 0 || pipe(report) != 0) {
      Die("pipe failed");
    }
    const std::string seed = std::to_string(config.seed);
    const std::string cmd_fd = std::to_string(cmd[0]);
    const std::string report_fd = std::to_string(report[1]);
    pid_ = fork();
    if (pid_ < 0) {
      Die("fork failed");
    }
    if (pid_ == 0) {
      close(cmd[1]);
      close(report[0]);
      execl(config.self_exe.c_str(), config.self_exe.c_str(), "--serve", config.workload->name,
            "--seed", seed.c_str(), "--cmd-fd", cmd_fd.c_str(), "--report-fd", report_fd.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    SetServerPid(pid_);
    close(cmd[0]);
    close(report[1]);
    cmd_fd_ = cmd[1];
    report_fd_ = report[0];
    *ready = Expect("READY", 30'000);
  }

  void Send(const std::string& line) {
    if (!WriteLine(cmd_fd_, line)) {
      Die("server process stopped taking commands (%s)", line.c_str());
    }
  }

  KeyValues Expect(const std::string& tag, int timeout_ms) {
    std::string line;
    if (!ReadLine(report_fd_, &line, timeout_ms) || line.rfind(tag, 0) != 0) {
      Die("server process: expected %s, got '%s'", tag.c_str(), line.c_str());
    }
    return ParseKeyValues(std::string_view(line).substr(tag.size()));
  }

  void Quit() {
    if (pid_ <= 0) {
      return;
    }
    Send("QUIT");
    int status = 0;
    const int64_t deadline = NowNs() + 10'000 * kNanosPerMs;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        Die("server process did not exit");
      }
      usleep(2000);
    }
    pid_ = -1;
    SetServerPid(0);
    CloseFds();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Die("server process failed (status %d)", status);
    }
  }

 private:
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
      SetServerPid(0);
    }
    CloseFds();
  }
  void CloseFds() {
    if (cmd_fd_ >= 0) {
      close(cmd_fd_);
    }
    if (report_fd_ >= 0) {
      close(report_fd_);
    }
    cmd_fd_ = report_fd_ = -1;
  }

  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int report_fd_ = -1;
};

// Runs `fn` on `loop`'s thread and waits for it.
void RunOn(gscope::MainLoop& loop, const std::function<void()>& fn) {
  std::promise<void> done;
  loop.Invoke([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

// ---- producer ----------------------------------------------------------------

class Producer {
 public:
  Producer(Plan& plan, uint16_t port) : plan_(plan), port_(port) {
    late_ms_.reserve(static_cast<size_t>(plan.window_hi - plan.window_lo));
    thread_ = std::thread([this] { Body(); });
  }
  ~Producer() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      while (!loop_ready_.load()) {
        usleep(100);
      }
      loop_->Invoke([this] { loop_->Quit(); });
      thread_.join();
    }
  }
  pthread_t native() { return thread_.native_handle(); }
  int64_t sent() const { return next_.load(); }
  int64_t send_failures() const { return send_failures_.load(); }
  // Valid after Stop().
  std::vector<float>& late_ms() { return late_ms_; }
  bool failed_to_start() const { return start_failed_.load(); }

 private:
  void Body() {
    gscope::MainLoop loop;
    gscope::StreamClient::Options options;
    options.wire_format = plan_.workload->binary ? gscope::WireFormat::kBinary
                                                 : gscope::WireFormat::kText;
    gscope::StreamClient client(&loop, options);
    loop_ = &loop;
    loop_ready_.store(true);
    client.Connect(port_);
    const int64_t deadline = NowNs() + 10'000 * kNanosPerMs;
    while (!client.connected() || (plan_.workload->binary && !client.wire_binary())) {
      if (NowNs() > deadline) {
        start_failed_.store(true);
        loop.Run();  // until Stop()
        return;
      }
      loop.RunForMs(1);
    }
    const int64_t t0 = NowNs() + 2 * kNanosPerMs;
    plan_.t0_ns.store(t0, std::memory_order_release);
    loop.AddTimeoutNs(kNanosPerMs, [&](const gscope::TimeoutTick&) {
      const int64_t now = NowNs();
      int64_t seq = next_.load(std::memory_order_relaxed);
      while (seq < plan_.total && DueNs(t0, seq, plan_.rate) <= now) {
        const int s = plan_.sig[static_cast<size_t>(seq)];
        if (!client.Send(plan_.Stamp(seq), plan_.gen.Value(seq), SignalName(s))) {
          send_failures_.fetch_add(1, std::memory_order_relaxed);
        }
        if (seq >= plan_.window_lo && seq < plan_.window_hi) {
          late_ms_.push_back(static_cast<float>(LatenessMs(now, DueNs(t0, seq, plan_.rate))));
        }
        ++seq;
      }
      next_.store(seq, std::memory_order_release);
      return seq < plan_.total;
    });
    loop.Run();
    client.Close();
  }

  Plan& plan_;
  uint16_t port_;
  std::vector<float> late_ms_;
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> send_failures_{0};
  std::atomic<bool> loop_ready_{false};
  std::atomic<bool> start_failed_{false};
  gscope::MainLoop* loop_ = nullptr;
  std::thread thread_;
};

// ---- viewers -----------------------------------------------------------------

enum class Role {
  kAll,         // SUB *, every-sample echo
  kSig00,       // SUB sig00, raw echo (the 1/64 latency probe)
  kDecimate,    // SUB * + DECIMATE 10 (shared stage group)
  kReplay,      // SUB sig00 + COALESCE; owns RECORD and issues REPLAYs
  kEarlyProbe,  // binary client that subscribes before HELLO is acknowledged
};

bool IsLatencyTarget(Role role) {
  return role == Role::kAll || role == Role::kSig00 || role == Role::kDecimate;
}

struct Viewer {
  Role role = Role::kAll;
  std::unique_ptr<gscope::ControlClient> client;
  int64_t commands = 0;  // OK replies expected before the viewer counts as subscribed
  bool sent = false;
  bool subscribed = false;
  bool first_echo = false;
  std::vector<uint64_t> seen;  // bitset over seqs (duplicate detection)
  int64_t decoded = 0;         // measured seqs decoded
  int64_t past_limit = 0;      // ... more than kLateLimitMs after the deadline
  int64_t last_pos[kSignals];  // DECIMATE: per-signal position of the last output
  int64_t phase_errors = 0;    // decimated output off the every-10th grid
  // REPLAY state (kReplay).
  std::vector<int64_t> replay_due_ns;
  size_t replay_next = 0;
  bool replay_pending = false;
  bool replay_open = false;
  int64_t replay_sent_ns = 0;
  int64_t replay_t0 = 0;
  int64_t replay_t1 = 0;
  std::vector<int64_t> replay_got;
  // STATS snapshots (kReplay), in request order.
  std::vector<KeyValues> stats;
  // Early-subscribe probe (kEarlyProbe): decoded seqs below probe_limit.
  int64_t probe_decoded = 0;
};

class Viewers {
 public:
  Viewers(Plan& plan, const RunConfig& config, uint16_t port, bool early_probe)
      : plan_(plan), port_(port) {
    record_path_ = config.scratch_dir + "/record-" + std::to_string(getpid()) + ".log";
    // The probe closes kProbeCloseMs before the measured window (so its
    // session's timers are gone before the window's counters start) and is
    // judged on samples whose deadline passed well before that.
    probe_limit_ = std::max<int64_t>(plan.window_lo - plan.rate * 2 * kProbeCloseMs / 1000, 0);
    if (early_probe) {
      roles_.push_back(Role::kEarlyProbe);
    }
    switch (plan.workload->id) {
      case WorkloadId::kTextEcho:
        roles_.insert(roles_.end(), {Role::kAll, Role::kAll});
        break;
      case WorkloadId::kBinaryFanout:
        roles_.push_back(Role::kSig00);
        break;
      case WorkloadId::kBinaryStageRecord:
        roles_.insert(roles_.end(), {Role::kDecimate, Role::kDecimate, Role::kReplay});
        break;
    }
    thread_ = std::thread([this] { Body(); });
  }
  ~Viewers() {
    Stop();
    unlink(record_path_.c_str());
  }

  void Stop() {
    if (thread_.joinable()) {
      while (!loop_ready_.load()) {
        usleep(100);
      }
      loop_->Invoke([this] {
        for (Viewer& v : viewers_) {
          v.client->Close();
        }
        loop_->Quit();
      });
      thread_.join();
    }
  }

  pthread_t native() { return thread_.native_handle(); }
  bool subscribed() const { return subscribed_.load(); }
  int64_t all_first_echo_ns() const { return first_echo_ns_.load(); }
  bool aborted() const { return aborted_.load(); }

  // Schedules the REPLAY viewer's queries inside [from_ns, to_ns).
  void ScheduleReplays(int64_t from_ns, int64_t to_ns) {
    RunOn(*loop_, [&] {
      Viewer* r = Find(Role::kReplay);
      if (r == nullptr) {
        return;
      }
      int64_t t = from_ns;
      for (int64_t k = 0; t < to_ns; ++k) {
        r->replay_due_ns.push_back(t);
        t += plan_.gen.Draw(1, k, 1500, 2500) * kNanosPerMs;
      }
    });
  }
  void RequestStats() {
    RunOn(*loop_, [&] {
      if (Viewer* r = Find(Role::kReplay)) {
        r->client->RequestStats();
      }
    });
  }
  // Ends the early-subscribe probe; returns its delivered fraction.
  double CloseProbe() {
    double fraction = 0.0;
    RunOn(*loop_, [&] {
      Viewer* p = Find(Role::kEarlyProbe);
      if (p == nullptr) {
        return;
      }
      p->client->Close();
      const int64_t limit = probe_limit_;
      int64_t expected = 0;
      for (int64_t seq = 0; seq < limit; ++seq) {
        expected += plan_.sig[static_cast<size_t>(seq)] == 0;
      }
      fraction = expected == 0 ? 0.0 : static_cast<double>(p->probe_decoded) / expected;
    });
    return fraction;
  }

  // Valid after Stop().
  std::vector<Viewer>& viewers() { return viewers_; }
  std::vector<double>& lags() { return lags_; }
  std::vector<double>& replay_ms() { return replay_ms_; }
  int64_t replay_checked() const { return replay_checked_; }
  int64_t replay_missing() const { return replay_missing_; }
  Problems& problems() { return problems_; }

 private:
  Viewer* Find(Role role) {
    for (Viewer& v : viewers_) {
      if (v.role == role) {
        return &v;
      }
    }
    return nullptr;
  }

  void AddViewer(Role role) {
    Viewer& v = viewers_.emplace_back();
    v.role = role;
    v.seen.assign(static_cast<size_t>(plan_.total / 64 + 1), 0);
    std::fill(std::begin(v.last_pos), std::end(v.last_pos), -kDecimate);
    gscope::ControlClientOptions options;
    options.wire_format = plan_.workload->binary || role == Role::kEarlyProbe ||
                                  role == Role::kReplay
                              ? gscope::WireFormat::kBinary
                              : gscope::WireFormat::kText;
    v.client = std::make_unique<gscope::ControlClient>(loop_, options);
    const size_t index = viewers_.size() - 1;
    v.client->SetTupleCallback(
        [this, index](const gscope::TupleView& t) { OnTuple(viewers_[index], t); });
    v.client->SetReplyCallback(
        [this, index](std::string_view line) { OnReply(viewers_[index], line); });
    v.client->Connect(port_);
    if (role == Role::kEarlyProbe) {
      // The defect this probe reports: verbs queued before "OK HELLO BIN 1".
      v.client->SetDelay(kDelayMs);
      v.client->Subscribe("sig00");
      v.sent = true;
    }
  }

  void Body() {
    gscope::MainLoop loop;
    loop_ = &loop;
    viewers_.reserve(roles_.size() + 1);  // callbacks index into viewers_
    for (Role role : roles_) {
      AddViewer(role);
    }
    loop_ready_.store(true);
    // Set-up polls every 1 ms (it is timed); once every viewer is
    // subscribed, a 10 ms poll keeps the harness's own wake-ups off the
    // host's CPUs during the run.
    loop.AddTimeoutMs(1, [this, &loop](const gscope::TimeoutTick&) {
      Poll();
      if (!subscribed_.load()) {
        return true;
      }
      loop.AddTimeoutMs(kSteadyPollMs, [this](const gscope::TimeoutTick&) {
        Poll();
        return true;
      });
      return false;
    });
    loop.Run();
    // The clients must not outlive their loop; their tallies stay behind.
    for (Viewer& v : viewers_) {
      v.client.reset();
    }
  }

  void SendCommands(Viewer& v) {
    gscope::ControlClient& c = *v.client;
    c.SetDelay(kDelayMs);
    switch (v.role) {
      case Role::kAll:
        c.Subscribe("*");
        v.commands = 2;
        break;
      case Role::kSig00:
        c.Subscribe("sig00");
        v.commands = 2;
        break;
      case Role::kDecimate:
        c.Subscribe("*");
        c.Stage("DECIMATE " + std::to_string(kDecimate));
        v.commands = 3;
        break;
      case Role::kReplay:
        c.Subscribe("sig00");
        c.Stage("COALESCE");
        c.Record(record_path_);
        v.commands = 4;
        break;
      case Role::kEarlyProbe:
        break;
    }
    v.sent = true;
  }

  void Poll() {
    const int64_t now = NowNs();
    bool all_subscribed = true;
    for (Viewer& v : viewers_) {
      if (v.role == Role::kEarlyProbe) {
        continue;
      }
      gscope::ControlClient& c = *v.client;
      if (!v.sent && c.connected() &&
          (c.wire_binary() || (!plan_.workload->binary && v.role != Role::kReplay))) {
        // Binary viewers wait for the HELLO acknowledgement, as the
        // repository's tests do, before issuing verbs.
        SendCommands(v);
      }
      if (c.stats().replies_err > 0 && !aborted_.load()) {
        problems_.Add("viewer got an ERR reply");
        aborted_.store(true);
      }
      if (v.sent && !v.subscribed && c.stats().replies_ok >= v.commands) {
        v.subscribed = true;
      }
      all_subscribed = all_subscribed && v.subscribed;
      if (v.role == Role::kReplay) {
        PollReplay(v, now);
      }
    }
    if (all_subscribed) {
      subscribed_.store(true);
    }
  }

  void PollReplay(Viewer& v, int64_t now) {
    if (v.replay_pending || v.replay_next >= v.replay_due_ns.size() ||
        now < v.replay_due_ns[v.replay_next]) {
      return;
    }
    const int64_t scope_now = (now - plan_.scope_start_ns) / kNanosPerMs;
    v.replay_t1 = scope_now - kReplayAgeMs;
    v.replay_t0 = v.replay_t1 - plan_.gen.Draw(2, static_cast<int64_t>(v.replay_next), 50, 150);
    v.replay_pending = true;
    v.replay_sent_ns = now;
    v.client->Replay(v.replay_t0, v.replay_t1);
    ++v.replay_next;
  }

  void OnReply(Viewer& v, std::string_view line) {
    if (v.role != Role::kReplay) {
      return;
    }
    if (line.rfind("OK REPLAY ", 0) == 0) {
      v.replay_open = true;
      v.replay_got.clear();
    } else if (line.rfind("INFO REPLAY DONE", 0) == 0) {
      replay_ms_.push_back(static_cast<double>(NowNs() - v.replay_sent_ns) / kNanosPerMs);
      v.replay_open = false;
      v.replay_pending = false;
      CheckReplay(v);
    } else if (line.rfind("OK STATS ", 0) == 0) {
      v.stats.push_back(ParseKeyValues(line.substr(9)));
    }
  }

  // The replayed window must equal what the recorder captured for it: the
  // sig00 records of the log's [t0, t1] window, read back from the file
  // right after the reply, in the same order.  Every captured record must
  // be a sent sample, each once.  Sent samples the capture lacks are the
  // recorder's loss (README, "Known defects"), reported as
  // record.replay_missing rather than as a wrong answer.
  void CheckReplay(Viewer& v) {
    char window_text[64];
    std::snprintf(window_text, sizeof(window_text), "REPLAY [%lld, %lld]",
                  static_cast<long long>(v.replay_t0), static_cast<long long>(v.replay_t1));
    gscope::ExtentReader reader;
    std::vector<gscope::ReplayRecord> records;
    if (!reader.Open(record_path_) || !reader.ReadWindow(v.replay_t0, v.replay_t1, &records)) {
      problems_.Add(std::string(window_text) + ": the RECORD log cannot be read back");
      return;
    }
    std::vector<int64_t> captured;
    for (const gscope::ReplayRecord& r : records) {
      if (reader.names()[r.name] != SignalName(0)) {
        continue;
      }
      const int64_t seq = Gen::SeqOf(r.value);
      if (seq < 0 || seq >= plan_.total || plan_.sig[static_cast<size_t>(seq)] != 0 ||
          plan_.gen.Value(seq) != r.value || plan_.Stamp(seq) != r.time_ms ||
          (!captured.empty() && seq <= captured.back())) {
        problems_.Add(std::string(window_text) +
                      ": the RECORD log holds a sample not sent, or one twice or out of order");
        return;
      }
      captured.push_back(seq);
    }
    if (captured != v.replay_got) {
      problems_.Add(std::string(window_text) + " returned " +
                    std::to_string(v.replay_got.size()) + " samples; the log holds " +
                    std::to_string(captured.size()) + " other or different ones");
      return;
    }
    int64_t sent = 0;
    const int64_t from = plan_.FirstSeqAtStamp(v.replay_t0);
    const int64_t to = plan_.FirstSeqAtStamp(v.replay_t1 + 1);
    for (int64_t seq = from; seq < to; ++seq) {
      sent += plan_.sig[static_cast<size_t>(seq)] == 0;
    }
    replay_checked_ += static_cast<int64_t>(captured.size());
    replay_missing_ += sent - static_cast<int64_t>(captured.size());
  }

  void OnTuple(Viewer& v, const gscope::TupleView& t) {
    const int64_t now = NowNs();
    const int64_t seq = Gen::SeqOf(t.value);
    if (seq < 0 || seq >= plan_.total || plan_.gen.Value(seq) != t.value ||
        t.name != SignalName(plan_.sig[static_cast<size_t>(seq)]) ||
        t.time_ms != plan_.Stamp(seq)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "echo (%.*s, %lld, %.17g) matches no sent sample",
                    static_cast<int>(t.name.size()), t.name.data(),
                    static_cast<long long>(t.time_ms), t.value);
      problems_.Add(buf);
      return;
    }
    const int s = plan_.sig[static_cast<size_t>(seq)];
    switch (v.role) {
      case Role::kReplay:
        if (v.replay_open) {
          v.replay_got.push_back(seq);
        } else if (s != 0) {
          problems_.Add("live echo outside the SUB sig00 filter");
        }
        MarkFirstEcho(v, now);
        return;
      case Role::kEarlyProbe:
        v.probe_decoded += seq < probe_limit_ && s == 0;
        return;
      case Role::kSig00:
        if (s != 0) {
          problems_.Add("echo outside the SUB sig00 filter");
          return;
        }
        break;
      case Role::kDecimate: {
        const int64_t pos = plan_.sigpos[static_cast<size_t>(seq)];
        const int64_t want = v.last_pos[s] + kDecimate;
        // A skipped grid point is a lost delivery, counted as a miss.
        if (pos % kDecimate != 0 || pos < want) {
          ++v.phase_errors;
        }
        v.last_pos[s] = pos;
        break;
      }
      case Role::kAll:
        break;
    }
    uint64_t& word = v.seen[static_cast<size_t>(seq / 64)];
    const uint64_t bit = uint64_t{1} << (seq % 64);
    if ((word & bit) != 0) {
      problems_.Add("duplicate echo");
      return;
    }
    word |= bit;
    MarkFirstEcho(v, now);
    if (seq >= plan_.window_lo && seq < plan_.window_hi) {
      ++v.decoded;
      const double lag = LagMs(now, plan_.scope_start_ns, t.time_ms, kDelayMs);
      lags_.push_back(lag);
      v.past_limit += lag > kLateLimitMs;
    }
  }

  void MarkFirstEcho(Viewer& v, int64_t now) {
    if (v.first_echo) {
      return;
    }
    v.first_echo = true;
    for (const Viewer& other : viewers_) {
      if (other.role != Role::kEarlyProbe && !other.first_echo) {
        return;
      }
    }
    first_echo_ns_.store(now);
  }

  Plan& plan_;
  uint16_t port_;
  std::string record_path_;
  std::vector<Role> roles_;
  std::vector<Viewer> viewers_;
  std::vector<double> lags_;
  std::vector<double> replay_ms_;
  int64_t replay_checked_ = 0;
  int64_t replay_missing_ = 0;
  Problems problems_;
  int64_t probe_limit_ = 0;
  gscope::MainLoop* loop_ = nullptr;
  std::atomic<bool> loop_ready_{false};
  std::atomic<bool> subscribed_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<int64_t> first_echo_ns_{0};
  std::thread thread_;
};

template <typename Pred>
void WaitFor(Pred pred, int64_t timeout_ms, const char* what) {
  const int64_t deadline = NowNs() + timeout_ms * kNanosPerMs;
  while (!pred()) {
    if (NowNs() > deadline) {
      Die("timed out waiting for %s", what);
    }
    usleep(200);
  }
}

}  // namespace

LiveResult RunLive(const RunConfig& config) {
  const Workload& w = *config.workload;
  Plan plan;
  plan.workload = &w;
  plan.gen.seed = config.seed;
  plan.rate = w.rate;
  plan.window_lo = w.rate * kWarmupMs / 1000;
  plan.window_hi = plan.window_lo + w.rate * config.seconds;
  plan.total = plan.window_hi + w.rate * kTailMs / 1000;
  plan.sig.resize(static_cast<size_t>(plan.total));
  plan.sigpos.resize(static_cast<size_t>(plan.total));
  {
    uint32_t count[kSignals] = {};
    for (int64_t seq = 0; seq < plan.total; ++seq) {
      const int s = plan.gen.Signal(seq);
      plan.sig[static_cast<size_t>(seq)] = static_cast<uint8_t>(s);
      plan.sigpos[static_cast<size_t>(seq)] = count[s]++;
    }
  }

  LiveResult result;
  std::vector<double> setup_s;
  const int rounds = config.trace ? 1 : kSetupRounds;
  ServerChild child;
  std::unique_ptr<Viewers> viewers;
  std::unique_ptr<Producer> producer;
  for (int round = 0; round < rounds; ++round) {
    KeyValues ready;
    child.Spawn(config, &ready);
    plan.scope_start_ns = static_cast<int64_t>(ready["scope_start_ns"]);
    plan.t0_ns.store(0);
    const uint16_t port = static_cast<uint16_t>(ready["port"]);
    viewers = std::make_unique<Viewers>(plan, config, port, config.trace);
    WaitFor([&] { return viewers->subscribed() || viewers->aborted(); }, 20'000, "subscriptions");
    if (viewers->aborted()) {
      Die("viewer set-up failed: a verb was answered with ERR");
    }
    producer = std::make_unique<Producer>(plan, port);
    WaitFor([&] { return viewers->all_first_echo_ns() != 0 || producer->failed_to_start(); },
            20'000, "the first echo at every viewer");
    if (producer->failed_to_start()) {
      Die("producer could not connect");
    }
    setup_s.push_back(static_cast<double>(viewers->all_first_echo_ns() -
                                          static_cast<int64_t>(ready["construct_ns"])) /
                      1e9);
    if (round + 1 < rounds) {
      producer.reset();
      viewers.reset();
      child.Quit();
    }
  }

  const int64_t t0 = plan.t0_ns.load();
  const int64_t mark_ns = DueNs(t0, plan.window_lo, plan.rate);
  const int64_t end_ns = DueNs(t0, plan.window_hi, plan.rate);
  if (w.record) {
    viewers->ScheduleReplays(mark_ns + kReplayAgeMs * kNanosPerMs, end_ns - 100 * kNanosPerMs);
  }
  double early_sub = 0.0;
  if (config.trace) {
    SleepUntilNs(mark_ns - kProbeCloseMs * kNanosPerMs);
    early_sub = viewers->CloseProbe();
  }
  SleepUntilNs(mark_ns);
  child.Send("MARK");
  const int64_t producer_cpu0 = ThreadCpuNs(producer->native());
  const int64_t viewer_cpu0 = ThreadCpuNs(viewers->native());
  viewers->RequestStats();
  // One-second laps: CPU per tuple is the median lap's (the server process
  // keeps its own laps on the same LAP commands).
  std::vector<double> producer_laps;
  int64_t lap_cpu = producer_cpu0;
  for (int64_t k = 1; k <= config.seconds; ++k) {
    SleepUntilNs(k == config.seconds ? end_ns : mark_ns + k * 1'000'000'000);
    child.Send(k == config.seconds ? "END" : "LAP");
    const int64_t cpu = ThreadCpuNs(producer->native());
    producer_laps.push_back(static_cast<double>(cpu - lap_cpu) / static_cast<double>(plan.rate));
    lap_cpu = cpu;
  }
  const int64_t viewer_cpu1 = ThreadCpuNs(viewers->native());
  KeyValues end = child.Expect("END", 10'000);
  viewers->RequestStats();
  SleepUntilNs(DueNs(t0, plan.total, plan.rate) + (kDelayMs + 300) * kNanosPerMs);
  WaitFor([&] { return producer->sent() == plan.total; }, 10'000, "the producer to finish");
  child.Send("CHECK " + std::to_string(plan.total));
  KeyValues check = child.Expect("CHECK", 10'000);
  producer->Stop();
  viewers->Stop();
  child.Quit();

  // ---- verdicts -----------------------------------------------------------
  Problems& problems = viewers->problems();
  if (producer->send_failures() > 0) {
    problems.Add("producer backlog dropped " + std::to_string(producer->send_failures()) +
                 " tuples");
  }
  if (check["mismatches"] > 0) {
    problems.Add("display scope LatestValue differs from the last value sent (" +
                 std::to_string(static_cast<int64_t>(check["mismatches"])) + " signals)");
  }
  DeliveryTally tally;
  int64_t phase_errors = 0, decoded = 0;
  Viewer* replay = nullptr;
  for (Viewer& v : viewers->viewers()) {
    if (v.role == Role::kReplay) {
      replay = &v;
    }
    if (!IsLatencyTarget(v.role)) {
      continue;
    }
    int64_t expected = 0;
    for (int64_t seq = plan.window_lo; seq < plan.window_hi; ++seq) {
      const size_t i = static_cast<size_t>(seq);
      expected += v.role == Role::kAll || (v.role == Role::kSig00 && plan.sig[i] == 0) ||
                  (v.role == Role::kDecimate && plan.sigpos[i] % kDecimate == 0);
    }
    tally.AddViewer(expected, v.decoded, v.past_limit);
    phase_errors += v.phase_errors;
    decoded += v.decoded;
  }
  const int64_t window = plan.window_hi - plan.window_lo;
  const double display_scopes = end["display_scopes"];
  tally.AddDisplayScope(window * static_cast<int64_t>(display_scopes),
                        static_cast<int64_t>(end["scope_dropped"]));
  if (phase_errors > 0) {
    // Off-grid DECIMATE output is wrong unless the server lost samples
    // before the stage (which shifts the grid and is already a miss).
    if (end["server_dropped_late"] == 0) {
      problems.Add("DECIMATE output is not every 10th sample per signal");
    }
  }
  std::vector<double>& lags = viewers->lags();
  std::sort(lags.begin(), lags.end());
  if (SamplesBeyond(lags.size(), 99.0) < 10) {
    problems.Add("fewer than 10 lag samples beyond p99 (" + std::to_string(lags.size()) +
                 " samples)");
  }
  std::vector<double>& replay_ms = viewers->replay_ms();
  std::sort(replay_ms.begin(), replay_ms.end());
  if (w.record && replay_ms.empty()) {
    problems.Add("no REPLAY completed");
  }

  result.problems = problems.lines;
  result.correct = problems.count == 0;
  result.attempted = tally.offered + viewers->replay_checked() +
                     static_cast<int64_t>(check["checked"]);
  result.failed = tally.missed + producer->send_failures();

  const double tuples = std::max(end["tuples"], 1.0);
  result.server_cpu_ns_per_tuple = end["server_cpu_ns_per_tuple_lap_median"];
  result.echo_per_tuple = end["echoed"] / tuples;
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"server_cpu_ns_per_tuple", result.server_cpu_ns_per_tuple, "ns"},
      {"producer_cpu_ns_per_tuple", Median(producer_laps), "ns"},
      {"echo_lag_p50_ms", Percentile(lags, 50.0), "ms"},
      {"deadline_met_frac", 1.0 - tally.MissFrac(), "ratio"},
      {"rss_mb", end["rss_kb"] / 1024.0, "MB"},
  };

  std::vector<float>& late = producer->late_ms();
  std::sort(late.begin(), late.end());
  double capture_bytes = 0.0, extents_dropped = 0.0;
  if (replay != nullptr && replay->stats.size() >= 2) {
    const KeyValues& a = replay->stats[0];
    const KeyValues& b = replay->stats[1];
    const double captured = b.at("samples_captured") - a.at("samples_captured");
    capture_bytes = captured > 0 ? (b.at("capture_bytes") - a.at("capture_bytes")) / captured : 0.0;
    extents_dropped = b.at("extents_dropped") - a.at("extents_dropped");
  }
  const double timer_fired = std::max(end["timer_fired"], 1.0);
  const double coalesce_base = end["coalesced"] + end["retained"];
  result.layers = {
      {"deadline_miss_frac", tally.MissFrac(), "ratio"},
      {"echo_lag_p99_ms", Percentile(lags, 99.0), "ms"},
      {"echo_lag_samples", static_cast<double>(lags.size()), "count"},
      {"gen.late_p99_ms", Percentile(late, 99.0), "ms"},
      {"net.client.viewer_cpu_ns_per_tuple",
       static_cast<double>(viewer_cpu1 - viewer_cpu0) / std::max<double>(decoded, 1.0), "ns"},
      {"net.client.early_sub_delivered", early_sub, "ratio"},
      {"net.server.echo_per_tuple", result.echo_per_tuple, "ratio"},
      {"net.server.stage_evals_per_tuple", end["stage_evals"] / tuples, "ratio"},
      {"runtime.writer.echo_loss", end["echo_loss"], "count"},
      {"core.router.fanout_workers", end["fanout_workers"], "count"},
      {"core.scope.late_drop_frac", end["scope_dropped"] / (tuples * display_scopes), "ratio"},
      {"core.scope.coalesced_frac", coalesce_base > 0 ? end["coalesced"] / coalesce_base : 0.0,
       "ratio"},
      {"runtime.loop.busy_frac", end["loop_cpu_ns"] / std::max(end["wall_ns"], 1.0), "ratio"},
      {"runtime.loop.timer_lag_mean_us", end["timer_latency_ns"] / timer_fired / 1e3, "us"},
      {"runtime.loop.timer_lag_max_ms", end["timer_max_latency_ns"] / 1e6, "ms"},
      {"runtime.loop.lost_tick_frac", end["timer_lost"] / (end["timer_fired"] + end["timer_lost"] + 1e-9),
       "ratio"},
      {"record.capture_bytes_per_tuple", capture_bytes, "bytes"},
      {"record.extents_dropped", extents_dropped, "count"},
      {"record.replay_ms_p50", Percentile(replay_ms, 50.0), "ms"},
      {"record.replay_ms_p99", Percentile(replay_ms, 99.0), "ms"},
      {"record.replay_missing", static_cast<double>(viewers->replay_missing()), "count"},
  };
  std::fprintf(stderr,
               "scopebench: %s seed %llu: %zu lag samples, p99 %.3f ms (%zu beyond; the highest "
               "percentile with 10 beyond is p%.2f); %lld deliveries missed; %zu replays, "
               "%lld samples replayed, %lld sent samples not captured\n",
               w.name, static_cast<unsigned long long>(config.seed), lags.size(),
               Percentile(lags, 99.0), SamplesBeyond(lags.size(), 99.0),
               HighestSupportedPercentile(lags.size()), static_cast<long long>(tally.missed),
               replay_ms.size(), static_cast<long long>(viewers->replay_checked()),
               static_cast<long long>(viewers->replay_missing()));
  return result;
}

}  // namespace scopebench
