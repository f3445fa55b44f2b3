// Fan-out scaling measurement: tuple streaming throughput as the number of
// display scopes grows.  The paper's server "displays these BUFFER signals
// to one or more scopes"; this bench quantifies what each additional scope
// costs the ingest path.  With the signal-routed bus the per-tuple
// work is parse + one shared-block append, and each scope costs one O(1)
// span hand-off per chunk - so tuples/cpu-sec should stay near-flat from 1
// to 64 scopes instead of degrading ~linearly.
//
// Methodology matches bench_net_stream (BENCH_ingest.json): loopback
// clients on one I/O-driven loop, 128 tuples per client per idle round,
// CPU-second rates as the primary metric on shared hosts.  Usage:
//   bench_fanout [total_tuples]   (default 100000; smoke runs pass less)
#include <ctime>
#include <cstdio>
#include <cstdlib>

#include "gscope.h"

namespace {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct FanoutRunResult {
  int64_t tuples_received = 0;
  int64_t dropped_late = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double tuples_per_sec() const { return seconds > 0 ? tuples_received / seconds : 0; }
  double tuples_per_cpu_sec() const {
    return cpu_seconds > 0 ? tuples_received / cpu_seconds : 0;
  }
};

FanoutRunResult RunFanout(int num_scopes, int clients, int tuples_per_client,
                          int64_t delay_ms) {
  gscope::MainLoop loop;

  std::vector<std::unique_ptr<gscope::Scope>> scopes;
  for (int i = 0; i < num_scopes; ++i) {
    scopes.push_back(std::make_unique<gscope::Scope>(
        &loop, gscope::ScopeOptions{.name = "sink" + std::to_string(i), .width = 128}));
    scopes.back()->SetPollingMode(5);
    scopes.back()->SetDelayMs(delay_ms);
  }

  gscope::StreamServer server(&loop, scopes.front().get());
  for (int i = 1; i < num_scopes; ++i) {
    server.AddScope(scopes[static_cast<size_t>(i)].get());
  }
  if (!server.Listen(0)) {
    return {};
  }
  for (auto& scope : scopes) {
    scope->StartPolling();
  }
  gscope::Scope& lead = *scopes.front();

  std::vector<std::unique_ptr<gscope::StreamClient>> conns;
  for (int i = 0; i < clients; ++i) {
    conns.push_back(std::make_unique<gscope::StreamClient>(&loop, 16u << 20));
    if (!conns.back()->Connect(server.port())) {
      return {};
    }
  }

  gscope::SteadyClock clock;
  gscope::Nanos start = clock.NowNs();
  double cpu_start = ProcessCpuSeconds();

  // Feed from a loop source so everything stays single-threaded I/O driven;
  // batches per idle round stress the per-tuple ingest + fan-out path.
  constexpr int kBatch = 128;
  std::vector<std::string> names;
  for (int c = 0; c < clients; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  int sent_rounds = 0;
  loop.AddIdle([&]() {
    if (sent_rounds >= tuples_per_client) {
      return false;
    }
    int batch = std::min(kBatch, tuples_per_client - sent_rounds);
    int64_t now = lead.NowMs();
    for (int c = 0; c < clients; ++c) {
      for (int b = 0; b < batch; ++b) {
        conns[static_cast<size_t>(c)]->SendTuple(
            {now, static_cast<double>(sent_rounds + b), names[static_cast<size_t>(c)]});
      }
    }
    sent_rounds += batch;
    return true;
  });

  int64_t total_expected = static_cast<int64_t>(clients) * tuples_per_client;
  gscope::Nanos deadline = clock.NowNs() + gscope::MillisToNanos(30'000);
  while (clock.NowNs() < deadline) {
    loop.Iterate(false);
    if (sent_rounds >= tuples_per_client &&
        server.stats().tuples + server.stats().parse_errors >= total_expected) {
      break;
    }
  }

  FanoutRunResult result;
  result.tuples_received = server.stats().tuples;
  result.dropped_late = server.stats().dropped_late;
  result.seconds = gscope::NanosToSeconds(clock.NowNs() - start);
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int total = 100'000;
  if (argc > 1) {
    total = std::atoi(argv[1]);
    if (total <= 0) {
      total = 100'000;
    }
  }
  constexpr int kClients = 4;
  std::printf("Fan-out scaling: %d loopback clients, %d tuples total, delay 50 ms\n\n", kClients,
              total);
  std::printf("%-8s %-12s %-14s %-16s %-14s %-12s\n", "scopes", "received", "tuples/sec",
              "tuples/cpu-sec", "per-scope-cpu", "dropped late");
  for (int num_scopes : {1, 4, 16, 64}) {
    FanoutRunResult r = RunFanout(num_scopes, kClients, total / kClients, /*delay_ms=*/50);
    std::printf("%-8d %-12lld %-14.0f %-16.0f %-14.0f %-12lld\n", num_scopes,
                (long long)r.tuples_received, r.tuples_per_sec(), r.tuples_per_cpu_sec(),
                r.tuples_per_cpu_sec() * num_scopes, (long long)r.dropped_late);
  }
  std::printf("\npaper behaviour: the server displays BUFFER signals to one or more\n"
              "scopes; ingest cost should scale with the batch, not batch x scopes.\n");
  return 0;
}
