// The traced run: spans around calls into each layer's public functions,
// fed by the same seed's generated samples at the workload's rate.  A pass
// replays one second of the workload's input through the wire codecs, the
// router and the workload's scope set (on a simulated clock, so the display
// deadline holds by construction), the egress writer and the extent log.
// Spans cover one chunk each (the samples due in one millisecond, as the
// live producer sends them), are kept in memory, pooled over the traced
// passes and folded at the end.  The same pass without spans gives the
// tracing overhead.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "common.h"
#include "core/ingest_router.h"
#include "core/scope.h"
#include "core/signal_filter.h"
#include "core/tuple.h"
#include "harness_math.h"
#include "net/frame_codec.h"
#include "record/extent_log.h"
#include "runtime/framed_writer.h"
#include "scopebench.h"

namespace scopebench {
namespace {

enum Layer : uint8_t {
  kTextFormat,
  kTextParse,
  kBinEncode,
  kBinDecode,
  kAppendLine,   // IngestRouter::AppendTupleLine (parse included)
  kAppendRoute,  // IngestRouter::AppendRoute
  kFlush,
  kTickHistory,
  kTickCoalesced,
  kWriterCommit,
  kRecordAppend,
  kRecordSeal,
  kReadWindow,
};

struct Span {
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) {
      spans_.reserve(1 << 16);
    }
  }
  int64_t Begin() const { return on_ ? NowNs() : 0; }
  void End(Layer layer, int64_t start) {
    if (on_) {
      spans_.push_back({layer, start, NowNs()});
    }
  }
  double TotalNs(Layer layer) const {
    double total = 0;
    for (const Span& s : spans_) {
      total += s.layer == layer ? static_cast<double>(s.end_ns - s.start_ns) : 0.0;
    }
    return total;
  }
  std::vector<double> Durations(Layer layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.layer == layer) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

struct Sample {
  int signal;
  int64_t stamp_ms;
  double value;
};

class Pass {
 public:
  // Spans of every pass accumulate in `tracer` (a disabled tracer records
  // nothing).
  Pass(const RunConfig& config, const std::vector<Sample>& samples, Tracer& tracer)
      : config_(config), samples_(samples), tracer_(tracer) {}

  int64_t errors() const { return errors_; }

  void Run() {
    const Workload& w = *config_.workload;
    chunk_ = static_cast<size_t>(w.rate / 1000);
    Codecs();
    Pipeline(w);
    Writer();
    Record();
  }

 private:
  void Check(bool ok) { errors_ += ok ? 0 : 1; }

  void Codecs() {
    text_.clear();
    line_end_.clear();
    for (size_t c = 0; c < samples_.size(); c += chunk_) {
      const size_t end = std::min(c + chunk_, samples_.size());
      const int64_t t = tracer_.Begin();
      for (size_t i = c; i < end; ++i) {
        const Sample& s = samples_[i];
        gscope::AppendTuple(text_, s.stamp_ms, s.value, SignalName(s.signal));
        line_end_.push_back(text_.size());
      }
      tracer_.End(kTextFormat, t);
    }
    size_t begin = 0;
    for (size_t c = 0; c < samples_.size(); c += chunk_) {
      const size_t end = std::min(c + chunk_, samples_.size());
      const int64_t t = tracer_.Begin();
      for (size_t i = c; i < end; ++i) {
        std::string_view line(text_.data() + begin, line_end_[i] - begin - 1);
        begin = line_end_[i];
        const auto parsed = gscope::ParseTupleView(line);
        Check(parsed.has_value() && parsed->value == samples_[i].value);
      }
      tracer_.End(kTextParse, t);
    }

    gscope::wire::WireEncoder encoder;
    bin_.clear();
    for (size_t c = 0; c < samples_.size(); c += chunk_) {
      const size_t end = std::min(c + chunk_, samples_.size());
      const int64_t t = tracer_.Begin();
      for (size_t i = c; i < end; ++i) {
        const Sample& s = samples_[i];
        if (encoder.Add(SignalName(s.signal), s.stamp_ms, s.value) ==
            gscope::wire::StageResult::kFrameFull) {
          encoder.EmitFrame(bin_);
          encoder.Add(SignalName(s.signal), s.stamp_ms, s.value);
        }
      }
      encoder.EmitFrame(bin_);
      tracer_.End(kBinEncode, t);
    }

    struct Handler {
      Pass* pass;
      size_t next = 0;
      void OnDictEntry(uint32_t, std::string_view) {}
      void OnTextLine(std::string_view) {}
      void OnSampleBatch(int64_t, const char* records, size_t n) {
        for (size_t k = 0; k < n; ++k) {
          double value;
          std::memcpy(&value, records + k * gscope::wire::kSampleRecordBytes + 8, sizeof(value));
          pass->Check(next < pass->samples_.size() && value == pass->samples_[next].value);
          ++next;
        }
      }
    } handler{this};
    gscope::wire::FrameDecoder decoder;
    constexpr size_t kRead = 16 * 1024;  // one socket read's worth
    for (size_t off = 0; off < bin_.size(); off += kRead) {
      const int64_t t = tracer_.Begin();
      decoder.Consume(bin_.data() + off, std::min(kRead, bin_.size() - off), handler);
      tracer_.End(kBinDecode, t);
    }
    Check(handler.next == samples_.size());
  }

  // Router + the workload's scope set on a simulated clock.
  void Pipeline(const Workload& w) {
    gscope::SimClock clock;
    gscope::MainLoop loop(&clock);
    gscope::IngestRouter router;
    std::vector<std::unique_ptr<gscope::Scope>> display;
    std::vector<std::unique_ptr<gscope::Scope>> history;
    std::vector<std::unique_ptr<gscope::SignalFilter>> filters;
    int64_t tapped = 0;
    const int display_count = 1 + w.display_scopes;  // the app scope + AddScope targets
    const int history_count = w.id == WorkloadId::kTextEcho ? 2 : 1;
    for (int i = 0; i < display_count; ++i) {
      display.push_back(std::make_unique<gscope::Scope>(&loop));
    }
    for (int i = 0; i < history_count; ++i) {
      auto scope = std::make_unique<gscope::Scope>(&loop);
      scope->SetBufferedTap([&tapped](std::string_view, int64_t, double) { ++tapped; });
      history.push_back(std::move(scope));
    }
    for (auto* group : {&display, &history}) {
      for (auto& scope : *group) {
        scope->SetPollingMode(10);
        scope->SetDelayMs(kDelayMs);
        scope->StartPolling();
      }
    }
    for (auto& scope : display) {
      router.AddScope(scope.get());
    }
    for (auto& scope : history) {
      // binary_fanout's echo session subscribes to one signal only.
      auto filter = std::make_unique<gscope::SignalFilter>();
      filter->Add(w.id == WorkloadId::kBinaryFanout ? "sig00" : "*");
      router.AddScope(scope.get(), filter.get());
      filters.push_back(std::move(filter));
    }
    uint32_t routes[kSignals];
    for (int s = 0; s < kSignals; ++s) {
      Check(router.ResolveRoute(SignalName(s), &routes[s]));
    }
    int64_t tuples = 0, parse_errors = 0;
    auto tick_all = [&] {
      for (auto& scope : display) {
        const int64_t t = tracer_.Begin();
        scope->TickOnce();
        tracer_.End(kTickCoalesced, t);
      }
      for (auto& scope : history) {
        const int64_t t = tracer_.Begin();
        scope->TickOnce();
        tracer_.End(kTickHistory, t);
      }
    };
    size_t begin = 0;
    int64_t now_ms = 0;
    for (size_t c = 0; c < samples_.size(); c += chunk_) {
      const size_t end = std::min(c + chunk_, samples_.size());
      now_ms = samples_[c].stamp_ms;
      clock.SetNs(now_ms * kNanosPerMs);
      const int64_t t = tracer_.Begin();
      if (w.binary) {
        for (size_t i = c; i < end; ++i) {
          router.AppendRoute(routes[samples_[i].signal], samples_[i].stamp_ms, samples_[i].value);
        }
        tracer_.End(kAppendRoute, t);
      } else {
        for (size_t i = c; i < end; ++i) {
          router.AppendTupleLine(std::string_view(text_.data() + begin, line_end_[i] - begin - 1),
                                 &tuples, &parse_errors);
          begin = line_end_[i];
        }
        tracer_.End(kAppendLine, t);
      }
      const int64_t f = tracer_.Begin();
      router.Flush();
      tracer_.End(kFlush, f);
      if (now_ms % 10 == 9) {
        tick_all();
      }
    }
    clock.SetNs((now_ms + kDelayMs + 20) * kNanosPerMs);
    tick_all();
    Check(parse_errors == 0);
    // Every sample reached every history tap exactly once.
    int64_t want = 0;
    for (const Sample& s : samples_) {
      want += w.id != WorkloadId::kBinaryFanout || s.signal == 0;
    }
    Check(tapped == want * history_count);
  }

  void Writer() {
    gscope::MainLoop loop;
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      Die("socketpair failed");
    }
    fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL) | O_NONBLOCK);
    fcntl(fds[1], F_SETFL, fcntl(fds[1], F_GETFL) | O_NONBLOCK);
    int64_t received = 0;
    {
      gscope::FramedWriter writer(&loop, 1 << 20);
      writer.Attach(fds[0]);
      char sink[64 * 1024];
      size_t begin = 0;
      for (size_t c = 0; c < samples_.size(); c += chunk_) {
        const size_t end = std::min(c + chunk_, samples_.size());
        const int64_t t = tracer_.Begin();
        for (size_t i = c; i < end; ++i) {
          std::string& frame = writer.BeginFrame();
          frame.append(text_.data() + begin, line_end_[i] - begin);
          begin = line_end_[i];
          writer.CommitFrame();
        }
        loop.Iterate(false);
        tracer_.End(kWriterCommit, t);
        ssize_t n;
        while ((n = read(fds[1], sink, sizeof(sink))) > 0) {
          received += n;
        }
      }
      while (writer.pending_bytes() > 0) {
        loop.Iterate(false);
        ssize_t n;
        while ((n = read(fds[1], sink, sizeof(sink))) > 0) {
          received += n;
        }
      }
      writer.Detach();
    }
    close(fds[0]);
    close(fds[1]);
    Check(received == static_cast<int64_t>(text_.size()));
  }

  void Record() {
    const std::string path =
        config_.scratch_dir + "/layers-" + std::to_string(getpid()) + ".log";
    unlink(path.c_str());
    {
      gscope::ExtentLog log;
      Check(log.Open(path));
      size_t chunks = 0;
      for (size_t c = 0; c < samples_.size(); c += chunk_) {
        const size_t end = std::min(c + chunk_, samples_.size());
        const int64_t t = tracer_.Begin();
        for (size_t i = c; i < end; ++i) {
          log.Append(SignalName(samples_[i].signal), samples_[i].stamp_ms, samples_[i].value);
        }
        tracer_.End(kRecordAppend, t);
        if (++chunks % 10 == 0) {  // the recorder seals once per 10 ms poll
          const int64_t s = tracer_.Begin();
          log.SealNow();
          tracer_.End(kRecordSeal, s);
        }
      }
      log.SealNow();
      log.Close();
    }
    const int64_t mid = samples_[samples_.size() / 2].stamp_ms;
    int64_t want = 0;
    for (const Sample& s : samples_) {
      want += s.stamp_ms >= mid && s.stamp_ms <= mid + 99;
    }
    for (int k = 0; k < 5; ++k) {
      const int64_t t = tracer_.Begin();
      gscope::ExtentReader reader;
      std::vector<gscope::ReplayRecord> window;
      const bool ok = reader.Open(path) && reader.ReadWindow(mid, mid + 99, &window);
      tracer_.End(kReadWindow, t);
      Check(ok && static_cast<int64_t>(window.size()) == want);
    }
    unlink(path.c_str());
  }

  const RunConfig& config_;
  const std::vector<Sample>& samples_;
  Tracer& tracer_;
  size_t chunk_ = 1;
  std::string text_;
  std::vector<size_t> line_end_;  // one past each line's newline
  std::string bin_;
  int64_t errors_ = 0;
};

}  // namespace

void RunLayers(const RunConfig& config, LiveResult& live) {
  const Workload& w = *config.workload;
  Gen gen;
  gen.seed = config.seed;
  std::vector<Sample> samples(static_cast<size_t>(w.rate));  // one second of input
  for (size_t i = 0; i < samples.size(); ++i) {
    const int64_t seq = static_cast<int64_t>(i);
    samples[i] = {gen.Signal(seq), kDelayMs + seq * 1000 / w.rate, gen.Value(seq)};
  }
  // Pairs of untraced and traced passes, alternating which goes first; the
  // median pair gives the spans' overhead, and the spans of every traced
  // pass are pooled.
  constexpr int kPairs = 5;
  Tracer bare(false);
  Tracer spans(true);
  std::vector<double> overhead;
  int64_t errors = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    double cpu[2] = {0, 0};  // bare, traced
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (pair % 2 == 1);
      Pass pass(config, samples, traced ? spans : bare);
      // This thread's CPU: the spans run here, and the fan-out workers'
      // wake-up timing would only add noise.
      const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      pass.Run();
      cpu[traced ? 1 : 0] = static_cast<double>(CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0);
      errors += pass.errors();
    }
    overhead.push_back(cpu[0] > 0 ? cpu[1] / cpu[0] - 1.0 : 0.0);
  }
  if (errors > 0) {
    live.correct = false;
    live.problems.push_back("layer replay produced " + std::to_string(errors) +
                            " wrong results");
  }
  const Tracer& tr = spans;
  const double n = static_cast<double>(samples.size()) * kPairs;
  auto per_tuple = [&](Layer layer) { return tr.TotalNs(layer) / n; };
  auto pct_us = [&](Layer layer, double pct) { return Percentile(tr.Durations(layer), pct) / 1e3; };
  const double parse = per_tuple(kTextParse);
  const double append = w.binary ? per_tuple(kAppendRoute) : per_tuple(kAppendLine) - parse;
  const double flush = per_tuple(kFlush);
  const double ticks = per_tuple(kTickHistory) + per_tuple(kTickCoalesced);
  const double record = per_tuple(kRecordAppend) + per_tuple(kRecordSeal);
  // The server-side share of one ingested tuple that the spans account for.
  double modeled = append + flush + ticks;
  if (w.binary) {
    modeled += per_tuple(kBinDecode) + live.echo_per_tuple * per_tuple(kBinEncode);
  } else {
    modeled += parse + live.echo_per_tuple * (per_tuple(kTextFormat) + per_tuple(kWriterCommit));
  }
  if (w.record) {
    modeled += record;
  }
  const std::vector<double> read_ms = tr.Durations(kReadWindow);
  const std::vector<Metric> layers = {
      {"net.wire.text_parse_ns", parse, "ns"},
      {"net.wire.text_format_ns", per_tuple(kTextFormat), "ns"},
      {"net.wire.bin_decode_ns", per_tuple(kBinDecode), "ns"},
      {"net.wire.bin_encode_ns", per_tuple(kBinEncode), "ns"},
      {"core.router.append_ns", append, "ns"},
      {"core.router.flush_us_p50", pct_us(kFlush, 50.0), "us"},
      {"core.router.flush_us_p99", pct_us(kFlush, 99.0), "us"},
      {"core.scope.tick_history_us_p99", pct_us(kTickHistory, 99.0), "us"},
      {"core.scope.tick_coalesced_us_p99", pct_us(kTickCoalesced, 99.0), "us"},
      {"runtime.writer.commit_ns", per_tuple(kWriterCommit), "ns"},
      {"record.append_ns", per_tuple(kRecordAppend), "ns"},
      {"record.seal_us_p99", pct_us(kRecordSeal, 99.0), "us"},
      {"record.read_window_ms", Percentile(read_ms, 50.0) / 1e6, "ms"},
      {"trace.overhead_frac", Median(overhead), "ratio"},
      {"trace.unaccounted_frac",
       live.server_cpu_ns_per_tuple > 0 ? 1.0 - modeled / live.server_cpu_ns_per_tuple : 0.0,
       "ratio"},
  };
  live.layers.insert(live.layers.end(), layers.begin(), layers.end());
}

}  // namespace scopebench
