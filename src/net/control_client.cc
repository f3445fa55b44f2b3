#include "net/control_client.h"

#include <algorithm>
#include <charconv>

namespace gscope {

namespace {

// Parses a non-negative integer argument after `prefix` ("PONG 123",
// "OK TIME 456").  Returns false when absent or malformed.
bool ParseIntArg(std::string_view line, std::string_view prefix, int64_t* out) {
  if (line.size() <= prefix.size() || line.rfind(prefix, 0) != 0 ||
      line[prefix.size()] != ' ') {
    return false;
  }
  std::string_view arg = line.substr(prefix.size() + 1);
  auto [p, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), *out);
  return ec == std::errc{} && p == arg.data() + arg.size();
}

}  // namespace

ControlClient::ControlClient(MainLoop* loop, ControlClientOptions options)
    : loop_(loop),
      options_(options),
      writer_(loop, options.max_buffer),
      framer_(options.max_line_bytes),
      jitter_rng_(options.reconnect.seed) {
  writer_.SetPolicy(options.overflow_policy, MillisToNanos(options.block_deadline_ms));
  writer_.SetAdaptive(options.adaptive);
  writer_.SetErrorCallback([this]() { Disconnect(); });
}

ControlClient::~ControlClient() {
  self_alias_.reset();  // invalidate deferred flush closures before teardown
  Close();
}

// Decoder callbacks for the server's framed egress.
struct ControlClient::RxHandler {
  ControlClient* client;
  void OnDictEntry(uint32_t id, std::string_view name) {
    client->BindRxName(id, name);
  }
  void OnSampleBatch(int64_t base_time_ms, const char* records, size_t n) {
    client->DeliverRecords(base_time_ms, records, n);
  }
  void OnTextLine(std::string_view line) { client->HandleLine(line); }
};

int64_t ControlClient::LocalNowMs() const {
  return loop_->clock()->NowNs() / kNanosPerMilli;
}

void ControlClient::SetState(ConnectState state) {
  if (state_ == state) {
    return;
  }
  state_ = state;
  if (on_state_) {
    on_state_(state);
  }
}

bool ControlClient::Connect(uint16_t port) {
  Close();
  port_ = port;
  cur_backoff_ms_ = std::max<int64_t>(1, options_.reconnect.initial_backoff_ms);
  failed_attempts_ = 0;
  return StartConnect();
}

bool ControlClient::StartConnect() {
  // Track what is declared during THIS handshake: those verbs ride the
  // queued frames (flushed at establishment) and must not be replayed.
  handshake_subs_.clear();
  handshake_delay_ = false;
  handshake_auth_ = false;
  handshake_stage_ = false;
  stats_.connect_attempts += 1;
  socket_ = Socket::Connect(port_);
  if (!socket_.valid()) {
    return FailAttempt(0);
  }
  if (options_.sndbuf_bytes > 0) {
    socket_.SetSendBufferBytes(options_.sndbuf_bytes);
  }
  SetState(ConnectState::kConnecting);
  connect_watch_ =
      loop_->AddIoWatch(socket_.fd(), IoCondition::kOut | IoCondition::kErr,
                        [this](int, IoCondition) { return OnConnectReady(); });
  if (connect_watch_ == 0) {
    socket_.Close();
    return FailAttempt(0);
  }
  return true;
}

void ControlClient::Close() {
  if (connect_watch_ != 0) {
    loop_->Remove(connect_watch_);
    connect_watch_ = 0;
  }
  if (read_watch_ != 0) {
    loop_->Remove(read_watch_);
    read_watch_ = 0;
  }
  if (retry_timer_ != 0) {
    loop_->Remove(retry_timer_);
    retry_timer_ = 0;
  }
  if (liveness_timer_ != 0) {
    loop_->Remove(liveness_timer_);
    liveness_timer_ = 0;
  }
  if (state_ == ConnectState::kConnecting) {
    // Frames queued behind an unresolved handshake resolve to dropped (they
    // never counted as sent), so the delivered identity keeps holding.
    auto [frames, tuples] = DiscardPreconnect();
    stats_.frames_dropped += frames;
    upload_.dropped += tuples;
  } else {
    writer_.Reset();
  }
  DropStagedWire();
  framer_.Reset();
  decoder_.Reset();
  rx_names_.clear();
  wire_ = WireState::kTextOnly;
  socket_.Close();
  SetState(ConnectState::kDisconnected);
  preconnect_frames_ = 0;
  upload_.preconnect = 0;
  time_req_sent_ms_ = -1;
}

bool ControlClient::FailAttempt(int error) {
  last_error_ = error;
  stats_.connect_failures += 1;
  failed_attempts_ += 1;
  const ReconnectOptions& r = options_.reconnect;
  if (r.enabled && (r.max_attempts == 0 || failed_attempts_ < r.max_attempts)) {
    EnterBackoff();
    return true;
  }
  SetState(ConnectState::kFailed);
  return false;
}

void ControlClient::EnterBackoff() {
  int64_t delay = cur_backoff_ms_;
  if (options_.reconnect.jitter_frac > 0) {
    std::uniform_real_distribution<double> jitter(0.0, options_.reconnect.jitter_frac);
    delay += static_cast<int64_t>(jitter(jitter_rng_) * static_cast<double>(cur_backoff_ms_));
  }
  delay = std::max<int64_t>(1, delay);
  last_backoff_ms_ = delay;
  cur_backoff_ms_ = std::min<int64_t>(
      std::max<int64_t>(1, options_.reconnect.max_backoff_ms),
      static_cast<int64_t>(static_cast<double>(cur_backoff_ms_) *
                           std::max(1.0, options_.reconnect.multiplier)));
  retry_timer_ = loop_->AddTimeoutMs(delay, std::function<bool()>([this]() {
                                       retry_timer_ = 0;
                                       StartConnect();
                                       return false;
                                     }));
  // Announce the state only after the delay is armed and published:
  // observers of the kBackoff edge read a consistent last_backoff_ms().
  SetState(ConnectState::kBackoff);
}

bool ControlClient::OnConnectReady() {
  connect_watch_ = 0;
  int error = socket_.PendingError();
  if (error != 0) {
    // Frames queued behind the handshake never left the process: they
    // resolve to dropped, so commands_sent/tuples_pushed vs frames_dropped
    // reconcile for the caller.
    stats_.frames_dropped += preconnect_frames_;
    upload_.dropped += upload_.preconnect;
    preconnect_frames_ = 0;
    upload_.preconnect = 0;
    DiscardPreconnect();
    socket_.Close();
    FailAttempt(error);
    if (on_connect_) {
      on_connect_(false, error);
    }
    return false;
  }
  SetState(ConnectState::kConnected);
  failed_attempts_ = 0;
  cur_backoff_ms_ = std::max<int64_t>(1, options_.reconnect.initial_backoff_ms);
  establishments_ += 1;
  if (establishments_ > 1) {
    stats_.reconnects += 1;
  }
  preconnect_frames_ = 0;
  upload_.sent += upload_.preconnect;
  upload_.preconnect = 0;
  last_rx_ns_ = loop_->clock()->NowNs();
  last_tx_ns_ = last_rx_ns_;
  writer_.Attach(socket_.fd());  // flushes commands queued pre-connect
  read_watch_ = loop_->AddIoWatch(socket_.fd(), IoCondition::kIn,
                                  [this](int, IoCondition cond) { return OnReadable(cond); });
  if (options_.wire_format == WireFormat::kBinary) {
    // Renegotiate on EVERY establishment, ahead of the session replay (the
    // SUBs that follow still travel as text; the server parses text until
    // our first binary frame).  The line travels behind anything queued
    // pre-connect, and pushes stay text until the acknowledgment arrives.
    // Counted in commands_sent like any verb, but never in
    // resumed_commands - it is negotiation, not session state.
    wire_ = WireState::kHelloSent;
    decoder_.Reset();
    rx_names_.clear();
    encoder_.ResetDict();
    SendCommand("HELLO", "BIN 1");
  } else {
    wire_ = WireState::kTextOnly;
  }
  if (options_.auto_resubscribe) {
    // Session resumption: replay the CURRENT remembered state (so an
    // Unsubscribe/SetDelay issued mid-handshake is never overridden by a
    // stale snapshot), skipping verbs already queued during this handshake
    // — Attach() just flushed those, and a duplicate SUB would draw an ERR.
    // SendCommand (not Subscribe) so nothing re-records.  AUTH goes first:
    // the server scopes the session's filter at SUB time from the tenant
    // identity, so replayed SUBs must land inside the namespace.
    if (has_auth_ && !handshake_auth_) {
      if (SendCommand("AUTH", auth_token_)) {
        stats_.resumed_commands += 1;
      }
    }
    for (const std::string& pattern : sub_patterns_) {
      if (std::find(handshake_subs_.begin(), handshake_subs_.end(), pattern) !=
          handshake_subs_.end()) {
        continue;
      }
      if (SendCommand("SUB", pattern)) {
        stats_.resumed_commands += 1;
      }
    }
    if (has_delay_ && !handshake_delay_) {
      char buf[24];
      auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), delay_ms_);
      (void)ec;
      if (SendCommand("DELAY", std::string_view(buf, static_cast<size_t>(p - buf)))) {
        stats_.resumed_commands += 1;
      }
    }
    if (has_stage_ && !handshake_stage_) {
      // The stage replays LAST: the server keys stage groups on the
      // session's (namespace, delay, pattern set), all restored above.
      std::string_view spec = stage_spec_;
      size_t space = spec.find(' ');
      std::string_view verb = spec.substr(0, space);
      std::string_view spec_arg =
          space == std::string_view::npos ? std::string_view{} : spec.substr(space + 1);
      if (SendCommand(verb, spec_arg)) {
        stats_.resumed_commands += 1;
      }
    }
  }
  if (options_.sync_time_on_connect) {
    RequestTime();
  }
  if (options_.ping_interval_ms > 0 || options_.idle_timeout_ms > 0) {
    int64_t period = 0;
    if (options_.ping_interval_ms > 0) {
      period = options_.ping_interval_ms;
    }
    if (options_.idle_timeout_ms > 0) {
      // Check often enough that a dead link is declared within ~1.25x the
      // configured timeout even without pings.
      int64_t check = std::max<int64_t>(1, options_.idle_timeout_ms / 4);
      period = period == 0 ? check : std::min(period, check);
    }
    liveness_timer_ = loop_->AddTimeoutMs(
        period, std::function<bool()>([this]() { return OnLivenessTick(); }));
  }
  if (on_connect_) {
    on_connect_(true, 0);
  }
  return false;  // one-shot
}

bool ControlClient::OnLivenessTick() {
  if (state_ != ConnectState::kConnected) {
    return true;  // mid-teardown tick; Disconnect removes this timer
  }
  Nanos now = loop_->clock()->NowNs();
  if (options_.idle_timeout_ms > 0 &&
      now - last_rx_ns_ >= MillisToNanos(options_.idle_timeout_ms)) {
    // Nothing received for the whole window (pings included, when enabled):
    // the peer is gone even if TCP has not noticed.  Tear down; reconnect
    // takes over when enabled.
    stats_.liveness_timeouts += 1;
    liveness_timer_ = 0;  // self-removal via return false below
    Disconnect();
    return false;
  }
  if (options_.ping_interval_ms > 0 &&
      now - last_tx_ns_ >= MillisToNanos(options_.ping_interval_ms)) {
    Ping();
  }
  return true;
}

void ControlClient::Disconnect() {
  if (read_watch_ != 0) {
    loop_->Remove(read_watch_);
    read_watch_ = 0;
  }
  if (liveness_timer_ != 0) {
    loop_->Remove(liveness_timer_);
    liveness_timer_ = 0;
  }
  DropStagedWire();
  writer_.Reset();
  framer_.Reset();
  decoder_.Reset();
  rx_names_.clear();
  wire_ = WireState::kTextOnly;
  socket_.Close();
  time_req_sent_ms_ = -1;
  const ReconnectOptions& r = options_.reconnect;
  if (r.enabled && port_ != 0 &&
      (r.max_attempts == 0 || failed_attempts_ < r.max_attempts)) {
    EnterBackoff();
    return;
  }
  SetState(ConnectState::kDisconnected);
}

bool ControlClient::OnReadable(IoCondition cond) {
  if (Has(cond, IoCondition::kErr)) {
    read_watch_ = 0;
    Disconnect();
    return false;
  }
  char buf[65536];
  while (true) {
    IoResult r = socket_.Read(buf, sizeof(buf));
    if (r.status == IoResult::Status::kOk) {
      stats_.bytes_received += static_cast<int64_t>(r.bytes);
      last_rx_ns_ = loop_->clock()->NowNs();
      const char* p = buf;
      size_t n = r.bytes;
      while (n > 0) {
        if (wire_ == WireState::kBinary) {
          RxHandler handler{this};
          decoder_.Consume(p, n, handler);
          stats_.parse_errors += decoder_.Take().crc_errors;
          n = 0;
          break;
        }
        // The "OK HELLO BIN 1" line is the exact flip point: everything the
        // server sends after it is framed, so the line parser must stop
        // there and hand the chunk's remainder to the decoder.
        size_t used = framer_.ConsumeStoppable(
            p, n, &stats_.parse_errors, [this](std::string_view line) {
              WireState before = wire_;
              HandleLine(line);
              return wire_ == before;
            });
        p += used;
        n -= used;
      }
      continue;
    }
    if (r.status == IoResult::Status::kWouldBlock) {
      return true;
    }
    if (wire_ == WireState::kBinary) {
      decoder_.Finish();  // a torn partially-buffered frame counts once
      stats_.parse_errors += decoder_.Take().crc_errors;
    } else {
      framer_.FlushTail([this](std::string_view line) { HandleLine(line); });
    }
    read_watch_ = 0;  // returning false removes this watch
    Disconnect();
    return false;
  }
}

void ControlClient::BindRxName(uint32_t id, std::string_view name) {
  if (rx_names_.size() < id) {
    rx_names_.resize(id);
  }
  rx_names_[id - 1].assign(name);
}

void ControlClient::DeliverRecords(int64_t base_time_ms, const char* records,
                                   size_t n) {
  for (size_t i = 0; i < n; ++i, records += wire::kSampleRecordBytes) {
    uint32_t id = wire::LoadU32(records);
    int64_t time_ms = base_time_ms + wire::LoadI32(records + 4);
    double value = wire::LoadF64(records + 8);
    std::string_view name;
    if (id != 0) {
      if (id > rx_names_.size()) {
        stats_.parse_errors += 1;  // frame did not declare the id
        continue;
      }
      name = rx_names_[id - 1];
    }
    stats_.tuples_received += 1;
    if (on_tuple_) {
      on_tuple_(TupleView{time_ms, value, name});
    }
  }
}

void ControlClient::HandleLine(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  if (line.empty()) {
    return;
  }
  char c = line.front();
  if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')) {
    if (line.rfind("OK", 0) == 0) {
      stats_.replies_ok += 1;
      if (wire_ == WireState::kHelloSent && line.rfind("OK HELLO BIN 1", 0) == 0) {
        wire_ = WireState::kBinary;  // both directions framed from here
      }
      int64_t server_ms = 0;
      if (time_req_sent_ms_ >= 0 && ParseIntArg(line, "OK TIME", &server_ms)) {
        // Midpoint estimate: the server stamped its scope time somewhere in
        // the round trip; assume halfway.  Good to ~RTT/2, which on the
        // links gscope targets is far finer than the late-drop delay.
        int64_t now = LocalNowMs();
        int64_t rtt = now - time_req_sent_ms_;
        last_rtt_ms_ = rtt;
        time_offset_ms_ = server_ms + rtt / 2 - now;
        has_time_offset_ = true;
        stats_.time_syncs += 1;
        time_req_sent_ms_ = -1;
      }
    } else if (line.rfind("ERR", 0) == 0) {
      stats_.replies_err += 1;
      if (wire_ == WireState::kHelloSent && line.rfind("ERR HELLO", 0) == 0) {
        wire_ = WireState::kTextOnly;  // declined: text for good
      }
    } else if (line.rfind("INFO", 0) == 0) {
      stats_.replies_info += 1;
    } else if (line.rfind("PONG", 0) == 0) {
      stats_.pongs_received += 1;
      int64_t token = 0;
      if (ParseIntArg(line, "PONG", &token)) {
        last_rtt_ms_ = LocalNowMs() - token;  // token = our clock at send
      }
    } else if (line.rfind("NOTICE", 0) == 0) {
      stats_.notices += 1;
    } else {
      stats_.parse_errors += 1;
      return;
    }
    if (on_reply_) {
      on_reply_(line);
    }
    return;
  }
  std::optional<TupleView> tuple = ParseTupleView(line);
  if (!tuple.has_value()) {
    if (!IsIgnorableLine(line)) {
      stats_.parse_errors += 1;
    }
    return;
  }
  stats_.tuples_received += 1;
  if (on_tuple_) {
    on_tuple_(*tuple);
  }
}

bool ControlClient::SendCommand(std::string_view verb, std::string_view arg) {
  if (state_ != ConnectState::kConnected && state_ != ConnectState::kConnecting) {
    stats_.frames_dropped += 1;
    return false;
  }
  if (wire_ == WireState::kBinary && !encoder_.empty()) {
    FlushWire();  // staged pushed tuples precede the verb on the wire
  }
  std::string& buf = writer_.BeginFrame();
  if (wire_ == WireState::kBinary) {
    size_t mark = buf.size();
    buf.append(verb);
    if (!arg.empty()) {
      buf.push_back(' ');
      buf.append(arg);
    }
    std::string_view line(buf.data() + mark, buf.size() - mark);
    std::string text(line);  // verbs are cold-path; one scratch copy is fine
    buf.resize(mark);
    wire::WireEncoder::EmitTextLineFrame(buf, text);
  } else {
    buf.append(verb);
    if (!arg.empty()) {
      buf.push_back(' ');
      buf.append(arg);
    }
    buf.push_back('\n');
  }
  // Weight 0: a verb carries no tuples, so evicting or abandoning it never
  // perturbs the upload ledger.
  if (!writer_.CommitFrame(0)) {
    stats_.frames_dropped += 1;
    return false;
  }
  if (state_ == ConnectState::kConnecting) {
    preconnect_frames_ += 1;
  }
  stats_.commands_sent += 1;
  NoteTx();
  return true;
}

bool ControlClient::Subscribe(std::string_view glob) {
  // Remember the pattern even when the send fails (e.g. disconnected):
  // declared intent is what a reconnect replays.
  if (std::find(sub_patterns_.begin(), sub_patterns_.end(), glob) == sub_patterns_.end()) {
    sub_patterns_.emplace_back(glob);
  }
  bool sent = SendCommand("SUB", glob);
  if (sent && state_ == ConnectState::kConnecting) {
    handshake_subs_.emplace_back(glob);  // already queued; replay must skip it
  }
  return sent;
}

bool ControlClient::Auth(std::string_view token) {
  // Like Subscribe: remember the declared identity even when the send fails,
  // so the next establishment replays it (ahead of the SUB replay - tenant
  // scoping must exist before subscriptions re-land).
  has_auth_ = true;
  auth_token_.assign(token.data(), token.size());
  bool sent = SendCommand("AUTH", token);
  if (sent && state_ == ConnectState::kConnecting) {
    handshake_auth_ = true;  // the queued AUTH frame already carries it
  }
  return sent;
}

bool ControlClient::Unsubscribe(std::string_view glob) {
  auto it = std::find(sub_patterns_.begin(), sub_patterns_.end(), glob);
  if (it != sub_patterns_.end()) {
    sub_patterns_.erase(it);
  }
  return SendCommand("UNSUB", glob);
}

bool ControlClient::SetDelay(int64_t delay_ms) {
  if (delay_ms >= 0) {
    has_delay_ = true;
    delay_ms_ = delay_ms;
  }
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), delay_ms);
  (void)ec;
  bool sent = SendCommand("DELAY", std::string_view(buf, static_cast<size_t>(p - buf)));
  if (sent && delay_ms >= 0 && state_ == ConnectState::kConnecting) {
    handshake_delay_ = true;  // the queued DELAY frame already carries it
  }
  return sent;
}

bool ControlClient::Stage(std::string_view spec) {
  // Like Subscribe: remember the declared stage even when the send fails,
  // so the next establishment replays it (after the SUB/DELAY replay - the
  // server keys shared stages on the restored subscription set).
  has_stage_ = true;
  stage_spec_.assign(spec.data(), spec.size());
  size_t space = spec.find(' ');
  std::string_view verb = spec.substr(0, space);
  std::string_view arg =
      space == std::string_view::npos ? std::string_view{} : spec.substr(space + 1);
  bool sent = SendCommand(verb, arg);
  if (sent && state_ == ConnectState::kConnecting) {
    handshake_stage_ = true;  // the queued frame already carries it
  }
  return sent;
}

bool ControlClient::ClearStage() {
  has_stage_ = false;
  stage_spec_.clear();
  handshake_stage_ = false;
  return SendCommand("RAW", {});
}

bool ControlClient::RequestList() { return SendCommand("LIST", {}); }

bool ControlClient::RequestStages() { return SendCommand("LIST", "STAGES"); }

bool ControlClient::RequestStats() { return SendCommand("STATS", {}); }

bool ControlClient::Record(std::string_view path) {
  if (path.empty()) {
    return false;
  }
  return SendCommand("RECORD", path);
}

bool ControlClient::StopRecord() { return SendCommand("RECORD", "OFF"); }

bool ControlClient::Replay(int64_t t0, int64_t t1, double speed) {
  std::string arg;
  arg.append(std::to_string(t0)).push_back(' ');
  arg.append(std::to_string(t1));
  if (speed > 0.0) {
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), speed);
    arg.push_back(' ');
    arg.append(buf, static_cast<size_t>(r.ptr - buf));
  }
  return SendCommand("REPLAY", arg);
}

bool ControlClient::Ping() {
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), LocalNowMs());
  (void)ec;
  bool sent = SendCommand("PING", std::string_view(buf, static_cast<size_t>(p - buf)));
  if (sent) {
    stats_.pings_sent += 1;
  }
  return sent;
}

bool ControlClient::RequestTime() {
  bool sent = SendCommand("TIME", {});
  if (sent) {
    time_req_sent_ms_ = LocalNowMs();
  }
  return sent;
}

int64_t ControlClient::ServerNowMs() const {
  if (!has_time_offset_) {
    return 0;
  }
  return LocalNowMs() + time_offset_ms_;
}

void ControlClient::ForgetSession() {
  sub_patterns_.clear();
  handshake_subs_.clear();
  has_delay_ = false;
  handshake_delay_ = false;
  has_auth_ = false;
  auth_token_.clear();
  handshake_auth_ = false;
  has_stage_ = false;
  stage_spec_.clear();
  handshake_stage_ = false;
}

bool ControlClient::Send(int64_t time_ms, double value, std::string_view name) {
  if (state_ != ConnectState::kConnected && state_ != ConnectState::kConnecting) {
    // Includes kBackoff: data produced while the link is down is disposable
    // (the paper's stance); it is counted dropped rather than queued
    // unboundedly against a server that may never come back.
    CountDropped(1);
    return false;
  }
  if (wire_ == WireState::kBinary) {
    // kBinary implies kConnected: the flip happens only after the server's
    // acknowledgment arrives on an established connection.  Stage into the
    // open sample frame; commit/accounting happens at the flush (inline at
    // a frame's worth, else deferred one loop iteration).
    wire::StageResult r = encoder_.Add(name, time_ms, value);
    if (r == wire::StageResult::kFrameFull) {
      FlushWire();
      r = encoder_.Add(name, time_ms, value);
    }
    if (r != wire::StageResult::kStaged) {
      CountDropped(1);
      return false;
    }
    if (encoder_.staged_samples() >= options_.frame_samples) {
      // The sample is staged either way; a full backlog surfaces in the
      // drop counters, not here.
      FlushWire();
    } else {
      ScheduleWireFlush();
    }
    return true;
  }
  // Format in place at the end of the output backlog (its capacity is reused
  // across drains, so steady-state sends do not allocate); the writer rolls
  // the whole frame back if it would overflow the cap.
  AppendTuple(writer_.BeginFrame(), time_ms, value, name);
  if (!writer_.CommitFrame()) {
    CountDropped(1);
    return false;
  }
  CountPushed(1);
  return true;
}

void ControlClient::FlushWire() {
  size_t n = encoder_.staged_samples();
  if (n == 0) {
    return;
  }
  if (state_ != ConnectState::kConnected || wire_ != WireState::kBinary) {
    // The connection died between staging and the deferred flush; a fresh
    // connection must not receive frames negotiated on the old one.
    DropStagedWire();
    return;
  }
  std::string& buf = writer_.BeginFrame();
  encoder_.EmitFrame(buf);
  if (!writer_.CommitFrame(static_cast<uint32_t>(n))) {
    CountDropped(static_cast<int64_t>(n));
    return;
  }
  CountPushed(static_cast<int64_t>(n));
}

void ControlClient::ScheduleWireFlush() {
  if (wire_flush_pending_) {
    return;
  }
  wire_flush_pending_ = true;
  std::weak_ptr<ControlClient> weak_self = self_alias_;
  loop_->Invoke([weak_self]() {
    if (std::shared_ptr<ControlClient> client = weak_self.lock()) {
      client->wire_flush_pending_ = false;
      client->FlushWire();
    }
  });
}

void ControlClient::DropStagedWire() {
  size_t n = encoder_.ClearStaged();
  if (n > 0) {
    CountDropped(static_cast<int64_t>(n));  // the open frame's worth
  }
}

void ControlClient::CountPushed(int64_t tuples) {
  upload_.pushed += tuples;
  if (state_ == ConnectState::kConnecting) {
    preconnect_frames_ += 1;
    upload_.preconnect += tuples;
  } else {
    upload_.sent += tuples;
  }
  NoteTx();
}

void ControlClient::CountDropped(int64_t tuples) {
  stats_.frames_dropped += 1;
  upload_.dropped += tuples;
}

std::pair<int64_t, int64_t> ControlClient::DiscardPreconnect() {
  const int64_t frames_before = writer_.stats().frames_abandoned;
  const int64_t tuples = static_cast<int64_t>(writer_.Reset());
  const int64_t frames = writer_.stats().frames_abandoned - frames_before;
  preconnect_discards_ += frames;
  upload_.preconnect_discards += tuples;
  return {frames, tuples};
}

void ControlClient::NoteTx() {
  if (options_.ping_interval_ms > 0) {
    last_tx_ns_ = loop_->clock()->NowNs();
  }
}

const ControlClient::Stats& ControlClient::stats() const {
  const FramedWriter::Stats& w = writer_.stats();
  stats_.tuples_pushed = upload_.pushed;
  stats_.frames_evicted = w.frames_evicted;
  // Pre-connect discards are already in frames_dropped (see Close /
  // OnConnectReady); they never counted as sent, so they are backed out
  // of the abandoned mapping.
  stats_.frames_abandoned = w.frames_abandoned - preconnect_discards_;
  stats_.bytes_sent = w.bytes_written;
  stats_.bytes_dropped = w.bytes_dropped;
  stats_.block_time_ns = w.block_time_ns;
  stats_.backlog_high_water = static_cast<int64_t>(w.high_water_bytes);
  stats_.policy_switches = w.policy_switches;
  return stats_;
}

const ControlClient::UploadStats& ControlClient::upload_stats() const {
  const Stats& s = stats();
  const FramedWriter::Stats& w = writer_.stats();
  UploadStats& u = upload_stats_;
  u.tuples_sent = upload_.sent;
  u.bytes_sent = s.bytes_sent;
  u.tuples_dropped = upload_.dropped;
  // The writer's units_* mirrors keep eviction and abandonment tuple-exact
  // when binary frames carry many tuples each.
  u.tuples_evicted = w.units_evicted;
  u.tuples_abandoned = w.units_abandoned - upload_.preconnect_discards;
  u.bytes_dropped = s.bytes_dropped;
  u.block_time_ns = s.block_time_ns;
  u.backlog_high_water = s.backlog_high_water;
  u.connect_failures = s.connect_failures;
  u.connect_attempts = s.connect_attempts;
  u.reconnects = s.reconnects;
  u.policy_switches = s.policy_switches;
  u.bytes_discarded = s.bytes_received;
  return u;
}

}  // namespace gscope
