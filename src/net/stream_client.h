// Gscope stream client (Section 4.4).
//
// "Clients use the gscope client API to connect to a server ... Clients
// asynchronously send BUFFER signal data in tuple format."  StreamClient is
// the producer-only view of the one client link, ControlClient
// (net/control_client.h): it owns one ControlClient and forwards to it, so
// connect, reconnect backoff, HELLO negotiation, binary staging and teardown
// exist once.  SendTuple appends one framed tuple to the link's bounded
// output backlog, which drains through a writability watch, so the
// application never blocks; when the backlog cap would be exceeded the
// newest tuple is rolled back whole (docs/protocol.md, "Backlog and drop
// semantics").
//
// Connect() is non-blocking; a refused or failed connect is surfaced through
// state()/last_error() and the optional connect callback.  Tuples sent while
// the connect is in flight are queued; they count as sent only once the
// connection is established (and as dropped if it fails).
#ifndef GSCOPE_NET_STREAM_CLIENT_H_
#define GSCOPE_NET_STREAM_CLIENT_H_

#include <cstdint>
#include <string_view>
#include <utility>

#include "core/tuple.h"
#include "net/control_client.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"

namespace gscope {

class StreamClient {
 public:
  // The link's options.  A producer uses the upload fields: max_buffer,
  // overflow_policy, block_deadline_ms, sndbuf_bytes, reconnect, adaptive,
  // wire_format and frame_samples.  kBinary sends HELLO BIN 1 after every
  // establishment and switches to length-prefixed binary frames once the
  // server acknowledges; until then (and whenever the server declines)
  // tuples travel as text, so the option is safe against any server.
  using Options = ControlClientOptions;
  // The link's upload ledger in tuples:
  // delivered = tuples_sent - tuples_evicted - tuples_abandoned.
  using Stats = ControlClient::UploadStats;
  // Invoked each time a connect attempt resolves (with reconnect enabled
  // that can be many times per Connect() call): ok = true with error 0, or
  // ok = false with the SO_ERROR errno value.
  using ConnectFn = ControlClient::ConnectFn;
  // Invoked on every state transition, including those inside reconnect
  // cycles.  Tests observe kConnected/kBackoff edges here instead of
  // sleeping.
  using StateFn = ControlClient::StateFn;

  // `loop` is not owned.
  StreamClient(MainLoop* loop, Options options) : link_(loop, options) {}
  // Backwards-compatible shape: default options with `max_buffer`.
  explicit StreamClient(MainLoop* loop, size_t max_buffer = 1 << 20)
      : link_(loop, ControlClientOptions{}) {
    link_.SetQueueLimit(max_buffer);
  }

  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  // Starts a non-blocking connect to 127.0.0.1:`port`.  True means the
  // attempt is in flight (not that the connection is established); the
  // outcome arrives through the connect callback / state().
  bool Connect(uint16_t port) { return link_.Connect(port); }
  void Close() { link_.Close(); }

  void SetConnectCallback(ConnectFn fn) { link_.SetConnectCallback(std::move(fn)); }
  void SetStateCallback(StateFn fn) { link_.SetStateCallback(std::move(fn)); }

  ConnectState state() const { return link_.state(); }
  // The delay the most recent backoff armed (ms); for tests and diagnostics.
  int64_t last_backoff_ms() const { return link_.last_backoff_ms(); }
  // True only once the handshake has actually completed - never while the
  // connect is still in flight or after it failed.
  bool connected() const { return link_.connected(); }
  // errno of the last failed connect (0 if none failed yet).
  int last_error() const { return link_.last_error(); }

  // Queues one tuple for asynchronous delivery.  Returns false if the
  // client is disconnected/failed or the backlog is full.
  bool SendTuple(const Tuple& tuple) { return link_.Send(tuple.time_ms, tuple.value, tuple.name); }

  // Same without a materialized Tuple: formats directly into the output
  // buffer, so steady-state sends perform no per-tuple allocation.
  bool Send(int64_t time_ms, double value, std::string_view name) {
    return link_.Send(time_ms, value, name);
  }

  // Switches the overflow policy mid-stream (between sends).
  void SetQueuePolicy(OverflowPolicy policy, int64_t block_deadline_ms = 5) {
    link_.SetQueuePolicy(policy, block_deadline_ms);
  }
  OverflowPolicy queue_policy() const { return link_.queue_policy(); }

  // Unsent bytes currently queued (binary: staged-but-unsealed samples
  // included, so "drain until empty" loops cover the open frame too).
  size_t pending_bytes() const { return link_.pending_bytes(); }
  // True once HELLO BIN was acknowledged on the current connection.
  bool wire_binary() const { return link_.wire_binary(); }
  const Stats& stats() const { return link_.upload_stats(); }

 private:
  ControlClient link_;
};

}  // namespace gscope

#endif  // GSCOPE_NET_STREAM_CLIENT_H_
