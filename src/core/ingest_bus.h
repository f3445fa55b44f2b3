// Signal-routed ingest bus: the server -> scope fan-out boundary.
//
// The gscope paper displays streamed BUFFER signals "to one or more scopes";
// the naive fan-out costs O(batch x scopes) because every display target gets
// its own materialized copy of every parsed sample.  This module makes the
// hand-off O(batch + scopes): the server parses each read chunk ONCE into a
// refcounted IngestBlock whose samples are keyed by *route index*, resolves
// names once through an immutable RouteTable snapshot (route x scope-slot ->
// SignalId), and hands every scope a lightweight IngestSpan - {block, table,
// range, slot} - in O(1).  Scopes queue spans (IngestSpanQueue) and translate
// route keys to their own signals only at drain time, on the loop thread.
//
// Epoch discipline: a RouteTable is immutable.  When the scope list or any
// scope's signal table changes, the router builds a fresh snapshot; spans
// already queued keep their old table, so a stale id simply resolves to
// "unmatched" at drain time - exactly what the per-client route caches this
// replaces did.
#ifndef GSCOPE_CORE_INGEST_BUS_H_
#define GSCOPE_CORE_INGEST_BUS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sample_buffer.h"
#include "core/signal_spec.h"

namespace gscope {

// Block samples whose key equals this carry the two-field single-signal form
// (no name): each scope routes them to its first BUFFER signal at drain time.
inline constexpr SampleKey kUnnamedRouteKey = ~SampleKey{0};

// One parsed batch, shared by every subscribed scope.  Sample::key holds a
// route index into the RouteTable the producing router attached to the span
// (or kUnnamedRouteKey).  min/max bounds let consumers decide whole-span
// late-drop and displayability in O(1).
struct IngestBlock {
  // Per-route last-wins summary: one entry per distinct route key appended
  // to this block, holding the newest sample — (time, arrival)-max, i.e. the
  // sample a stable sort by time would leave last — and how many samples the
  // route contributed.  Built incrementally in O(1) per Append and shared by
  // every scope, it is what lets a display-only drain run in O(live routes)
  // instead of O(batch) per scope (core/sample_hold.h: between polls only
  // the last value per signal is displayable).
  struct RouteLast {
    SampleKey route = 0;  // route index, or kUnnamedRouteKey
    int64_t time_ms = 0;
    double value = 0.0;
    uint32_t count = 0;  // samples this route contributed to the block
  };

  std::vector<Sample> samples;
  std::vector<RouteLast> live;  // distinct routes, first-appearance order
  int64_t min_time_ms = std::numeric_limits<int64_t>::max();
  int64_t max_time_ms = std::numeric_limits<int64_t>::min();
  // Samples were appended in non-decreasing time order (the common
  // streaming case).  When false, scopes restore (time, arrival) order
  // before routing so sample-and-hold ends on the newest value - matching
  // the ring drain's sort.  Ordering is restored within a block; producers
  // whose stamps run backwards across whole batches get batch-arrival order,
  // as they did across drain ticks before.
  bool time_ordered = true;
  // Some sample references a route with an unresolved (id 0) slot, i.e. was
  // (or will be) delivered to part of the scopes through the name shim.
  // False in the common all-resolved case, which keeps whole-span late-drop
  // accounting O(1) - no per-sample scan for shim-served exclusions.
  bool has_unresolved = false;
  // Some sample carries kUnnamedRouteKey.  Spans delivered to subscription-
  // filtered scopes exclude unnamed samples (there is no name to match), and
  // this flag keeps their late-drop accounting O(1) in the common named-only
  // case, exactly like has_unresolved.
  bool has_unnamed = false;

  void Clear() {
    samples.clear();
    // Reset only the live slots (O(live), not O(routes ever seen)); the
    // dense index keeps its warm capacity for the pooled-block reuse cycle.
    for (const RouteLast& entry : live) {
      if (entry.route == kUnnamedRouteKey) {
        unnamed_slot = 0;
      } else {
        last_slot[static_cast<size_t>(entry.route)] = 0;
      }
    }
    live.clear();
    min_time_ms = std::numeric_limits<int64_t>::max();
    max_time_ms = std::numeric_limits<int64_t>::min();
    time_ordered = true;
    has_unresolved = false;
    has_unnamed = false;
  }
  void Append(int64_t time_ms, double value, SampleKey route_key) {
    time_ordered = time_ordered && (samples.empty() || time_ms >= max_time_ms);
    has_unnamed = has_unnamed || route_key == kUnnamedRouteKey;
    samples.push_back(Sample{time_ms, value, route_key, 0});
    min_time_ms = std::min(min_time_ms, time_ms);
    max_time_ms = std::max(max_time_ms, time_ms);
    uint32_t* slot;
    if (route_key == kUnnamedRouteKey) {
      slot = &unnamed_slot;
    } else {
      if (last_slot.size() <= static_cast<size_t>(route_key)) {
        last_slot.resize(static_cast<size_t>(route_key) + 1, 0);
      }
      slot = &last_slot[static_cast<size_t>(route_key)];
    }
    if (*slot == 0) {
      live.push_back(RouteLast{route_key, time_ms, value, 1});
      *slot = static_cast<uint32_t>(live.size());
    } else {
      RouteLast& entry = live[*slot - 1];
      entry.count += 1;
      if (time_ms >= entry.time_ms) {  // >=: arrival order breaks time ties
        entry.time_ms = time_ms;
        entry.value = value;
      }
    }
  }
  bool empty() const { return samples.empty(); }

  // Summary internals: route -> index+1 into `live` (0 = absent), dense by
  // route index; the unnamed pseudo-route gets its own scalar.  A sibling
  // of core/sample_buffer.h's LastWinsTable, kept separate on purpose: the
  // block fold is keyed by unbounded SampleKeys with a sentinel
  // (kUnnamedRouteKey would explode a dense index), and pooled-block reuse
  // wants the explicit O(live) reset in Clear() rather than a generation
  // stamp that would have to live across pool hand-offs.
  std::vector<uint32_t> last_slot;
  uint32_t unnamed_slot = 0;
};

// Immutable routing snapshot: per route index, one SignalId per scope slot.
// Id 0 means "nothing to deliver through the span for this slot" (the sample
// was handed to that scope out-of-band through the name shim, or resolves
// nowhere by design).
struct RouteTable {
  uint32_t num_slots = 0;
  std::vector<SignalId> ids;  // [route * num_slots + slot]
  // Slots registered with a subscription filter.  A filtered slot's id-0
  // entries mean "excluded by design", so its late-drop accounting must scan
  // for them; unfiltered slots keep the O(1) whole-span count.
  std::vector<uint8_t> slot_filtered;  // [slot]; empty = none filtered
  // Per route x slot: the slot's signal has an every-sample consumer
  // (trigger/trace/aggregate/envelope/export sink, or an every-sample tap —
  // Scope::SignalNeedsHistory), so its samples must be delivered one by one
  // at drain time instead of coalescing to the block's last-wins entry.
  // Computed at BUILD time (the scopes' consumer epochs are folded into
  // RouteEpoch): attaching a trigger flips the bit at the next snapshot,
  // never via a per-sample check.  Empty = no consumer anywhere, the common
  // display-only case.
  std::vector<uint8_t> needs_history;  // [route * num_slots + slot]; empty = none

  SignalId IdFor(SampleKey route, uint32_t slot) const {
    size_t index = static_cast<size_t>(route) * num_slots + slot;
    return index < ids.size() ? ids[index] : 0;
  }
  bool SlotFiltered(uint32_t slot) const {
    return slot < slot_filtered.size() && slot_filtered[slot] != 0;
  }
  bool SlotNeedsHistory(SampleKey route, uint32_t slot) const {
    size_t index = static_cast<size_t>(route) * num_slots + slot;
    return index < needs_history.size() && needs_history[index] != 0;
  }
};

// The O(1) per-scope hand-off: a view of [begin, end) of a shared block plus
// the table/slot needed to translate route keys into this scope's SignalIds.
struct IngestSpan {
  std::shared_ptr<const IngestBlock> block;
  std::shared_ptr<const RouteTable> table;
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t slot = 0;
  // False for subscription-filtered scopes: samples with kUnnamedRouteKey
  // (the two-field single-signal form has no name to match a glob against)
  // are not this scope's to display.
  bool deliver_unnamed = true;

  size_t size() const { return end - begin; }
};

// Per-scope queue of pending spans.  Push is thread-safe (a router shared
// between loops pushes from any of them); Collect runs on the scope's loop
// thread at drain time.  Steady-state push/collect cycles are
// allocation-free once the two internal vectors have warmed up.
class IngestSpanQueue {
 public:
  struct Stats {
    int64_t spans_pushed = 0;
    int64_t samples_pushed = 0;
    // Samples from whole spans whose newest sample already missed its
    // display deadline (counted by the scope via CountLateDrops, which
    // excludes samples the name shim delivered out-of-band).
    int64_t dropped_late = 0;
    // Samples evicted because the queue exceeded its capacity (oldest spans
    // are dropped wholesale, mirroring the sample ring's oldest-first evict).
    int64_t dropped_overflow = 0;
  };

  enum class PushVerdict {
    kQueued,   // whole span accepted
    kAllLate,  // whole span late: dropped, counted
    kMixed,    // some samples late: NOT queued; caller must split per sample
  };

  explicit IngestSpanQueue(size_t max_samples)
      : max_samples_(max_samples == 0 ? 1 : max_samples) {}

  // O(1) thanks to the block's time bounds.  Thread-safe.
  PushVerdict Push(const IngestSpan& span, int64_t now_ms, int64_t delay_ms) {
    size_t n = span.size();
    if (n == 0) {
      return PushVerdict::kQueued;
    }
    const IngestBlock& block = *span.block;
    std::lock_guard<std::mutex> lock(mu_);
    if (block.max_time_ms + delay_ms < now_ms) {
      return PushVerdict::kAllLate;  // caller counts via CountLateDrops
    }
    if (block.min_time_ms + delay_ms < now_ms) {
      return PushVerdict::kMixed;
    }
    spans_.push_back(span);
    queued_samples_ += n;
    stats_.spans_pushed += 1;
    stats_.samples_pushed += static_cast<int64_t>(n);
    // Evict oldest spans wholesale when over capacity (never the span just
    // pushed: a single oversized span is always admitted, like a ring whose
    // one signal may use the whole buffer).
    size_t evict = 0;
    while (queued_samples_ > max_samples_ && evict + 1 < spans_.size()) {
      queued_samples_ -= spans_[evict].size();
      stats_.dropped_overflow += static_cast<int64_t>(spans_[evict].size());
      ++evict;
    }
    if (evict > 0) {
      spans_.erase(spans_.begin(), spans_.begin() + static_cast<ptrdiff_t>(evict));
    }
    return PushVerdict::kQueued;
  }

  // Moves every span containing at least one displayable sample (block
  // min_time + delay <= now) into *out, preserving arrival order; later
  // spans stay queued.  Caller classifies fully- vs partially-displayable
  // via the block bounds.  Thread-safe.
  void CollectDisplayable(int64_t now_ms, int64_t delay_ms, std::vector<IngestSpan>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    retained_scratch_.clear();
    for (IngestSpan& span : spans_) {
      if (span.block->min_time_ms + delay_ms <= now_ms) {
        queued_samples_ -= span.size();
        out->push_back(std::move(span));
      } else {
        retained_scratch_.push_back(std::move(span));
      }
    }
    if (retained_scratch_.empty()) {
      // Common case (everything drained): keep spans_'s warm capacity
      // instead of swap-ping-ponging it against an always-empty scratch.
      spans_.clear();
    } else {
      spans_.swap(retained_scratch_);
    }
  }

  // Called by the owner after a kAllLate verdict with the number of samples
  // that were actually this queue's to drop (shim-served ones excluded).
  void CountLateDrops(int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.dropped_late += n;
  }

  size_t queued_samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_samples_;
  }
  size_t span_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
    retained_scratch_.clear();
    queued_samples_ = 0;
  }

 private:
  size_t max_samples_;
  mutable std::mutex mu_;
  std::vector<IngestSpan> spans_;
  std::vector<IngestSpan> retained_scratch_;
  size_t queued_samples_ = 0;
  Stats stats_;
};

}  // namespace gscope

#endif  // GSCOPE_CORE_INGEST_BUS_H_
