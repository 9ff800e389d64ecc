// Deterministic single-threaded discrete-event engine.
//
// Events fire strictly in (time, insertion-sequence#) order — ties on
// time break on schedule order — so a run is a pure function of its
// inputs.  Components hold a Simulator& and schedule their own futures;
// the top-level experiment calls run_until / run_until_idle.
//
// Storage is an allocation-free slab split into two parallel arrays:
// a hot 32-byte Meta record per event (firing tick, sequence number,
// intrusive bucket link, generation, kind, sink id) and a cold record
// holding the payload — either an inline callback (InplaceFunction —
// captures up to 64 bytes never touch the heap) or a plain 64-bit sink
// item.  Every queue operation (schedule filing, cancel, bucket walks,
// cascades, batch collection) touches only the Meta array; the cold
// payload is read exactly once, at fire time.  Both arrays grow in
// fixed 256-slot chunks so addresses are stable for the life of the
// simulator — growth never relocates pending callbacks, and the fire
// path can invoke a callback in place instead of moving it out first.
// An EventId packs (generation << 32 | slot); cancel() is an O(1)
// generation bump that drops the payload immediately and leaves the
// queue entry to be reaped lazily — no hash maps, no per-event
// allocation.  Generations are 32-bit and skip 0, so a forged or
// long-stale id is rejected; a slot would need 2^32 reuses for an id to
// false-match.  Wheel arrays and slab chunks are recycled through a
// thread-local arena pool across Simulator lifetimes, so the thousands
// of short-lived simulators a campaign builds construct without
// touching the allocator (a 2.5 KB bitmap clear) after the first.
//
// The queue is a two-level timing wheel (times are integer
// microseconds): level 0 is 16384 one-microsecond buckets (16.4 ms —
// wide enough that RTT-scale events never leave it), level 1 is 4096
// buckets of 4096 us (~16.8 s horizon), and events beyond that sit
// in a small overflow min-heap.  Buckets are intrusive singly-linked
// lists threaded through the Meta slab (a push is: write meta.next,
// write bucket head, set a bitmap bit), so schedule and fire are O(1)
// — no O(log n) comparison heap on the per-event path.  Head arrays
// are deliberately left uninitialised: a head is only read when its
// occupancy bit is set, which keeps constructing a Simulator O(bitmap)
// cheap.  Level-1 buckets cascade into level 0 as the cursor reaches
// them; the earliest occupied L1 bucket is cached between refills so
// the steady state pays one L1 bitmap scan per cascade, not per tick.
// Firing order is bucket-path independent: all events due at one tick
// are collected into a batch and sorted by sequence number before
// firing.
//
// Batch dispatch (sinks).  Components that receive many same-tick
// events — flight pools draining a link tick, timers — can register a
// *sink*: a callback taking a span of 64-bit items.  schedule_item_at
// files an event exactly like schedule_at (same id space, same seq
// allocation, same (time, seq) firing order) but carries a plain item
// instead of a closure, so scheduling writes 40 bytes instead of
// constructing an 80-byte callable and firing makes no indirect
// trampoline call per event.  At fire time, maximal runs of
// consecutive-in-seq same-sink items within one tick are delivered in
// ONE sink invocation (fired count still advances per item, and obs
// sees one sim_fired per item, so metrics are batch-width invariant).
// Grouping never reorders anything: a run is only formed from items
// that would have fired back-to-back under scalar dispatch, and
// set_batch_dispatch(false) (or MN_SCALAR_DISPATCH=1) degrades every
// run to width 1 — golden tests assert byte-identical output both
// ways.  Contract: items handed to a sink are already fired — a sink
// callback that cancels an id delivered in its own current span is a
// harmless no-op (the id was invalidated when the span was formed);
// cancelling same-tick events of *other* sinks or closures from inside
// a batch works and suppresses them, exactly as under scalar dispatch.
//
// Timer wraps the schedule-cancel-reschedule pattern used by
// retransmission timeouts; it is sink-based, so a restart re-files 40
// bytes of meta instead of rebuilding a closure.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace mn {

using EventId = std::uint64_t;

/// Event callback: inline up to 64 bytes of captures (heap fallback
/// beyond that, counted by inplace_function_heap_fallbacks()).
using SimCallback = InplaceFunction<void(), 64>;

/// Sink identifier returned by Simulator::register_sink.
using SinkId = std::uint32_t;

/// One dispatch group: the payloads of a maximal same-tick same-sink
/// run of fired events, in (time, seq) order.
using SinkSpan = std::span<const std::uint64_t>;

/// Batch sink callback: receives each fired group in one call.
using SinkCallback = InplaceFunction<void(SinkSpan), 64>;

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Install (or clear, with nullptr) the run's observability hub.  The
  /// engine and every component holding this simulator record through
  /// it; with none installed each instrumentation site is a single
  /// branch on a null pointer.  The hub must outlive the simulation.
  void set_obs(obs::ObsHub* hub) { obs_ = hub; }
  [[nodiscard]] obs::ObsHub* obs() const { return obs_; }

  /// Register a batch sink.  Sinks live for the simulator's lifetime
  /// (ids are never reused) and must be registered before items for
  /// them are scheduled.  Registration may allocate — do it at setup,
  /// not on the per-event path.
  SinkId register_sink(SinkCallback cb) {
    sinks_.push_back(std::move(cb));
    return static_cast<SinkId>(sinks_.size() - 1);
  }

  /// Scalar fallback: with batch dispatch off every sink group has
  /// width 1.  Firing order, ids, seq allocation, obs counts and all
  /// outputs are identical either way — golden tests toggle this (or
  /// set MN_SCALAR_DISPATCH=1) to prove it.
  void set_batch_dispatch(bool on) { batch_dispatch_ = on; }
  [[nodiscard]] bool batch_dispatch() const { return batch_dispatch_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to >= now).
  /// Templated so the callable is constructed directly into its slab
  /// slot — the push path is fully inlined at every call site and does
  /// no intermediate relocation.
  template <class F, class = std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>>>
  EventId schedule_at(TimePoint at, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    ::new (cold_ptr(slot)) SimCallback(std::forward<F>(fn));
    Meta& m = meta_ref(slot);
    m.kind = kClosure;
    return file_slot(slot, m, at);
  }
  /// Schedule `fn` to run after `delay`.
  template <class F, class = std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>>>
  EventId schedule_after(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `item` to be delivered to `sink` at absolute time `at`
  /// (clamped to >= now).  Same ordering contract and id space as
  /// schedule_at; the payload is 8 bytes instead of a callable.
  EventId schedule_item_at(TimePoint at, SinkId sink, std::uint64_t item) {
    assert(sink < sinks_.size());
    const std::uint32_t slot = acquire_slot();
    *static_cast<std::uint64_t*>(cold_ptr(slot)) = item;
    Meta& m = meta_ref(slot);
    m.kind = kSink;
    m.sink = sink;
    return file_slot(slot, m, at);
  }
  EventId schedule_item_after(Duration delay, SinkId sink, std::uint64_t item) {
    return schedule_item_at(now_ + delay, sink, item);
  }

  /// Cancel a pending event.  Cancelling an already-fired or unknown id
  /// is a no-op (the common race when a timer fires while being reset).
  void cancel(EventId id);

  /// Run events until the queue empties or the clock would pass `deadline`.
  /// The clock is left at the last fired event (or `deadline` if reached).
  void run_until(TimePoint deadline) {
    const std::int64_t limit = deadline.usec();
    for (;;) {
      // Purge cancelled batch heads so the peek below sees a live event.
      while (batch_pos_ < batch_.size() &&
             meta_ref(batch_[batch_pos_].slot).kind == kDead) {
        reap(batch_[batch_pos_].slot);
        ++batch_pos_;
      }
      if (batch_pos_ == batch_.size() && !refill_batch(limit)) break;
      if (batch_tick_ > limit) break;  // batch held over from an unbounded step()
      step();
    }
    if (now_ < deadline) now_ = deadline;
  }
  /// Run until no events remain.
  void run_until_idle() {
    while (step()) {
    }
  }
  /// Fire the next dispatch group if one is pending; returns false when
  /// idle.  A group is one closure event, or one maximal same-tick
  /// same-sink run of items (always a single item under scalar
  /// dispatch — closures and scalar mode preserve the historical
  /// one-event-per-step granularity exactly).
  bool step() {
    for (;;) {
      while (batch_pos_ < batch_.size()) {
        const BatchItem item = batch_[batch_pos_];
        Meta& m = meta_ref(item.slot);
        if (m.kind == kDead) {
          ++batch_pos_;
          reap(item.slot);  // cancelled after the batch was built
          continue;
        }
        now_ = TimePoint{batch_tick_};
        if (m.kind == kClosure) {
          fire_closure(item, m);
        } else {
          fire_sink_group(m.sink);
        }
        return true;
      }
      if (!refill_batch(std::numeric_limits<std::int64_t>::max())) return false;
    }
  }

  /// Live (scheduled, not yet fired or cancelled) events.  Consistent
  /// at any point, including from inside a batch sink callback: the
  /// items of the in-flight span are already fired and not counted.
  [[nodiscard]] std::size_t pending_events() const {
    assert(bookkeeping_consistent());
    return live_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Audit hook: wheel/overflow/batch occupancy and the slab free list
  /// must always reconcile with the live and cancelled-but-unreaped
  /// counters:
  ///   queued entries == live events + stale entries
  ///   slab slots     == live events + stale entries + free slots
  ///                     + the slot of an in-flight closure (a firing
  ///                       closure runs in place and is freed after it
  ///                       returns; fired sink items are freed before
  ///                       their span is delivered)
  /// pending_events() asserts this in debug builds; the churn stress
  /// test checks it explicitly in every build type — including from
  /// inside callbacks mid-batch.  Walks every bucket, so debug/audit
  /// use only.
  [[nodiscard]] bool bookkeeping_consistent() const;

  /// Sum of events_fired() over every Simulator already destroyed in
  /// this process (relaxed atomic, added once per simulator at
  /// destruction — nothing on the per-event path).  The bench harness
  /// uses it to derive whole-process events/sec for BENCH_*.json.
  [[nodiscard]] static std::uint64_t process_events_fired();

 private:
  // Slot payload kind.  kDead marks free, cancelled-but-unreaped and
  // already-fired slots; liveness checks are a single meta read.
  enum : std::uint32_t { kDead = 0, kClosure = 1, kSink = 2 };

  // Hot per-event record: everything the wheel touches.  32 bytes.
  struct Meta {
    TimePoint at{0};               // firing tick (integer microseconds)
    std::uint64_t seq = 0;         // insertion order: ties fire FIFO
    std::uint32_t next = 0;        // intrusive bucket-list link
    std::uint32_t generation = 1;  // bumped on fire/cancel; 0 never used
    std::uint32_t kind = kDead;
    std::uint32_t sink = 0;        // valid iff kind == kSink
  };
  static_assert(sizeof(Meta) == 32);

  // Cold per-event payload: an engaged SimCallback iff kind == kClosure
  // (constructed on schedule, destroyed on fire/cancel), or a raw
  // 64-bit item at offset 0 iff kind == kSink.  Raw storage — managed
  // manually, keyed by meta.kind.
  struct ColdSlot {
    alignas(SimCallback) std::byte raw[sizeof(SimCallback)];
  };

  struct OverflowEntry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct BatchItem {
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr int kL0Bits = 14;                          // 16384 x 1 us
  static constexpr std::size_t kL0Size = std::size_t{1} << kL0Bits;
  static constexpr std::size_t kL0Mask = kL0Size - 1;
  static constexpr std::size_t kL0Words = kL0Size / 64;
  static constexpr int kL1Shift = 12;                         // L1 bucket = 4096 us
  static constexpr int kL1Bits = 12;                          // 4096 buckets
  static constexpr std::size_t kL1Size = std::size_t{1} << kL1Bits;
  static constexpr std::size_t kL1Mask = kL1Size - 1;
  static constexpr std::size_t kL1Words = kL1Size / 64;
  static constexpr std::int64_t kL0Horizon = std::int64_t{1} << kL0Bits;
  static constexpr std::int64_t kL1Horizon = std::int64_t{1} << (kL1Shift + kL1Bits);
  static constexpr int kChunkBits = 8;                        // 256 slots/chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  // One chunk allocation holds 256 Meta records followed by their 256
  // cold payloads: metas stay densely packed (8 KB — wheel walks and
  // cancels touch nothing else) while meta_ref and cold_ptr share a
  // single chunk-table pointer chase.
  static constexpr std::size_t kColdOffset = kChunkSize * sizeof(Meta);
  [[nodiscard]] Meta& meta_ref(std::uint32_t slot) {
    return reinterpret_cast<Meta*>(chunks_[slot >> kChunkBits].get())[slot & kChunkMask];
  }
  [[nodiscard]] const Meta& meta_ref(std::uint32_t slot) const {
    return reinterpret_cast<const Meta*>(chunks_[slot >> kChunkBits].get())[slot &
                                                                            kChunkMask];
  }
  [[nodiscard]] void* cold_ptr(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits].get() + kColdOffset +
           (slot & kChunkMask) * sizeof(ColdSlot);
  }
  [[nodiscard]] SimCallback& cold_fn(std::uint32_t slot) {
    return *static_cast<SimCallback*>(cold_ptr(slot));
  }
  // Extend the slab by one chunk, preferring the thread-local arena
  // pool (retired simulators park their chunks there) over malloc.
  void grow_slab();
  struct ArenaPool;

  /// Pop a free slot (or extend the slab).  The returned slot's meta is
  /// initialised (generation survives reuse) and kind == kDead; the
  /// caller fills the payload and calls file_slot.
  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_.empty()) {
      const std::uint32_t slot = slot_count_++;
      if ((slot >> kChunkBits) == chunks_.size()) grow_slab();
      // Chunks are raw storage; a slot's meta is constructed the first
      // time it is handed out and its generation then persists across
      // reuse.  Cold payloads are constructed per schedule.
      ::new (static_cast<void*>(&meta_ref(slot))) Meta;
      return slot;
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  /// Stamp (time, seq), file into the wheel, publish the id.
  EventId file_slot(std::uint32_t slot, Meta& m, TimePoint at) {
    if (at < now_) at = now_;
    m.at = at;
    m.seq = next_seq_++;
    enqueue(slot, m);
    ++live_;
    if (obs_ != nullptr) [[unlikely]] note_scheduled(at, m.seq);
    return (static_cast<EventId>(m.generation) << 32) | slot;
  }

  // Min-first by (time, seq) for the overflow heap; keys are unique
  // (seq never repeats), so heap mechanics cannot affect firing order.
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Heads are uninitialised storage: a head is read only when its
  // occupancy bit says a list is there, so an empty bucket's head may
  // hold garbage safely.
  void push_bucket(std::uint32_t* heads, std::uint64_t* bitmap, std::size_t bucket,
                   std::uint32_t slot) {
    std::uint64_t& word = bitmap[bucket >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (bucket & 63);
    meta_ref(slot).next = (word & bit) != 0 ? heads[bucket] : kNil;
    heads[bucket] = slot;
    word |= bit;
  }
  void push_l0(std::size_t bucket, std::uint32_t slot) {
    push_bucket(l0_head_.get(), l0_bits_.get(), bucket, slot);
    ++l0_count_;
  }
  void push_l1(std::size_t bucket, std::uint32_t slot, std::int64_t at_usec) {
    push_bucket(l1_head_.get(), l1_bits_.get(), bucket, slot);
    ++l1_count_;
    // A bucket earlier than the cached next-occupied candidate
    // invalidates the cache (refill would otherwise miss it).
    if (l1_cache_valid_ && (at_usec >> kL1Shift) << kL1Shift < l1_cache_start_) {
      l1_cache_valid_ = false;
    }
  }

  /// File `slot` into the wheel level (or overflow heap) that covers
  /// its distance from the cursor.  List order within a bucket is
  /// irrelevant — fire-time batches sort by seq.
  ///
  /// L1 admission is by *bucket* distance, not time distance: buckets
  /// are indexed by absolute time, so when the cursor sits mid-bucket
  /// an event whose time distance is just under kL1Horizon can already
  /// be a full wheel revolution away in bucket distance — filing it
  /// would wrap into the cursor's own bucket and fire a revolution
  /// early.  Such boundary events go to the overflow heap instead.
  void enqueue(std::uint32_t slot, const Meta& m) {
    const std::int64_t d = m.at.usec() - cursor_;
    if (d < kL0Horizon) {
      push_l0(static_cast<std::size_t>(m.at.usec()) & kL0Mask, slot);
    } else if ((m.at.usec() >> kL1Shift) - (cursor_ >> kL1Shift) <
               static_cast<std::int64_t>(kL1Size)) {
      push_l1((static_cast<std::size_t>(m.at.usec()) >> kL1Shift) & kL1Mask, slot,
              m.at.usec());
    } else {
      overflow_.push_back(OverflowEntry{m.at, m.seq, slot});
      std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    }
  }

  /// Put the slot back on the free list once no queue structure
  /// references it.  The generation was already bumped when the event
  /// was cancelled or fired.
  void reap(std::uint32_t slot) {
    free_.push_back(slot);
    --stale_;
  }

  // Obs hooks, outlined so the (rare) hub-present path costs the hot
  // loops exactly one predicted branch — the registry/ring writes never
  // inline into schedule_at()'s template expansions or step():
  [[gnu::noinline, gnu::cold]] void note_scheduled(TimePoint at, std::uint64_t seq) {
    obs_->sim_scheduled(now_, at, seq);
  }
  [[gnu::noinline, gnu::cold]] void note_fired(std::uint64_t seq) {
    obs_->sim_fired(now_, seq);
  }

  /// Invoke one closure event in place, then retire its slot.  The
  /// generation bump precedes the call so the event's own id is already
  /// invalid inside the callback; the slot joins the free list only
  /// after the callback returns (it runs from the cold slot it lives
  /// in).  Kept inline: this is the scalar hot path.
  void fire_closure(BatchItem item, Meta& m) {
    ++batch_pos_;
    if (++m.generation == 0) m.generation = 1;
    m.kind = kDead;
    --live_;
    ++fired_;
    if (obs_ != nullptr) [[unlikely]] note_fired(m.seq);
    SimCallback& fn = cold_fn(item.slot);
    in_flight_ = 1;
    // Slot addresses are stable (chunked slab) and the slot is not yet
    // on the free list, so the callback runs in place — no move of the
    // 64-byte buffer.  Anything it schedules lands in other slots.
    fn();
    fn.~SimCallback();
    in_flight_ = 0;
    free_.push_back(item.slot);
  }

  // Batch fire path, outlined (cold relative to single-closure steps):
  void fire_sink_group(SinkId sink);  // consume run, deliver one span

  // Cold-path machinery in the .cc:
  bool refill_batch(std::int64_t limit_usec);   // collect next tick's batch
  void cascade(std::size_t l1_bucket);          // re-file an L1 bucket into L0
  static std::size_t scan(const std::uint64_t* bitmap, std::size_t words,
                          std::size_t from);

  TimePoint now_{0};
  obs::ObsHub* obs_ = nullptr;  // optional, not owned; null = no instrumentation
  std::int64_t cursor_ = 0;     // wheel position; invariant: cursor_ <= now_.usec()
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;       // scheduled, not yet fired or cancelled
  std::size_t stale_ = 0;      // cancelled, still occupying a queue entry
  std::size_t in_flight_ = 0;  // 1 while a closure runs in place, else 0
  bool batch_dispatch_ = true;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;  // slab: stable addresses
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_;
  std::unique_ptr<std::uint32_t[]> l0_head_;  // uninitialised; bitmap-guarded
  std::unique_ptr<std::uint32_t[]> l1_head_;
  std::unique_ptr<std::uint64_t[]> l0_bits_;  // occupancy bitmaps (1 bit/bucket)
  std::unique_ptr<std::uint64_t[]> l1_bits_;
  std::size_t l0_count_ = 0;             // entries (live + stale) per level:
  std::size_t l1_count_ = 0;             // lets refill skip empty-level scans
  bool l1_cache_valid_ = false;          // cached earliest-occupied L1 bucket
  std::int64_t l1_cache_start_ = 0;      // bucket start time (usec)
  std::size_t l1_cache_bucket_ = 0;
  std::vector<OverflowEntry> overflow_;  // min-heap, events >= ~16.8 s out
  std::vector<BatchItem> batch_;         // current tick, sorted by seq
  std::size_t batch_pos_ = 0;
  std::int64_t batch_tick_ = 0;
  std::deque<SinkCallback> sinks_;       // deque: stable during dispatch
  std::vector<std::uint64_t> group_;     // scratch: items of the current span
};

/// A restartable one-shot timer (RTO, join delays, app think time...).
/// Sink-based: the fire callback is installed once at construction and
/// a restart only files a 40-byte meta entry — no per-restart closure
/// construction.  Restarts are additionally *lazy*: pushing the
/// deadline later (the overwhelmingly common case — an RTO reset on
/// every ACK) just rewrites the logical deadline and lets the already-
/// scheduled event re-arm itself when it fires early, so a restart
/// costs two field writes instead of a cancel + schedule.  Observable
/// fire times and armed() are exactly as if every restart rescheduled.
/// A Timer must outlive its Simulator use and must not be relocated
/// (the sink captures `this`).
class Timer {
 public:
  Timer(Simulator& sim, SimCallback on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {
    sink_ = sim.register_sink([this](SinkSpan) { on_physical_fire(); });
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { stop(); }

  /// (Re)arm the timer to fire after `delay` from now.
  void restart(Duration delay);
  /// Disarm; no-op if not armed.
  void stop();
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void on_physical_fire();

  Simulator& sim_;
  SimCallback on_fire_;
  SinkId sink_ = 0;
  EventId pending_ = 0;
  TimePoint deadline_{};     // logical fire time (authoritative)
  TimePoint physical_at_{};  // when the scheduled event actually fires
  bool armed_ = false;       // logical
  bool physical_ = false;    // a sim event is pending
};

}  // namespace mn
