// Pipeline tracing: wait-free per-thread span recording, exported as
// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
//
// The runtime's aggregate RuntimeStats quantiles say *that* a chunk was
// slow; a trace says *where* it spent its time — STFT vs. selector forward
// vs. inverse STFT vs. AM modulation, and in the serving layer submit →
// coalesce → batch dispatch → strand run. Every pipeline stage wraps
// itself in NEC_TRACE_SPAN(name); the recorder timestamps the scope with a
// steady nanosecond clock and appends one fixed-size event to the calling
// thread's private ring buffer. Batch spans carry flow ids that link the
// batched selector forward back to each member chunk's completion span.
//
// Cost contract (checked by tests/test_hot_path.cpp, which holds the
// disabled span sites of one chunk within 2 % of it): tracing is compiled in
// everywhere but DISABLED by default, and a disabled span site costs one
// relaxed atomic load plus a predictable branch — no clock read, no
// allocation, no store. Enabled recording is wait-free: each thread owns
// its ring (registered once per thread under a mutex), so recording never
// contends with other threads or perturbs the latencies being measured.
// When a ring wraps, the oldest events are overwritten and counted as
// dropped — a trace is a recent-history window, not an unbounded log.
//
// Snapshot contract: WriteChromeTrace / events_recorded / events_dropped
// are safe to call WHILE other threads record — each ring carries a tiny
// spinlock that the owner takes per event and the exporter takes per ring
// copy, so a live `GET /trace` sees a consistent recent-history window
// without stopping the daemon. Enable / Disable / Clear remain
// control-plane calls: invoke them with no concurrent span recording
// (necd flips tracing at startup, tests after joining their threads).
// The enabled() flip itself is safe at any time — in-flight TraceSpans
// that observed the old value simply finish (or skip) their one event.
//
// Flow ids are process-salted: NextFlowId() packs a per-process random
// salt in the high 32 bits and a counter in the low 32, so flows minted
// by different fleet members never collide when `necctl trace` merges
// their rings into one file. A flow id carried over the wire
// (kTraceContext) keeps its origin's salt end to end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace nec::obs {

namespace internal {
struct ThreadRing;  // one thread's private event ring (trace.cpp)
}  // namespace internal

/// Steady nanoseconds since an arbitrary process-wide anchor. One clock
/// read; the common currency between spans and the runtime's ms
/// accounting (ns / 1e6 is the ms the rest of the codebase reports).
std::uint64_t TraceNowNs();

enum class TraceEventKind : std::uint8_t {
  kSpan,       ///< complete duration event (Chrome "X")
  kInstant,    ///< point-in-time marker (Chrome "i"), e.g. a fault
  kFlowBegin,  ///< flow arrow tail (Chrome "s"), e.g. chunk enqueued
  kFlowEnd,    ///< flow arrow head (Chrome "f"), e.g. chunk completed
};

/// One recorded event. POD on purpose: recording is a struct copy into the
/// thread's ring. `name`/`category` must point at static-storage strings
/// (string literals) — the export may run long after the scope ended.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;  ///< TraceNowNs() at scope entry
  std::uint64_t dur_ns = 0;    ///< kSpan only
  std::uint64_t flow_id = 0;   ///< nonzero links events across threads
  std::uint64_t arg = kNoArg;  ///< numeric payload (session id, batch size)
  std::uint32_t tid = 0;       ///< dense per-process thread index
  TraceEventKind kind = TraceEventKind::kSpan;

  static constexpr std::uint64_t kNoArg = ~std::uint64_t{0};
};

/// Process-wide trace recorder (mirrors FaultInjector::Global()).
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

  static TraceRecorder& Global();

  /// Arms span recording. Rings (existing and future) hold
  /// `ring_capacity` events each; an already-registered thread's ring is
  /// cleared and resized. Quiescence contract applies.
  void Enable(std::size_t ring_capacity = kDefaultRingCapacity);
  void Disable();

  /// The only cost at a disabled span site.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Fresh nonzero flow id for linking events across threads — and, via
  /// the per-process salt in the high bits, across processes.
  std::uint64_t NextFlowId();

  /// Appends a complete span with explicit timestamps. No-op while
  /// disabled. Wait-free after the calling thread's first record. Explicit
  /// timestamps let a caller that already timed an interval (the runtime's
  /// shard.compute accounting) feed the same clock reads to both the
  /// aggregate counters and the trace.
  void RecordSpan(const char* name, const char* category,
                  std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t flow_id = 0,
                  std::uint64_t arg = TraceEvent::kNoArg);

  /// Appends an instant marker stamped now. No-op while disabled.
  void RecordInstant(const char* name, const char* category,
                     std::uint64_t arg = TraceEvent::kNoArg);

  /// Appends a flow endpoint stamped now. No-op while disabled.
  void RecordFlow(TraceEventKind kind, const char* name,
                  std::uint64_t flow_id);

  /// Names the calling thread in the exported trace ("worker-0",
  /// "coalescer"). Safe any time; `name` must be static-storage.
  static void SetThreadName(const char* name);

  /// Discards every recorded event (ring contents + drop counters).
  /// Quiescence contract applies.
  void Clear();

  /// Events currently held across all rings.
  std::uint64_t events_recorded() const;
  /// Events overwritten by ring wraparound (recorded - held).
  std::uint64_t events_dropped() const;

  /// Writes `{"traceEvents": [...]}` Chrome trace JSON: one "M" metadata
  /// event per named thread, then every held event in ring order.
  /// Timestamps are microseconds (`ts`/`dur`), pid is fixed at 1 (the
  /// cross-process merger in necctl remaps it per source). Safe while
  /// other threads record — each ring is copied under its snapshot lock.
  void WriteChromeTrace(std::ostream& os) const;

  /// WriteChromeTrace to a string (tests, small traces).
  std::string ChromeTraceJson() const;

 private:
  TraceRecorder() = default;

  internal::ThreadRing* RingForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_flow_id_{0};
};

/// RAII span scope. Construction latches enabled() once — one relaxed
/// load — and reads the clock only when tracing is on; destruction records
/// the complete span. SetFlow links the span to a flow arrow.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "nec",
                     std::uint64_t arg = TraceEvent::kNoArg)
      : start_ns_(TraceRecorder::Global().enabled() ? TraceNowNs() : 0),
        name_(name),
        category_(category),
        arg_(arg) {}

  ~TraceSpan() {
    if (start_ns_ != 0) {
      TraceRecorder::Global().RecordSpan(name_, category_, start_ns_,
                                         TraceNowNs() - start_ns_, flow_id_,
                                         arg_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void SetFlow(std::uint64_t flow_id) { flow_id_ = flow_id; }
  void SetArg(std::uint64_t arg) { arg_ = arg; }
  /// True when this scope is actually recording (tracing was enabled).
  bool armed() const { return start_ns_ != 0; }

 private:
  const std::uint64_t start_ns_;
  const char* name_;
  const char* category_;
  std::uint64_t flow_id_ = 0;
  std::uint64_t arg_;
};

#define NEC_OBS_CAT2(a, b) a##b
#define NEC_OBS_CAT(a, b) NEC_OBS_CAT2(a, b)

/// Scoped span for the enclosing block. `name` must be a string literal.
#define NEC_TRACE_SPAN(name) \
  ::nec::obs::TraceSpan NEC_OBS_CAT(nec_trace_span_, __LINE__)(name)
#define NEC_TRACE_SPAN_ARG(name, arg) \
  ::nec::obs::TraceSpan NEC_OBS_CAT(nec_trace_span_, __LINE__)(name, "nec", \
                                                               (arg))

/// Instant marker (fault, demotion, drop). Cheap call; checks enabled()
/// internally — use freely on cold paths.
inline void TraceInstant(const char* name,
                         std::uint64_t arg = TraceEvent::kNoArg) {
  TraceRecorder& r = TraceRecorder::Global();
  if (r.enabled()) r.RecordInstant(name, "nec", arg);
}

}  // namespace nec::obs
