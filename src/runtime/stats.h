// Runtime observability: atomic counters plus a latency histogram.
//
// Every per-chunk pass through the runtime records its selector+broadcast
// wall-clock into a log-spaced histogram with atomic buckets, so recording
// from many workers is wait-free and never perturbs the latencies being
// measured. Snapshot() folds everything into a plain struct the daemon and
// benches print; quantiles are read from the bucket CDF (resolution ~11%
// per bucket, plenty for a p99-vs-300 ms deadline check, §IV-C2).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/fault.h"

namespace nec::runtime {

struct LatencyQuantiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t count = 0;
};

/// Number of log-spaced buckets in every LatencyHistogram.
inline constexpr std::size_t kLatencyHistogramBuckets = 112;

/// Full bucket surface of a LatencyHistogram at one moment, in
/// Prometheus-friendly cumulative form: cumulative[i] observations were
/// <= BucketUpperMs(i). Exported verbatim by the /metrics endpoint so a
/// scraper can aggregate across processes and derive any quantile.
struct HistogramSnapshot {
  std::array<std::uint64_t, kLatencyHistogramBuckets> cumulative{};
  std::uint64_t count = 0;
  double sum_ms = 0.0;
  double max_ms = 0.0;
};

/// Fixed log-spaced histogram over (0, ~12 s]; thread-safe, wait-free
/// recording. Bucket i spans [kMinMs*G^i, kMinMs*G^(i+1)) with G = 1.11,
/// so a reported quantile is within one bucket ratio of the true value.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = kLatencyHistogramBuckets;
  static constexpr double kMinMs = 0.1;
  static constexpr double kGrowth = 1.11;

  void Record(double ms);

  /// Quantiles over everything recorded so far. Concurrent Records may or
  /// may not be included (snapshot is not a barrier).
  LatencyQuantiles Quantiles() const;

  /// The full cumulative bucket surface (exported to /metrics). Same
  /// consistency as Quantiles(): concurrent Records may be torn across
  /// buckets, never corrupted.
  HistogramSnapshot Buckets() const;

  /// Inclusive upper bound of bucket `index` in ms (kMinMs * G^index).
  static double BucketUpperMs(std::size_t index);

  /// Fleet aggregation: bucket-wise sum of two snapshots of the SAME
  /// fixed grid (counts and sums add, maxima take the larger). Merge is
  /// associative and commutative — `Merge(a, b) == Merge(b, a)` and
  /// folding N shards in any order yields the same fleet CDF — which is
  /// what lets the router scrape members independently and add them up.
  static HistogramSnapshot Merge(const HistogramSnapshot& a,
                                 const HistogramSnapshot& b);

  void Reset();

 private:
  static std::size_t BucketIndex(double ms);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> max_us_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

// -------------------------------------------------- per-hop latency
// Where did an end-to-end millisecond go once the chunk crossed the
// wire? Each boundary on the client → router → shard → client path
// records its share into one histogram of a process-global family, so
// e2e p99 decomposes into visible hops and the dominant one is
// machine-identifiable from a single scrape (DESIGN.md §5g).

enum class Hop : std::uint8_t {
  kRouterQueue = 0,   ///< chunk frame decoded → queued on the upstream
  kUpstreamWrite,     ///< upstream buffer → bytes accepted by the shard
  kShardQueue,        ///< shard: samples ready → compute starts
  kShardCompute,      ///< shard: selector + broadcast wall time
  kReply,             ///< shard: output produced → reply frame encoded
};
inline constexpr std::size_t kNumHops = 5;

/// Prometheus label value for the hop ("router_queue", ...).
const char* HopName(Hop hop);

/// Process-global, always-on per-hop histograms. Recording is the same
/// wait-free atomic path as every LatencyHistogram — cheap enough to
/// stay unconditional, so the hop decomposition needs no opt-in flag.
class HopStats {
 public:
  static HopStats& Global();

  void Record(Hop hop, double ms) {
    hops_[static_cast<std::size_t>(hop)].Record(ms);
  }
  HistogramSnapshot Snapshot(Hop hop) const {
    return hops_[static_cast<std::size_t>(hop)].Buckets();
  }
  /// Tests own the process-global instance.
  void Reset() {
    for (auto& h : hops_) h.Reset();
  }

 private:
  HopStats() = default;
  std::array<LatencyHistogram, kNumHops> hops_;
};

/// Largest batch size tracked exactly by the batch-size histogram; larger
/// batches fold into the last bucket.
inline constexpr std::size_t kMaxTrackedBatch = 32;

/// One coherent view of the runtime, cheap enough to print every second.
struct RuntimeStatsSnapshot {
  std::uint64_t sessions = 0;          ///< sessions created
  std::uint64_t chunks_processed = 0;  ///< full chunks shadowed + modulated
  std::uint64_t dispatches = 0;        ///< strand tasks handed to the pool
  std::uint64_t dispatch_rejections = 0;  ///< pool bounced a strand (kReject)
  std::uint64_t dispatch_drops = 0;  ///< queued strands evicted (kDropOldest)
  std::uint64_t samples_submitted = 0;
  std::uint64_t samples_dropped = 0;  ///< buffered audio discarded on evict
  std::size_t queue_depth = 0;  ///< pool queue depth at snapshot time
  LatencyQuantiles chunk_latency;  ///< per-chunk selector+broadcast wall ms
  HistogramSnapshot chunk_latency_hist;  ///< full buckets behind ^
  /// End-to-end per-chunk latency: ready (the session's buffer reached a
  /// full chunk / batcher enqueue) → completion, queue wait INCLUDED.
  /// This is the honest number to judge the 300 ms deadline against —
  /// `chunk_latency` above is processing time only and can report a
  /// healthy p99 while chunks rot in a queue for seconds.
  LatencyQuantiles e2e_latency;
  HistogramSnapshot e2e_latency_hist;  ///< full buckets behind ^

  // --- Micro-batching (zero everywhere when batching is off).
  std::uint64_t batches_dispatched = 0;  ///< InferBatch calls issued
  std::uint64_t batched_chunks = 0;      ///< chunks served via a batch
  std::uint64_t max_batch_size = 0;
  double avg_batch_size = 0.0;
  /// size_counts[s] = batches of size s (s > kMaxTrackedBatch folds into
  /// the last bucket; index 0 is unused).
  std::array<std::uint64_t, kMaxTrackedBatch + 1> batch_size_counts{};
  /// Coalescer queue wait per chunk: enqueue → batch dispatch.
  LatencyQuantiles queue_wait;
  HistogramSnapshot queue_wait_hist;  ///< full buckets behind ^

  // --- Fault tolerance (DESIGN.md §5f; zero everywhere on a clean run).
  std::uint64_t faults = 0;  ///< sessions transitioned to kFaulted
  /// Faults broken down by ErrorCategory (index = category value).
  std::array<std::uint64_t, kNumErrorCategories> faults_by_category{};
  std::uint64_t deadline_misses = 0;   ///< chunks over the deadline budget
  std::uint64_t degrade_steps_down = 0;  ///< ladder demotions
  std::uint64_t degrade_steps_up = 0;    ///< recovery-probe promotions
  std::uint64_t chunk_retries = 0;     ///< transient-failure chunk retries
  std::uint64_t batch_splits = 0;      ///< poisoned-batch bisections
  std::uint64_t samples_sanitized = 0;  ///< NaN/Inf/wild samples repaired
  std::uint64_t bad_input_rejections = 0;  ///< Submits bounced (kReject)
  std::uint64_t session_resets = 0;    ///< ResetSession() calls
  /// Tasks whose exception escaped to the pool worker (last-resort catch;
  /// always 0 when SessionManager's per-session containment is intact).
  std::uint64_t worker_exceptions = 0;
  std::size_t queue_peak_depth = 0;  ///< pool queue high-watermark
};

/// Pool-owned values sampled at snapshot time (the stats object does not
/// know the pool).
struct PoolSample {
  std::size_t queue_depth = 0;
  std::uint64_t dispatch_drops = 0;
  std::size_t queue_peak_depth = 0;
  std::uint64_t worker_exceptions = 0;
};

/// Shared mutable counters behind the snapshot; every field is atomic so
/// workers update them without coordination.
class RuntimeStats {
 public:
  void AddSession() { sessions_.fetch_add(1, kRelaxed); }
  void AddChunk(double latency_ms) {
    chunks_.fetch_add(1, kRelaxed);
    latency_.Record(latency_ms);
  }
  /// End-to-end (ready → complete) latency of one chunk; the companion
  /// AddChunk call owns the chunk count.
  void AddChunkE2E(double latency_ms) { e2e_latency_.Record(latency_ms); }
  void AddDispatch() { dispatches_.fetch_add(1, kRelaxed); }
  void AddDispatchRejection() { rejections_.fetch_add(1, kRelaxed); }
  void AddSamples(std::uint64_t n) { samples_.fetch_add(n, kRelaxed); }
  void AddSamplesDropped(std::uint64_t n) {
    samples_dropped_.fetch_add(n, kRelaxed);
  }

  /// One coalesced InferBatch dispatch of `batch_size` chunks.
  void AddBatch(std::size_t batch_size);

  /// Time one chunk sat in the coalescer before its batch dispatched.
  void AddQueueWait(double ms) { queue_wait_.Record(ms); }

  // --- Fault tolerance.
  void AddFault(ErrorCategory category) {
    faults_[static_cast<std::size_t>(category)].fetch_add(1, kRelaxed);
  }
  void AddDeadlineMiss() { deadline_misses_.fetch_add(1, kRelaxed); }
  void AddDegradeDown() { degrade_down_.fetch_add(1, kRelaxed); }
  void AddDegradeUp() { degrade_up_.fetch_add(1, kRelaxed); }
  void AddRetry() { retries_.fetch_add(1, kRelaxed); }
  void AddBatchSplit() { batch_splits_.fetch_add(1, kRelaxed); }
  void AddSanitized(std::uint64_t n) {
    if (n > 0) sanitized_.fetch_add(n, kRelaxed);
  }
  void AddBadInputRejection() { bad_input_.fetch_add(1, kRelaxed); }
  void AddSessionReset() { resets_.fetch_add(1, kRelaxed); }

  /// Pool-owned counters are sampled by the caller into `pool`.
  RuntimeStatsSnapshot Snapshot(const PoolSample& pool) const;
  RuntimeStatsSnapshot Snapshot() const { return Snapshot(PoolSample{}); }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> rejections_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> samples_dropped_{0};
  LatencyHistogram latency_;
  LatencyHistogram e2e_latency_;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_chunks_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::array<std::atomic<std::uint64_t>, kMaxTrackedBatch + 1>
      batch_size_counts_{};
  LatencyHistogram queue_wait_;

  std::array<std::atomic<std::uint64_t>, kNumErrorCategories> faults_{};
  std::atomic<std::uint64_t> deadline_misses_{0};
  std::atomic<std::uint64_t> degrade_down_{0};
  std::atomic<std::uint64_t> degrade_up_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> batch_splits_{0};
  std::atomic<std::uint64_t> sanitized_{0};
  std::atomic<std::uint64_t> bad_input_{0};
  std::atomic<std::uint64_t> resets_{0};
};

}  // namespace nec::runtime
