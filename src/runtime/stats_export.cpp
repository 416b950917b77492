#include "runtime/stats_export.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace nec::runtime {
namespace {

obs::HistogramData ToHistogramData(const HistogramSnapshot& snap) {
  obs::HistogramData h;
  h.count = snap.count;
  h.sum = snap.sum_ms / 1000.0;  // Prometheus convention: seconds
  // Compress the 112-bucket surface: emit a bucket boundary only when the
  // cumulative count changes (plus the first), so a typical scrape carries
  // a dozen lines instead of 112 while preserving the exact CDF.
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::size_t i = 0; i < snap.cumulative.size(); ++i) {
    if (snap.cumulative[i] == prev &&
        i + 1 != snap.cumulative.size()) {
      continue;
    }
    prev = snap.cumulative[i];
    h.upper_bounds.push_back(LatencyHistogram::BucketUpperMs(i) / 1000.0);
    h.cumulative.push_back(snap.cumulative[i]);
  }
  return h;
}

obs::MetricFamily MakeHistogram(std::string name, std::string help,
                                const HistogramSnapshot& snap) {
  obs::MetricFamily f;
  f.name = std::move(name);
  f.help = std::move(help);
  f.type = obs::MetricType::kHistogram;
  obs::Metric m;
  m.histogram = ToHistogramData(snap);
  f.metrics.push_back(std::move(m));
  return f;
}

/// True when `bound_s` (seconds) is the canonical grid bound at `index`,
/// within the round-trip error of rendering a double with %.9g and
/// parsing it back.
bool OnGridAt(double bound_s, std::size_t index) {
  const double canon = LatencyHistogram::BucketUpperMs(index) / 1000.0;
  return std::abs(bound_s - canon) <= 1e-12 + 1e-6 * canon;
}

/// Reconstitutes a change-compressed surface onto the full canonical
/// grid. The CDF is flat between emitted bounds, so carrying the last
/// emitted cumulative forward is exact, not an approximation. False when
/// any source bound is off-grid.
bool ToCanonicalGrid(
    const obs::HistogramData& h,
    std::array<std::uint64_t, kLatencyHistogramBuckets>* cumulative,
    std::string* error) {
  cumulative->fill(0);
  std::size_t src = 0;             // next unconsumed source bound
  std::uint64_t carry = 0;         // CDF value below the next source bound
  for (std::size_t g = 0; g < kLatencyHistogramBuckets; ++g) {
    if (src < h.upper_bounds.size() && OnGridAt(h.upper_bounds[src], g)) {
      if (h.cumulative[src] < carry) {
        if (error != nullptr) *error = "bucket counts are not cumulative";
        return false;
      }
      carry = h.cumulative[src];
      ++src;
    }
    (*cumulative)[g] = carry;
  }
  if (src != h.upper_bounds.size()) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "bucket bound %.9g s is not on the canonical grid",
                    h.upper_bounds[src]);
      *error = buf;
    }
    return false;
  }
  return true;
}

}  // namespace

obs::MetricFamily HopLatencyFamily() {
  obs::MetricFamily family;
  family.name = "nec_hop_latency_seconds";
  family.help =
      "Per-hop latency decomposition of the client-router-shard path";
  family.type = obs::MetricType::kHistogram;
  for (std::size_t i = 0; i < kNumHops; ++i) {
    const Hop hop = static_cast<Hop>(i);
    const HistogramSnapshot snap = HopStats::Global().Snapshot(hop);
    if (snap.count == 0) continue;
    obs::Metric m;
    m.labels.emplace_back("hop", HopName(hop));
    m.histogram = ToHistogramData(snap);
    family.metrics.push_back(std::move(m));
  }
  return family;
}

HistogramMergeStatus MergeHistogramData(const obs::HistogramData& src,
                                        obs::HistogramData* acc,
                                        std::string* error) {
  std::array<std::uint64_t, kLatencyHistogramBuckets> src_grid{};
  if (!ToCanonicalGrid(src, &src_grid, error)) {
    return HistogramMergeStatus::kBoundaryMismatch;
  }
  std::array<std::uint64_t, kLatencyHistogramBuckets> acc_grid{};
  if (!ToCanonicalGrid(*acc, &acc_grid, error)) {
    return HistogramMergeStatus::kBoundaryMismatch;
  }
  // The merged accumulator carries the FULL grid: later sources always
  // reconstitute against it exactly, and any quantile derives from the
  // complete fleet CDF.
  acc->upper_bounds.resize(kLatencyHistogramBuckets);
  acc->cumulative.resize(kLatencyHistogramBuckets);
  for (std::size_t g = 0; g < kLatencyHistogramBuckets; ++g) {
    acc->upper_bounds[g] = LatencyHistogram::BucketUpperMs(g) / 1000.0;
    acc->cumulative[g] = acc_grid[g] + src_grid[g];
  }
  acc->count += src.count;
  acc->sum += src.sum;
  return HistogramMergeStatus::kOk;
}

std::vector<obs::MetricFamily> SnapshotToMetricFamilies(
    const RuntimeStatsSnapshot& s) {
  using obs::MakeCounter;
  using obs::MakeGauge;
  std::vector<obs::MetricFamily> out;
  out.reserve(24);

  out.push_back(MakeCounter("nec_sessions_total",
                            "Protection sessions created",
                            static_cast<double>(s.sessions)));
  out.push_back(MakeCounter("nec_chunks_processed_total",
                            "Chunks shadowed and modulated",
                            static_cast<double>(s.chunks_processed)));
  out.push_back(MakeCounter("nec_dispatches_total",
                            "Strand tasks handed to the pool, one per "
                            "backlog of ready chunks",
                            static_cast<double>(s.dispatches)));
  out.push_back(MakeCounter("nec_dispatch_rejections_total",
                            "Strand dispatches bounced by backpressure",
                            static_cast<double>(s.dispatch_rejections)));
  out.push_back(MakeCounter("nec_dispatch_drops_total",
                            "Queued strands evicted under drop-oldest",
                            static_cast<double>(s.dispatch_drops)));
  out.push_back(MakeCounter("nec_samples_submitted_total",
                            "Monitored audio samples accepted",
                            static_cast<double>(s.samples_submitted)));
  out.push_back(MakeCounter("nec_samples_dropped_total",
                            "Buffered samples discarded on eviction",
                            static_cast<double>(s.samples_dropped)));
  out.push_back(MakeGauge("nec_queue_depth",
                          "Pool queue depth at scrape time",
                          static_cast<double>(s.queue_depth)));
  out.push_back(MakeGauge("nec_queue_peak_depth",
                          "Pool queue high-watermark",
                          static_cast<double>(s.queue_peak_depth)));

  out.push_back(MakeHistogram(
      "nec_chunk_latency_seconds",
      "Per-chunk selector+broadcast wall time",
      s.chunk_latency_hist));
  out.push_back(MakeHistogram(
      "nec_chunk_e2e_latency_seconds",
      "Per-chunk end-to-end latency: ready to completed, queue wait "
      "included — judge the deadline against this",
      s.e2e_latency_hist));

  // --- Continuous batching.
  out.push_back(MakeCounter("nec_batches_dispatched_total",
                            "Batched InferBatch calls issued",
                            static_cast<double>(s.batches_dispatched)));
  out.push_back(MakeCounter("nec_batched_chunks_total",
                            "Chunks served via a batched forward",
                            static_cast<double>(s.batched_chunks)));
  out.push_back(MakeGauge("nec_max_batch_size",
                          "Largest batch dispatched so far",
                          static_cast<double>(s.max_batch_size)));
  out.push_back(MakeGauge("nec_avg_batch_size",
                          "Mean chunks per dispatched batch",
                          s.avg_batch_size));
  out.push_back(MakeHistogram("nec_queue_wait_seconds",
                              "Batcher wait: enqueue to batch dispatch",
                              s.queue_wait_hist));

  // --- Fault tolerance. One family, one sample per category label.
  {
    obs::MetricFamily faults;
    faults.name = "nec_faults_total";
    faults.help = "Session faults by error category";
    faults.type = obs::MetricType::kCounter;
    for (std::size_t i = 0; i < kNumErrorCategories; ++i) {
      obs::Metric m;
      m.labels.emplace_back(
          "category", ErrorCategoryName(static_cast<ErrorCategory>(i)));
      m.value = static_cast<double>(s.faults_by_category[i]);
      faults.metrics.push_back(std::move(m));
    }
    out.push_back(std::move(faults));
  }
  out.push_back(MakeCounter("nec_deadline_misses_total",
                            "Chunks over the deadline budget",
                            static_cast<double>(s.deadline_misses)));
  out.push_back(MakeCounter("nec_degrade_steps_down_total",
                            "Degradation-ladder demotions",
                            static_cast<double>(s.degrade_steps_down)));
  out.push_back(MakeCounter("nec_degrade_steps_up_total",
                            "Recovery-probe promotions",
                            static_cast<double>(s.degrade_steps_up)));
  out.push_back(MakeCounter("nec_chunk_retries_total",
                            "Transient-failure chunk retries",
                            static_cast<double>(s.chunk_retries)));
  out.push_back(MakeCounter("nec_batch_splits_total",
                            "Poisoned-batch bisections",
                            static_cast<double>(s.batch_splits)));
  out.push_back(MakeCounter("nec_samples_sanitized_total",
                            "NaN/Inf/wild samples repaired at Submit",
                            static_cast<double>(s.samples_sanitized)));
  out.push_back(MakeCounter("nec_bad_input_rejections_total",
                            "Submits bounced for corrupt audio",
                            static_cast<double>(s.bad_input_rejections)));
  out.push_back(MakeCounter("nec_session_resets_total",
                            "ResetSession calls",
                            static_cast<double>(s.session_resets)));
  out.push_back(MakeCounter("nec_worker_exceptions_total",
                            "Exceptions that escaped to a pool worker",
                            static_cast<double>(s.worker_exceptions)));
  return out;
}

std::string SessionStatusJson(std::size_t id, const SessionStatus& status) {
  std::string out = "{\"id\":" + std::to_string(id);
  out += ",\"state\":\"";
  out += SessionStateName(status.state);
  out += "\",\"level\":\"";
  out += DegradeLevelName(status.level);
  out += "\",\"chunks\":" + std::to_string(status.chunks_emitted);
  out += ",\"faults\":" + std::to_string(status.faults);
  out += ",\"deadline_misses\":" + std::to_string(status.deadline_misses);
  if (status.error.has_value()) {
    out += ",\"error\":{\"category\":\"";
    out += ErrorCategoryName(status.error->category);
    out += "\",\"message\":\"";
    out += obs::JsonEscape(status.error->message);
    out += "\"}";
  }
  out += "}";
  return out;
}

std::string SessionsJson(const SessionManager& manager) {
  std::string out = "{\"sessions\":[";
  const std::size_t n = manager.num_sessions();
  for (std::size_t id = 0; id < n; ++id) {
    if (id > 0) out += ',';
    out += SessionStatusJson(id, manager.SessionStatus(id));
  }
  out += "]}";
  return out;
}

}  // namespace nec::runtime
