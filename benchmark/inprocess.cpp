// In-process workloads: one generator thread driving a SessionManager.
//
// replay — closed loop: every session keeps exactly one chunk in flight
//          and submits the next as soon as the previous shadow is visible,
//          so the machine stays saturated and the continuous batcher has
//          work to coalesce. A chunk is due when the driver saw its
//          predecessor's shadow.
// rooms  — open loop: 4096-sample pieces arrive on the audio clock, each
//          session phase-shifted by 1/sessions of a second, the way
//          independent microphones would feed one box. A chunk is due when
//          the piece carrying its last sample was due.
#include <algorithm>
#include <limits>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "runtime/session_manager.h"
#include "runtime/stats.h"

namespace nec::bench {
namespace {

using runtime::SessionManager;

/// SessionManager workers: one per core of the 4-core reference box.
constexpr std::size_t kWorkers = 4;

double SnapshotQuantileMs(const runtime::HistogramSnapshot& snap, double q) {
  obs::HistogramData h;
  h.count = snap.count;
  for (std::size_t i = 0; i < snap.cumulative.size(); ++i) {
    h.upper_bounds.push_back(runtime::LatencyHistogram::BucketUpperMs(i) /
                             1000.0);
    h.cumulative.push_back(snap.cumulative[i]);
  }
  return obs::HistogramQuantile(h, q) * 1000.0;
}

struct Piece {
  double due_ms;
  std::size_t session;
  std::size_t begin, end;  ///< sample range of the session's stream
};

struct Live {
  std::size_t submitted_samples = 0;
  std::size_t delivered = 0;   ///< chunks whose shadow is complete
  std::vector<float> pending;  ///< partial shadow not yet a whole chunk
  std::size_t cached_chunk = ~std::size_t{0};
  std::vector<float> chunk_buf = std::vector<float>(kChunkSamples);
  bool stopped = false;        ///< closed loop: no further submissions
};

}  // namespace

RunResult RunInProcess(const WorkloadSpec& w, const Inputs& inputs,
                       const RunOptions& options, LayerSamples* layer_samples) {
  RunResult r;
  const std::size_t n = w.sessions;

  // Input synthesis is the driver's own work, done before set-up.
  std::vector<std::vector<audio::Waveform>> refs(n);
  for (std::size_t i = 0; i < n; ++i) refs[i] = inputs.References(i);
  const double rss_before_kb = ProcStatusKb(0, "VmRSS");

  const SessionManager::Options manager_options{
      .workers = kWorkers,
      .queue_capacity = 1024,
      .chunk_s = 1.0,
      .kind = core::SelectorKind::kNeural,
      .max_batch = w.max_batch,
      .deadline_ms = kDeadlineMs};
  std::unique_ptr<SessionManager> manager;
  std::vector<SessionManager::SessionId> ids;
  std::vector<double> open_ms;
  for (std::size_t rep = 0; rep < options.setup_reps; ++rep) {
    manager.reset();
    ids.clear();
    open_ms.clear();
    const auto t = Clock::now();
    manager = std::make_unique<SessionManager>(
        MakeSelector(w.model), MakeEncoder(w.model), core::PipelineOptions{},
        manager_options);
    for (std::size_t i = 0; i < n; ++i) {
      const auto a = Clock::now();
      ids.push_back(manager->CreateSession(refs[i]));
      open_ms.push_back(MsBetween(a, Clock::now()));
    }
    r.setup_s.push_back(MsBetween(t, Clock::now()) / 1e3);
  }

  r.sessions.resize(n);
  std::vector<Live> live(n);

  // Open-loop schedule; the closed loop derives due times as it goes.
  std::vector<Piece> pieces;
  if (!w.closed_loop) {
    const std::size_t chunks = ChunksPerSession(options.seconds);
    const std::size_t total = chunks * kChunkSamples;
    const double stagger_ms = 1000.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      SessionLog& log = r.sessions[i];
      log.due_ms.resize(chunks);
      for (std::size_t b = 0; b < total; b += w.piece_samples) {
        const std::size_t e = std::min(b + w.piece_samples, total);
        const double due = static_cast<double>(i) * stagger_ms +
                           static_cast<double>(e) * 1000.0 / kInputRate;
        pieces.push_back({due, i, b, e});
        for (std::size_t k = b / kChunkSamples; k < chunks; ++k) {
          const std::size_t last = (k + 1) * kChunkSamples - 1;
          if (last >= e) break;
          if (last >= b) log.due_ms[k] = due;
        }
      }
    }
    std::stable_sort(pieces.begin(), pieces.end(),
                     [](const Piece& a, const Piece& b) {
                       return a.due_ms < b.due_ms;
                     });
  }

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point stop_at =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(options.seconds));
  const Clock::time_point give_up = stop_at + std::chrono::seconds(30);
  std::vector<float> piece_buf;
  std::size_t bytes_moved = 0;

  // `completes`: flow id of the chunk whose last sample this submission
  // carries, or 0.
  const auto submit = [&](std::size_t i, std::span<const float> samples,
                          std::uint64_t completes) {
    const auto a = Clock::now();
    MarkChunk(completes, true);
    const runtime::SubmitResult res = manager->Submit(ids[i], samples);
    if (layer_samples != nullptr) {
      const auto b = Clock::now();
      RecordSpan("api.submit", a, b, completes);
      (*layer_samples)["api.submit_us"].push_back(MsBetween(a, b) * 1e3);
    }
    if (!res.ok() && !r.sessions[i].error) {
      r.sessions[i].error = "submit: " + res.error->message;
    }
    live[i].submitted_samples += samples.size();
    bytes_moved += samples.size() * sizeof(float);
  };
  // Closed loop: submit chunk `k` of session `i`, due at `due_ms`.
  const auto submit_chunk = [&](std::size_t i, double due_ms) {
    SessionLog& log = r.sessions[i];
    const std::size_t k = log.due_ms.size();
    log.due_ms.push_back(due_ms);
    inputs.FillChunk(i, k, live[i].chunk_buf.data());
    r.lateness_ms.push_back(MsBetween(t0, Clock::now()) - due_ms);
    submit(i, live[i].chunk_buf, ChunkFlow(i, k));
  };
  const auto send_piece = [&](const Piece& p) {
    Live& s = live[p.session];
    piece_buf.resize(p.end - p.begin);
    for (std::size_t pos = p.begin; pos < p.end;) {
      const std::size_t c = pos / kChunkSamples;
      if (s.cached_chunk != c) {
        inputs.FillChunk(p.session, c, s.chunk_buf.data());
        s.cached_chunk = c;
      }
      const std::size_t upto = std::min(p.end, (c + 1) * kChunkSamples);
      std::copy(s.chunk_buf.begin() + (pos - c * kChunkSamples),
                s.chunk_buf.begin() + (upto - c * kChunkSamples),
                piece_buf.begin() + (pos - p.begin));
      pos = upto;
    }
    r.lateness_ms.push_back(MsBetween(t0, Clock::now()) - p.due_ms);
    const std::size_t complete = p.end / kChunkSamples;
    submit(p.session, piece_buf,
           complete > p.begin / kChunkSamples
               ? ChunkFlow(p.session, complete - 1)
               : 0);
  };

  Clock::time_point last_delivery = t0;
  const auto collect = [&](std::size_t i) {
    Clock::time_point since{};
    const auto a = Clock::now();
    audio::Waveform out = manager->TakeOutput(ids[i], &since);
    if (out.empty()) return;
    const auto b = Clock::now();
    last_delivery = b;
    bytes_moved += out.size() * sizeof(float);
    if (layer_samples != nullptr) {
      RecordSpan("api.take_output", a, b);
      (*layer_samples)["api.collect_us"].push_back(MsBetween(a, b) * 1e3);
      (*layer_samples)["runtime.output_wait_ms"].push_back(
          MsBetween(since, b));
    }
    SessionLog& log = r.sessions[i];
    Live& s = live[i];
    // Shadow normally arrives in whole chunks; only a split chunk is
    // copied aside until the rest of it arrives.
    const bool carried = !s.pending.empty();
    if (carried) {
      s.pending.insert(s.pending.end(), out.samples().begin(),
                       out.samples().end());
    }
    const std::span<const float> shadow =
        carried ? std::span<const float>(s.pending) : out.samples();
    std::size_t used = 0;
    while (shadow.size() - used >= kOutputSamplesPerChunk) {
      const std::size_t k = s.delivered++;
      const ChunkDigest d =
          DigestChunk(shadow.subspan(used, kOutputSamplesPerChunk));
      used += kOutputSamplesPerChunk;
      if (k >= log.due_ms.size()) {
        log.extra_output = true;
        continue;
      }
      log.hashes.push_back(d.hash);
      log.nonfinite |= !d.finite;
      log.delivered_ms.push_back(MsBetween(t0, b));
      MarkChunk(ChunkFlow(i, k), false);
      if (w.closed_loop && !s.stopped) {
        if (b < stop_at) {
          // A closed-loop client sends its next chunk when it receives the
          // previous shadow, so that is when the next one is due.
          submit_chunk(i, MsBetween(t0, b));
        } else {
          s.stopped = true;
        }
      }
    }
    if (carried) {
      s.pending.erase(s.pending.begin(),
                      s.pending.begin() + static_cast<std::ptrdiff_t>(used));
    } else {
      s.pending.assign(shadow.begin() + static_cast<std::ptrdiff_t>(used),
                       shadow.end());
    }
    if (layer_samples != nullptr && used > 0) {
      RecordSpan("bench.digest", b, Clock::now());
    }
  };

  std::this_thread::sleep_until(t0);
  // The hop histograms are process-global: drop what set-up or a discarded
  // measurement left in them.
  runtime::HopStats::Global().Reset();
  const double cpu0 = SelfCpuMs();
  const double gen0 = ThreadCpuMs();
  // Closed loop: sessions join kRampMs apart (a burst due all at t0 would
  // make the generator itself the bottleneck), then each resubmits as its
  // shadow arrives.
  constexpr double kRampMs = 1.0;
  std::size_t started = w.closed_loop ? 0 : n;
  std::size_t next_piece = 0;
  for (;;) {
    while (started < n && MsBetween(t0, Clock::now()) >=
                              kRampMs * static_cast<double>(started)) {
      submit_chunk(started, kRampMs * static_cast<double>(started));
      ++started;
    }
    while (next_piece < pieces.size() &&
           MsBetween(t0, Clock::now()) >= pieces[next_piece].due_ms) {
      send_piece(pieces[next_piece++]);
    }
    bool outstanding = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i].delivered * kChunkSamples < live[i].submitted_samples) {
        collect(i);
      }
      outstanding |= live[i].delivered * kChunkSamples <
                         live[i].submitted_samples &&
                     !r.sessions[i].error;
    }
    if (next_piece == pieces.size() && started == n && !outstanding) break;
    const auto now = Clock::now();
    if (now > give_up) break;
    auto wake = now + std::chrono::milliseconds(1);
    const auto at = [&](double ms) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
    };
    if (next_piece < pieces.size()) {
      wake = std::min(wake, at(pieces[next_piece].due_ms));
    }
    if (started < n) {
      wake = std::min(wake, at(kRampMs * static_cast<double>(started)));
    }
    std::this_thread::sleep_until(wake);
  }
  r.gen_cpu_ms = ThreadCpuMs() - gen0;
  r.serve_cpu_ms = SelfCpuMs() - cpu0 - r.gen_cpu_ms;
  r.window_s = MsBetween(t0, last_delivery) / 1e3;
  r.rss_mb = (ProcStatusKb(0, "VmHWM") - rss_before_kb) / 1024.0;

  std::size_t delivered_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SessionLog& log = r.sessions[i];
    log.delivered_ms.resize(log.due_ms.size(),
                            std::numeric_limits<double>::infinity());
    delivered_total += live[i].delivered;
    const runtime::SessionStatus status = manager->SessionStatus(ids[i]);
    if (status.error && !log.error) log.error = status.error->message;
  }

  if (layer_samples != nullptr) {
    LayerSamples& samples = *layer_samples;
    const runtime::RuntimeStatsSnapshot stats = manager->Stats();
    const double chunks =
        static_cast<double>(std::max<std::size_t>(1, delivered_total));
    r.layer["runtime.compute_p50_ms"] = {stats.chunk_latency.p50_ms, "ms"};
    r.layer["runtime.compute_p99_ms"] = {stats.chunk_latency.p99_ms, "ms"};
    r.layer["runtime.e2e_internal_p99_ms"] = {stats.e2e_latency.p99_ms, "ms"};
    r.layer["runtime.queue_wait_p99_ms"] = {
        SnapshotQuantileMs(
            runtime::HopStats::Global().Snapshot(runtime::Hop::kShardQueue),
            0.99),
        "ms"};
    r.layer["runtime.avg_batch_size"] = {
        stats.batches_dispatched > 0 ? stats.avg_batch_size : 1.0, "items"};
    r.layer["runtime.output_wait_p99_ms"] = {
        Quantile(samples["runtime.output_wait_ms"], 0.99), "ms"};
    r.layer["api.open_p50_ms"] = {Median(open_ms), "ms"};
    r.layer["api.submit_p99_us"] = {
        Quantile(samples["api.submit_us"], 0.99), "us"};
    r.layer["api.collect_p99_us"] = {
        Quantile(samples["api.collect_us"], 0.99), "us"};
    r.layer["api.bytes_per_chunk"] = {static_cast<double>(bytes_moved) / chunks,
                                      "B"};
  }
  manager.reset();
  return r;
}

}  // namespace nec::bench
