// nec_bench — the serving benchmark of record for NEC (see README.md).
//
//   nec_bench --workload replay|rooms|fleet|churn --seed N --seconds S
//             --trace 0|1 [--self-test] [--smoke] --necd PATH --out DIR
//
// Runs one workload from one generator thread, checks every verified
// session's shadow against a sequential StreamingProcessor reference, prints
// a human-readable report and, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics when
// --trace 0, per-layer metrics (stage probe + spans + counters) when
// --trace 1. Exit status: 0 ok; 1 outputs wrong or operations failed;
// 2 usage or set-up failure (no result line); 3 run invalid (generator late,
// too few tail samples, or the stage ledger does not add up).
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "obs/trace.h"

namespace nec::bench {
namespace {

constexpr double kMaxGeneratorLateP99Ms = 5.0;
/// A tail percentile needs at least this many samples beyond it.
constexpr double kMinTailSamples = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  bool smoke = false;
  std::string necd;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "nec_bench: %s\nusage: nec_bench --workload "
               "replay|rooms|fleet|churn --seed N --seconds S --trace 0|1 "
               "[--self-test] [--smoke] --necd PATH --out DIR\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--self-test") {
      a.self_test = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--necd") {
      a.necd = value();
    } else if (flag == "--out") {
      a.out_dir = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.seconds < 1.0 || a.seconds > 120.0) Usage("--seconds must be 1..120");
  return a;
}

struct VerifyOutcome {
  std::size_t sessions = 0;
  std::size_t chunks = 0;
  std::size_t mismatched = 0;
  std::string first_problem;
};

/// Replays each verified session through a sequential StreamingProcessor
/// (same model, same seed enrollment, same chunks) and compares digests.
/// `corrupt` flips one sample of the first verified session's reference.
VerifyOutcome Verify(Model model, const Inputs& inputs,
                     const std::vector<SessionLog>& sessions, bool corrupt) {
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i].verify && !sessions[i].hashes.empty()) todo.push_back(i);
  }
  const auto selector = MakeSelector(model);
  const auto encoder = MakeEncoder(model);
  std::vector<std::size_t> mismatched(todo.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    std::vector<float> chunk(kChunkSamples);
    for (std::size_t t; (t = next.fetch_add(1)) < todo.size();) {
      const std::size_t s = todo[t];
      const SessionLog& log = sessions[s];
      core::NecPipeline pipeline(selector, encoder, {});
      pipeline.Enroll(inputs.References(s));
      core::StreamingProcessor proc(pipeline, 1.0,
                                    core::SelectorKind::kNeural);
      for (std::size_t k = 0; k < log.hashes.size(); ++k) {
        inputs.FillChunk(s, k, chunk.data());
        std::optional<audio::Waveform> out = proc.Push(chunk);
        if (!out || out->size() != kOutputSamplesPerChunk) {
          ++mismatched[t];
          continue;
        }
        if (corrupt && t == 0 && k == 0) {
          (*out)[0] = std::bit_cast<float>(
              std::bit_cast<std::uint32_t>((*out)[0]) ^ 1u);
        }
        mismatched[t] += DigestChunk(out->samples()).hash != log.hashes[k];
      }
    }
  };
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& th : pool) th.join();

  VerifyOutcome v;
  v.sessions = todo.size();
  for (std::size_t t = 0; t < todo.size(); ++t) {
    v.chunks += sessions[todo[t]].hashes.size();
    v.mismatched += mismatched[t];
    if (mismatched[t] > 0 && v.first_problem.empty()) {
      v.first_problem = "session " + std::to_string(todo[t]) +
                        ": " + std::to_string(mismatched[t]) +
                        " chunk(s) differ from the reference";
    }
  }
  return v;
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::printf("  %-34s %14s %s\n", name.c_str(), FormatNumber(m.value).c_str(),
              m.unit.c_str());
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace nec::bench

int main(int argc, char** argv) {
  using namespace nec::bench;
  const Args args = Parse(argc, argv);
  const std::optional<WorkloadSpec> spec =
      FindWorkload(args.workload, args.smoke);
  if (!spec) Usage(("unknown workload '" + args.workload + "'").c_str());
  if (spec->wire && args.necd.empty()) Usage("wire workloads need --necd");
  ::signal(SIGPIPE, SIG_IGN);

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::size_t num_sessions = spec->sessions;
  if (spec->opens_per_s > 0.0) {
    num_sessions += static_cast<std::size_t>(
        std::lround(spec->opens_per_s * args.seconds));
  }
  std::printf("nec_bench: workload=%s seed=%llu seconds=%s trace=%d model=%s "
              "sessions=%zu nproc=%u%s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0,
              ModelName(spec->model), num_sessions, nproc,
              args.smoke ? " [smoke]" : "");
  const Inputs inputs(args.seed, num_sessions);

  const RunOptions options{.seconds = args.seconds,
                           .setup_reps = args.smoke ? 1u : 5u,
                           .necd = args.necd,
                           .out_dir = args.out_dir,
                           .connections = std::min<std::size_t>(4, nproc)};
  LayerSamples samples;
  LayerSamples* const traced = args.trace ? &samples : nullptr;
  if (args.trace) StartTracing();

  // A measurement whose generator fell behind its schedule is discarded
  // and taken once more; if that one is late too, the run is invalid.
  // Nothing of a discarded measurement is kept, its spans included.
  RunResult run;
  for (int attempt = 0;; ++attempt) {
    run = spec->wire ? RunWire(*spec, inputs, options, traced)
                     : RunInProcess(*spec, inputs, options, traced);
    if (run.error) {
      std::fprintf(stderr, "nec_bench: %s\n", run.error->c_str());
      return 2;
    }
    const double late = Quantile(run.lateness_ms, 0.99);
    if (late <= kMaxGeneratorLateP99Ms || attempt == 1) break;
    std::printf("generator fell behind (p99 lateness %s ms); measuring "
                "again\n", FormatNumber(late).c_str());
    if (args.trace) {
      nec::obs::TraceRecorder::Global().Clear();
      samples.clear();
    }
  }
  // The stage probe runs once the workload's threads and processes have
  // ended, so it has the machine to itself.
  std::map<std::string, Metric> layer;
  std::string invalid;
  if (args.trace) {
    std::string error;
    if (!RunStageProbe(spec->model, inputs, args.smoke ? 8 : 12, &layer,
                       &error)) {
      invalid = "stage probe: " + error;
    }
    nec::obs::TraceRecorder::Global().Disable();  // the check is not traced
  }
  // In-process: four sessions spread over the id space. Wire: every
  // session, which always covers both shards.
  for (std::size_t q = 0; q < 4; ++q) {
    run.sessions[q * run.sessions.size() / 4].verify = true;
  }
  for (SessionLog& log : run.sessions) log.verify |= spec->wire;
  const VerifyOutcome verify =
      Verify(spec->model, inputs, run.sessions, args.self_test);

  // ---- end-to-end metrics
  std::vector<double> e2e, first;
  std::size_t due = 0, delivered = 0, sessions_failed = 0, misses = 0;
  std::string problem = verify.first_problem;
  for (std::size_t s = 0; s < run.sessions.size(); ++s) {
    const SessionLog& log = run.sessions[s];
    for (std::size_t k = 0; k < log.due_ms.size(); ++k) {
      const double ms = log.delivered_ms[k] - log.due_ms[k];
      e2e.push_back(ms);
      delivered += std::isfinite(ms);
      misses += !(ms <= kDeadlineMs);
    }
    due += log.due_ms.size();
    // A short churn session's open is due with its first chunk.
    if (!log.due_ms.empty()) {
      first.push_back(log.delivered_ms[0] - log.due_ms[0]);
    }
    const bool bad = log.error || log.nonfinite || log.extra_output;
    sessions_failed += bad;
    if (bad && problem.empty()) {
      problem = "session " + std::to_string(s) + ": " +
                (log.error ? *log.error
                           : log.nonfinite ? "non-finite shadow samples"
                                           : "more shadow than chunks sent");
    }
  }
  const std::size_t undelivered = due - delivered;
  if (undelivered > 0 && problem.empty()) {
    problem = std::to_string(undelivered) + " chunk(s) never delivered";
  }
  const std::size_t attempted = due + run.opens_in_window;
  const std::size_t failed = undelivered + sessions_failed;
  const bool correct = failed == 0 && verify.mismatched == 0;
  const double chunks =
      static_cast<double>(std::max<std::size_t>(1, delivered));

  std::map<std::string, Metric> e2e_metrics;
  e2e_metrics["setup_s"] = {Median(run.setup_s), "s"};
  e2e_metrics["chunks_per_s"] = {static_cast<double>(delivered) / run.window_s,
                                 "chunks/s"};
  e2e_metrics["cpu_ms_per_chunk"] = {run.serve_cpu_ms / chunks, "ms"};
  e2e_metrics["e2e_p50_ms"] = {Quantile(e2e, 0.50), "ms"};
  e2e_metrics["e2e_p95_ms"] = {Quantile(e2e, 0.95), "ms"};
  e2e_metrics["rss_mb"] = {run.rss_mb, "MB"};

  const double late_p99 = Quantile(run.lateness_ms, 0.99);
  const double late_max = Quantile(run.lateness_ms, 1.0);
  if (invalid.empty() && late_p99 > kMaxGeneratorLateP99Ms) {
    invalid = "generator p99 lateness " + FormatNumber(late_p99) +
              " ms exceeds 5 ms";
  }
  if (invalid.empty() && !args.smoke &&
      static_cast<double>(e2e.size()) * 0.05 < kMinTailSamples) {
    invalid = "e2e_p95_ms needs >= 200 chunks, have " +
              std::to_string(e2e.size());
  }

  // ---- human-readable report
  std::printf("end-to-end (%zu chunks due, %zu delivered, %zu opens in "
              "window, window %s s):\n",
              due, delivered, run.opens_in_window,
              FormatNumber(run.window_s).c_str());
  for (const auto& [name, m] : e2e_metrics) PrintMetric(name, m);
  std::printf("  setup_s repetitions:");
  for (const double s : run.setup_s) {
    std::printf(" %s", FormatNumber(s).c_str());
  }
  std::printf("\n");
  if (e2e.size() >= 1000) {
    PrintMetric("e2e_p99_ms", {Quantile(e2e, 0.99), "ms"});
  } else {
    std::printf("  %-34s %14s (needs >= 1000 chunks, have %zu)\n",
                "e2e_p99_ms", "n/a", e2e.size());
  }
  // Printed only: across seeds it spreads too widely to carry a bound
  // (see README.md).
  PrintMetric("first_shadow_p50_ms", {Median(first), "ms"});
  if (spec->closed_loop) {
    std::printf("  %-34s %14s (closed loop: latency is queue depth / "
                "throughput)\n", "deadline_miss_ratio", "n/a");
  } else {
    PrintMetric("deadline_miss_ratio",
                {static_cast<double>(misses) /
                     static_cast<double>(std::max<std::size_t>(1, due)),
                 "fraction"});
  }
  std::printf("generator:\n");
  PrintMetric("gen.late_p99_ms", {late_p99, "ms"});
  PrintMetric("gen.late_max_ms", {late_max, "ms"});
  PrintMetric("gen.cpu_ms_per_chunk", {run.gen_cpu_ms / chunks, "ms"});
  if (args.trace) {
    layer.insert(run.layer.begin(), run.layer.end());
    layer["gen.cpu_ms_per_chunk"] = {run.gen_cpu_ms / chunks, "ms"};
    std::printf("per-layer:\n");
    for (const auto& [name, m] : layer) PrintMetric(name, m);
    if (!run.wire_only.empty()) {
      std::printf("wire-only layers (not in BENCHMARK.json per_layer):\n");
      for (const auto& [name, m] : run.wire_only) PrintMetric(name, m);
    }
    const std::string trace_path = args.out_dir + "/trace-" + spec->name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (WriteTrace(trace_path)) {
      std::printf("trace: %s\n", trace_path.c_str());
    } else {
      std::printf("trace: could not write %s\n", trace_path.c_str());
    }
  }
  std::printf("verify: %zu session(s), %zu chunk(s) against a sequential "
              "StreamingProcessor: %s\n",
              verify.sessions, verify.chunks,
              verify.mismatched == 0 ? "bit-identical" : "MISMATCH");
  std::printf("errors: %zu failed of %zu attempted%s%s\n", failed, attempted,
              problem.empty() ? "" : " — ", problem.c_str());
  if (!invalid.empty()) std::printf("INVALID RUN: %s\n", invalid.c_str());

  // Full report for the multi-run tooling (bench.py).
  const std::string report_path = args.out_dir + "/report-" + spec->name +
                                  "-seed" + std::to_string(args.seed) +
                                  "-trace" + (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"nproc\": %u, \"correct\": %s, \"valid\": %s, "
                 "\"end_to_end\": %s, \"per_layer\": %s, \"wire_only\": %s}\n",
                 spec->name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.trace ? 1 : 0, nproc, correct ? "true" : "false",
                 invalid.empty() ? "true" : "false",
                 MetricsJson(e2e_metrics).c_str(), MetricsJson(layer).c_str(),
                 MetricsJson(run.wire_only).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(args.trace ? layer : e2e_metrics).c_str());
  std::fflush(stdout);
  if (!correct) return 1;
  return invalid.empty() ? 0 : 3;
}
