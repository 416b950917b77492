// Shared pieces of nec_bench, the serving benchmark driver.
//
// The driver measures the serving system from the outside: it synthesises
// seeded inputs, feeds them to an in-process runtime::SessionManager or to a
// necd fleet over TCP from ONE generator thread, timestamps every chunk from
// the moment it was due to the moment its complete shadow is visible, and
// afterwards checks the shadows against a sequential StreamingProcessor
// reference built from the same sources. Nothing here reaches into a layer's
// internals: layers are timed around their public calls and through the
// counters they already export.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "audio/waveform.h"
#include "core/config.h"
#include "core/selector.h"
#include "encoder/encoder.h"

namespace nec::bench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline constexpr int kInputRate = 16000;
/// One 1 s chunk at the monitor rate (paper, Table II).
inline constexpr std::size_t kChunkSamples = 16000;
/// The modulated shadow of one chunk at the 192 kHz air rate.
inline constexpr std::size_t kOutputSamplesPerChunk = 192000;
/// The paper's overshadowing tolerance (§IV-C2).
inline constexpr double kDeadlineMs = 300.0;

// ------------------------------------------------------------------ models

enum class Model {
  kFast,  ///< Selector(NecConfig::Fast(), 29): production architecture
  kTiny,  ///< exactly what `necd --model tiny` serves
};

const char* ModelName(Model model);
std::shared_ptr<const core::Selector> MakeSelector(Model model);
std::shared_ptr<const encoder::SpeakerEncoder> MakeEncoder(Model model);

// --------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  bool wire = false;            ///< necd fleet over TCP (else in-process)
  Model model = Model::kFast;
  std::size_t max_batch = 1;    ///< in-process continuous batching
  std::size_t sessions = 0;     ///< sessions opened during set-up
  bool closed_loop = false;     ///< one chunk in flight per session
  std::size_t piece_samples = 0;  ///< 0: submit whole chunks
  double opens_per_s = 0.0;     ///< sessions opened inside the window
  std::size_t short_chunks = 0;   ///< chunks each of those sessions sends
};

/// The four workloads (smaller session counts when `smoke`). nullopt for
/// an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool smoke);

// ------------------------------------------------------------------ inputs

/// Seed-derived identity of one session's input and enrollment.
struct SessionSeeds {
  std::size_t stream = 0;      ///< which babble stream
  std::size_t rotation = 0;    ///< whole chunks the stream is rotated by
  std::uint64_t noise_seed = 0;
  std::uint64_t speaker_seed = 0;
  std::uint64_t ref_seed = 0;
};

/// Everything the program under test receives, generated from --seed: 8
/// babble streams, and per session a rotation of one of them plus seeded
/// noise at -40 dBFS, so no two sessions ever submit the same chunk.
class Inputs {
 public:
  Inputs(std::uint64_t seed, std::size_t num_sessions);

  /// Writes chunk `k` of session `s` (kChunkSamples samples) to `out`.
  void FillChunk(std::size_t s, std::size_t k, float* out) const;

  /// Enrollment clips for session `s`, synthesised exactly as a shard does
  /// for a kOpenSession with the same seeds (3 clips of 3 s).
  std::vector<audio::Waveform> References(std::size_t s) const;

  const SessionSeeds& seeds(std::size_t s) const { return sessions_.at(s); }
  std::size_t num_sessions() const { return sessions_.size(); }

 private:
  std::vector<std::vector<float>> streams_;
  std::vector<SessionSeeds> sessions_;
};

/// Order-sensitive 64-bit digest of one output chunk plus a finiteness
/// flag. Every mixing step is a bijection, so two chunks differing in a
/// single sample always digest differently.
struct ChunkDigest {
  std::uint64_t hash = 0;
  bool finite = true;
};
ChunkDigest DigestChunk(std::span<const float> samples);

// ----------------------------------------------------------------- results

/// What the generator saw of one session (RunResult::sessions[i] is
/// session i of Inputs).
struct SessionLog {
  bool verify = false;                ///< compare against the reference
  std::vector<double> due_ms;         ///< per chunk submitted, from t0
  std::vector<double> delivered_ms;   ///< per chunk; +inf if never seen
  std::vector<std::uint64_t> hashes;  ///< digest per delivered chunk
  bool nonfinite = false;
  bool extra_output = false;          ///< more shadow than chunks sent
  std::optional<std::string> error;   ///< typed error or fault
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<SessionLog> sessions;
  std::vector<double> setup_s;        ///< one per set-up repetition
  double window_s = 0.0;              ///< t0 -> last delivery
  double serve_cpu_ms = 0.0;          ///< serving code CPU over the window
  double gen_cpu_ms = 0.0;            ///< generator thread CPU
  double rss_mb = 0.0;                ///< serving peak memory
  std::size_t opens_in_window = 0;
  std::vector<double> lateness_ms;    ///< actual send - due, per send
  std::map<std::string, Metric> layer;  ///< per-layer metrics (traced)
  /// Wire-only layer numbers; printed, but absent from BENCHMARK.json
  /// because the in-process workloads have no such layer.
  std::map<std::string, Metric> wire_only;
  std::optional<std::string> error;   ///< the run could not be carried out
};

// ----------------------------------------------------------------- tracing
//
// A traced run records its spans on obs::TraceRecorder::Global(), the
// recorder the library's own NEC_TRACE_SPAN sites use, so one Chrome trace
// holds the driver's calls and, in-process, the runtime's spans beneath
// them. A span's parent is the span enclosing it on the same thread.

/// Timing samples behind the per-layer percentiles of a traced run.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Enables the recorder and names the calling (generator) thread.
void StartTracing();
/// Records a driver span [start, end] on the calling thread; a no-op
/// unless tracing was started.
void RecordSpan(const char* name, Clock::time_point start,
                Clock::time_point end, std::uint64_t flow = 0);
/// Marks, at this instant, that the chunk with flow id `flow` was sent in
/// full (`begin`) or that its whole shadow arrived (`!begin`). Call it
/// inside the span of the send or of the delivery it belongs to.
void MarkChunk(std::uint64_t flow, bool begin);
/// Writes everything recorded as Chrome trace JSON (Perfetto loads it).
bool WriteTrace(const std::string& path);

/// Flow id of chunk `k` of session `s` (shared by its spans).
inline std::uint64_t ChunkFlow(std::size_t s, std::size_t k) {
  return (static_cast<std::uint64_t>(s + 1) << 20) | k;
}

// ------------------------------------------------------------- run options

/// Whole chunks each steady session sends in a run of `seconds`.
inline std::size_t ChunksPerSession(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds + 0.5));
}

struct RunOptions {
  double seconds = 10.0;
  std::size_t setup_reps = 5;    ///< set-up repetitions (median reported)
  std::string necd;              ///< necd binary (wire workloads)
  std::string out_dir;           ///< logs, traces, reports
  std::size_t connections = 4;   ///< wire connections (<= nproc)
};

/// `samples` is null in an untraced run; a traced run fills it and the
/// per-layer metrics.
RunResult RunInProcess(const WorkloadSpec& w, const Inputs& inputs,
                       const RunOptions& options, LayerSamples* samples);
RunResult RunWire(const WorkloadSpec& w, const Inputs& inputs,
                  const RunOptions& options, LayerSamples* samples);

/// Stage probe: single-threaded public stage calls on warm chunks. Fills
/// per-layer metrics; false (with *error) when the chained stages are not
/// bit-identical to ProcessChunkInto or the ledger gap exceeds 5 %.
bool RunStageProbe(Model model, const Inputs& inputs, std::size_t reps,
                   std::map<std::string, Metric>* layer, std::string* error);

// ---------------------------------------------------------------- helpers

/// Exact sample quantile with linear interpolation (+inf entries sort
/// last, so an undelivered chunk pushes the tail to +inf).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// CPU time (user + sys) of a process from /proc/<pid>/stat, in ms.
double ProcessCpuMs(int pid);
/// A "Vm*" field of /proc/<pid>/status ("VmHWM", "VmRSS"), in kB.
double ProcStatusKb(int pid, const char* field);
/// This process's user + sys CPU time, in ms.
double SelfCpuMs();
/// The calling thread's CPU time, in ms.
double ThreadCpuMs();

/// Shortest round-trip decimal form of `v` (all its digits).
std::string FormatNumber(double v);

}  // namespace nec::bench
