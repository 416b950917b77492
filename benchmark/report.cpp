// Quantiles, /proc readers, number formatting and the driver's spans.
#include <time.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common.h"
#include "obs/trace.h"

namespace nec::bench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double ProcessCpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return std::numeric_limits<double>::quiet_NaN();
  // Field 2 (comm) may contain spaces; fields resume after the last ')'.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcStatusKb(int pid, const char* field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1));
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double SelfCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

namespace {

/// Clock::time_point -> the recorder's nanosecond timeline.
std::uint64_t TraceNs(Clock::time_point t) {
  // obs::TraceNowNs counts from its own anchor; pin that anchor once.
  static const Clock::time_point anchor =
      Clock::now() - std::chrono::nanoseconds(obs::TraceNowNs());
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::max(t - anchor, Clock::duration::zero()))
          .count());
}

}  // namespace

void StartTracing() {
  TraceNs(Clock::now());
  obs::TraceRecorder::Global().Enable();
  obs::TraceRecorder::SetThreadName("generator");
}

void RecordSpan(const char* name, Clock::time_point start,
                Clock::time_point end, std::uint64_t flow) {
  obs::TraceRecorder::Global().RecordSpan(name, "bench", TraceNs(start),
                                          TraceNs(end) - TraceNs(start), flow);
}

void MarkChunk(std::uint64_t flow, bool begin) {
  obs::TraceRecorder::Global().RecordFlow(
      begin ? obs::TraceEventKind::kFlowBegin : obs::TraceEventKind::kFlowEnd,
      "bench.chunk", flow);
}

bool WriteTrace(const std::string& path) {
  std::ofstream out(path);
  obs::TraceRecorder::Global().WriteChromeTrace(out);
  out.close();
  return !out.fail();
}

}  // namespace nec::bench
