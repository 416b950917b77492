#include "runtime/fault.h"

#include <chrono>
#include <cmath>
#include <thread>

namespace nec::runtime {

const char* ErrorCategoryName(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kBadInput: return "bad-input";
    case ErrorCategory::kInvariant: return "invariant";
    case ErrorCategory::kDeadlineMiss: return "deadline-miss";
    case ErrorCategory::kOverload: return "overload";
    case ErrorCategory::kAuthRejected: return "auth-rejected";
  }
  return "?";
}

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kIdle: return "idle";
    case SessionState::kRunning: return "running";
    case SessionState::kFaulted: return "faulted";
  }
  return "?";
}

const char* DegradeLevelName(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNeural: return "neural";
    case DegradeLevel::kLasFallback: return "las-fallback";
    case DegradeLevel::kSilence: return "silence";
  }
  return "?";
}

SampleScan ScanSamples(std::span<const float> samples) {
  SampleScan scan;
  for (const float s : samples) {
    if (!std::isfinite(s)) {
      ++scan.nonfinite;
    } else if (std::fabs(s) > kWildSampleLimit) {
      ++scan.wild;
    }
  }
  return scan;
}

SampleScan SanitizeSamples(std::span<float> samples) {
  SampleScan scan;
  for (float& s : samples) {
    if (!std::isfinite(s)) {
      s = 0.0f;
      ++scan.nonfinite;
    } else if (std::fabs(s) > kWildSampleLimit) {
      s = s > 0.0f ? 1.0f : -1.0f;
      ++scan.wild;
    }
  }
  return scan;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();  // never destroyed
  return *injector;
}

void FaultInjector::Arm(const std::string& site, Spec spec,
                        std::uint64_t seed) {
  std::lock_guard lock(mu_);
  sites_[site][spec.key] = SiteState{.spec = spec, .rng = Rng(seed)};
  armed_sites_.store(sites_.size(), std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard lock(mu_);
  sites_.erase(site);
  armed_sites_.store(sites_.size(), std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  std::lock_guard lock(mu_);
  sites_.clear();
  armed_sites_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFire(SiteState& state, std::uint64_t key) {
  const Spec& spec = state.spec;
  if (spec.key != kAnyKey && spec.key != key) return false;
  const std::uint64_t hit = state.matched++;
  if (hit < spec.skip_first) return false;
  if (state.injected >= spec.limit) return false;
  if (spec.probability < 1.0 && !state.rng.Chance(spec.probability)) {
    return false;
  }
  ++state.injected;
  return true;
}

void FaultInjector::OnSiteSlow(const char* site, std::uint64_t key) {
  // Decide under the lock, act (sleep, then throw) after releasing it.
  ErrorCategory category = ErrorCategory::kInvariant;
  double latency_ms = 0.0;
  bool fire_throw = false;
  {
    std::lock_guard lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return;
    for (auto& [spec_key, state] : it->second) {
      if (state.spec.kind == Kind::kSaturate) continue;  // SaturateAt's job
      if (!ShouldFire(state, key)) continue;
      if (state.spec.kind == Kind::kLatency) {
        latency_ms += state.spec.latency_ms;
      } else if (!fire_throw) {
        fire_throw = true;
        category = state.spec.category;
      }
    }
  }
  if (latency_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        latency_ms));
  }
  if (fire_throw) {
    throw InjectedFault(category, std::string("injected fault at site '") +
                                      site + "'");
  }
}

bool FaultInjector::SaturateAt(const char* site, std::uint64_t key) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  bool fire = false;
  for (auto& [spec_key, state] : it->second) {
    if (state.spec.kind == Kind::kSaturate) fire |= ShouldFire(state, key);
  }
  return fire;
}

std::uint64_t FaultInjector::injections(const std::string& site) const {
  std::lock_guard lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return 0;
  std::uint64_t injected = 0;
  for (const auto& [spec_key, state] : it->second) injected += state.injected;
  return injected;
}

}  // namespace nec::runtime
