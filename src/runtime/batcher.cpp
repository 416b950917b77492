#include "runtime/batcher.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace nec::runtime {

using Clock = std::chrono::steady_clock;

ContinuousBatcher::ContinuousBatcher(Options options, BatchFn fn)
    : options_(options), fn_(std::move(fn)) {
  NEC_CHECK(options_.max_batch >= 1);
  NEC_CHECK(options_.workers >= 1);
  NEC_CHECK(options_.deadline_ms > 0.0);
  NEC_CHECK(fn_ != nullptr);
  threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ContinuousBatcher::~ContinuousBatcher() { Shutdown(); }

void ContinuousBatcher::Enqueue(void* key, audio::Waveform chunk,
                                std::uint64_t wire_flow) {
  const Clock::time_point now = Clock::now();
  EnqueueWithDeadline(
      key, std::move(chunk),
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    options_.deadline_ms)),
      wire_flow);
}

void ContinuousBatcher::EnqueueWithDeadline(void* key, audio::Waveform chunk,
                                            Clock::time_point deadline,
                                            std::uint64_t wire_flow) {
  // Flow arrow tail: the matching head is emitted by the batch callback
  // when it completes this chunk, linking enqueue → EDF admission →
  // dispatch across threads in the exported trace. A wire-carried flow
  // id (kTraceContext) is adopted verbatim — its tail was already
  // recorded by the remote sender, so the completion head closes a
  // CROSS-PROCESS arrow in the merged trace.
  std::uint64_t flow_id = wire_flow;
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  if (rec.enabled() && flow_id == 0) {
    flow_id = rec.NextFlowId();
    rec.RecordFlow(obs::TraceEventKind::kFlowBegin, "chunk.flow", flow_id);
  }
  {
    std::lock_guard lock(mu_);
    NEC_CHECK_MSG(!shutdown_, "Enqueue after ContinuousBatcher::Shutdown");
    lanes_[key].fifo.push_back(
        Item{key, std::move(chunk), Clock::now(), deadline, flow_id});
    ++pending_count_;
  }
  // One new chunk employs at most one idle dispatcher; the dispatcher
  // re-notifies when it frees a lane with more work behind it.
  cv_.notify_one();
}

std::size_t ContinuousBatcher::Purge(void* key) {
  std::lock_guard lock(mu_);
  auto it = lanes_.find(key);
  if (it == lanes_.end()) return 0;
  const std::size_t removed = it->second.fifo.size();
  it->second.fifo.clear();
  pending_count_ -= removed;
  if (pending_count_ == 0 && active_batches_ == 0) {
    drained_cv_.notify_all();
  }
  // Under shutdown a purge can be what empties the last lane — waiting
  // dispatchers must re-evaluate their exit predicate.
  if (shutdown_ && pending_count_ == 0) cv_.notify_all();
  return removed;
}

std::size_t ContinuousBatcher::pending_for(void* key) const {
  std::lock_guard lock(mu_);
  const auto it = lanes_.find(key);
  return it == lanes_.end() ? 0 : it->second.fifo.size();
}

bool ContinuousBatcher::idle_for(void* key) const {
  std::lock_guard lock(mu_);
  const auto it = lanes_.find(key);
  return it == lanes_.end() ||
         (it->second.fifo.empty() && !it->second.in_flight);
}

void ContinuousBatcher::Drain() {
  std::unique_lock lock(mu_);
  drained_cv_.wait(
      lock, [&] { return pending_count_ == 0 && active_batches_ == 0; });
}

void ContinuousBatcher::Shutdown() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::size_t ContinuousBatcher::pending() const {
  std::lock_guard lock(mu_);
  return pending_count_;
}

bool ContinuousBatcher::HasEligibleLocked() const {
  for (const auto& [key, lane] : lanes_) {
    if (!lane.in_flight && !lane.fifo.empty()) return true;
  }
  return false;
}

bool ContinuousBatcher::GatherLocked(std::vector<Item>& batch,
                                     std::vector<Lane*>& claimed) {
  // Fair-share cap: when several dispatchers are idle, one gather takes
  // only ceil(ready / idle) chunks so the rest dispatch in parallel on the
  // other threads instead of queueing behind one full batch. A lone
  // dispatcher (or a saturated pool) still fills up to max_batch.
  std::size_t ready = 0;
  for (const auto& [key, lane] : lanes_) {
    if (!lane.in_flight && !lane.fifo.empty()) ready += lane.fifo.size();
  }
  if (ready == 0) return false;
  const std::size_t sharers = idle_workers_ + 1;  // waiting peers + me
  const std::size_t cap = std::min(
      options_.max_batch,
      std::max<std::size_t>(1, (ready + sharers - 1) / sharers));

  // EDF admission: repeatedly take the globally most-urgent lane head.
  // A lane this gather already claimed stays eligible — its next head
  // competes on its own deadline, so consecutive chunks of a hot session
  // may ride one batch, still in FIFO order. Lanes claimed by OTHER
  // dispatchers are skipped, which is what serializes a session's stream.
  while (batch.size() < cap) {
    Lane* best = nullptr;
    for (auto& [key, lane] : lanes_) {
      if (lane.fifo.empty()) continue;
      if (lane.in_flight &&
          std::find(claimed.begin(), claimed.end(), &lane) == claimed.end()) {
        continue;
      }
      if (best == nullptr ||
          lane.fifo.front().deadline < best->fifo.front().deadline) {
        best = &lane;
      }
    }
    if (best == nullptr) break;
    if (!best->in_flight) {
      best->in_flight = true;
      claimed.push_back(best);
    }
    batch.push_back(std::move(best->fifo.front()));
    best->fifo.pop_front();
    --pending_count_;
  }
  return !batch.empty();
}

void ContinuousBatcher::WorkerLoop(std::size_t worker_index) {
  // SetThreadName keeps the pointer until trace export — literals only.
  static constexpr const char* kNames[] = {
      "dispatch-0", "dispatch-1", "dispatch-2", "dispatch-3",
      "dispatch-4", "dispatch-5", "dispatch-6", "dispatch-7"};
  obs::TraceRecorder::SetThreadName(
      worker_index < std::size(kNames) ? kNames[worker_index] : "dispatch");
  // Reused across batches, so a warm dispatcher allocates no bookkeeping.
  std::vector<Item> batch;
  std::vector<Lane*> claimed;
  std::unique_lock lock(mu_);
  for (;;) {
    ++idle_workers_;
    cv_.wait(lock, [&] {
      // Pending chunks in a lane another dispatcher still owns are not
      // eligible yet — keep waiting even under shutdown; the owning
      // dispatcher frees the lane and re-notifies when its batch returns.
      return HasEligibleLocked() || (shutdown_ && pending_count_ == 0);
    });
    --idle_workers_;
    if (!HasEligibleLocked()) return;  // shutdown with nothing left to serve

    claimed.clear();
    GatherLocked(batch, claimed);
    ++active_batches_;
    lock.unlock();

    fn_(std::move(batch));
    batch.clear();  // frees the chunks outside the lock

    lock.lock();
    --active_batches_;
    for (Lane* lane : claimed) lane->in_flight = false;
    // The freed lanes may hold more ready chunks — hand them to whichever
    // dispatcher is idle (work stealing), and let Drain/Shutdown waiters
    // re-check their predicates.
    cv_.notify_all();
    if (pending_count_ == 0 && active_batches_ == 0) {
      drained_cv_.notify_all();
    }
  }
}

}  // namespace nec::runtime
