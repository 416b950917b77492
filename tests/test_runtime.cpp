// Tests for the nec::runtime concurrency layer: bounded queue backpressure,
// graceful pool shutdown, stats, and — the load-bearing property — N
// concurrent sessions producing output bit-identical to the sequential
// StreamingProcessor path while sharing one trained weight set.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/streaming.h"
#include "runtime/batcher.h"
#include "runtime/session_manager.h"
#include "runtime/stats.h"
#include "runtime/thread_pool.h"
#include "runtime/work_queue.h"
#include "synth/dataset.h"

namespace nec::runtime {
namespace {

// ------------------------------------------------------------- WorkQueue

TEST(WorkQueue, FifoWithinCapacity) {
  WorkQueue<int> q(4, OverflowPolicy::kReject);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  EXPECT_EQ(q.Pop(), std::optional<int>(3));
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(WorkQueue, RejectPolicyBouncesWhenFull) {
  WorkQueue<int> q(2, OverflowPolicy::kReject);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_FALSE(q.Push(3));
  EXPECT_FALSE(q.Push(4));
  EXPECT_EQ(q.rejected(), 2u);
  EXPECT_EQ(q.pushed(), 2u);
  // Popping frees capacity again.
  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  EXPECT_TRUE(q.Push(5));
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  EXPECT_EQ(q.Pop(), std::optional<int>(5));
}

TEST(WorkQueue, DropOldestEvictsFront) {
  WorkQueue<int> q(3, OverflowPolicy::kDropOldest);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_TRUE(q.Push(4));  // evicts 1
  EXPECT_TRUE(q.Push(5));  // evicts 2
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), std::optional<int>(3));
  EXPECT_EQ(q.Pop(), std::optional<int>(4));
  EXPECT_EQ(q.Pop(), std::optional<int>(5));
}

TEST(WorkQueue, DropOldestHandsBackEvictedItem) {
  WorkQueue<int> q(2, OverflowPolicy::kDropOldest);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  std::optional<int> evicted;
  EXPECT_TRUE(q.Push(3, &evicted));  // evicts 1 into the out-param
  EXPECT_EQ(evicted, std::optional<int>(1));
  // Below capacity nothing is evicted and the out-param stays empty.
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  evicted.reset();
  EXPECT_TRUE(q.Push(4, &evicted));
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(WorkQueue, BlockPolicyWaitsForSpace) {
  WorkQueue<int> q(1, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.Push(1));

  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // must wait until the consumer pops 1
    second_admitted.store(true);
  });

  // Give the producer a chance to park on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_admitted.load());

  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
}

TEST(WorkQueue, CloseWakesBlockedProducerAndConsumer) {
  WorkQueue<int> full(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(full.Push(1));
  std::thread producer([&] { EXPECT_FALSE(full.Push(2)); });
  WorkQueue<int> empty(1, OverflowPolicy::kBlock);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();

  // Items admitted before Close stay poppable (graceful drain).
  EXPECT_EQ(full.Pop(), std::optional<int>(1));
  EXPECT_FALSE(full.Pop().has_value());
  EXPECT_FALSE(full.Push(3));
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool({.workers = 4, .queue_capacity = 64});
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    EXPECT_TRUE(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  pool.Shutdown();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(ThreadPool, ShutdownDrainsInFlightAndQueuedWork) {
  // Slow tasks + a deep queue: Shutdown must not drop the queued backlog.
  ThreadPool pool({.workers = 2, .queue_capacity = 64});
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    }));
  }
  pool.Shutdown();  // graceful: every admitted task runs
  EXPECT_EQ(done.load(), 16);
  // After shutdown, new work is refused.
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPool, RejectPolicyShedsLoadWhenSaturated) {
  ThreadPool pool(
      {.workers = 1, .queue_capacity = 1, .policy = OverflowPolicy::kReject});
  std::atomic<bool> release{false};
  // Occupy the single worker...
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  // ...fill the queue, then overflow it.
  bool saw_reject = false;
  for (int i = 0; i < 8; ++i) saw_reject |= !pool.Submit([] {});
  EXPECT_TRUE(saw_reject);
  EXPECT_GT(pool.rejected(), 0u);
  release.store(true);
  pool.Shutdown();
}

TEST(ThreadPool, DropOldestFiresDropCallbackForEvictedTask) {
  ThreadPool pool({.workers = 1,
                   .queue_capacity = 1,
                   .policy = OverflowPolicy::kDropOldest});
  std::atomic<bool> release{false};
  // Occupy the single worker, then wait until it has actually popped the
  // gate task so the queue is empty and the eviction order is fixed.
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  while (pool.queue_depth() != 0) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::atomic<int> dropped{0};
  const auto task = [&ran] { ran.fetch_add(1); };
  const auto on_drop = [&dropped] { dropped.fetch_add(1); };
  ASSERT_TRUE(pool.Submit(task, on_drop));  // fills the queue
  ASSERT_TRUE(pool.Submit(task, on_drop));  // evicts the first task
  // The victim's on_drop ran synchronously inside the second Submit.
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(pool.dropped(), 1u);

  release.store(true);
  pool.Shutdown();
  // Exactly one of {run, on_drop} fired for each task.
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(dropped.load(), 1);
}

// ----------------------------------------------------------------- Stats

TEST(LatencyHistogram, QuantilesAreOrderedAndBracketed) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i) * 0.1);
  const LatencyQuantiles q = hist.Quantiles();
  EXPECT_EQ(q.count, 1000u);
  EXPECT_LE(q.p50_ms, q.p95_ms);
  EXPECT_LE(q.p95_ms, q.p99_ms);
  EXPECT_LE(q.p99_ms, q.max_ms);
  // True p50 is 50 ms; the log-bucket estimate must be within one growth
  // factor of it.
  EXPECT_GT(q.p50_ms, 50.0 / LatencyHistogram::kGrowth / LatencyHistogram::kGrowth);
  EXPECT_LT(q.p50_ms, 50.0 * LatencyHistogram::kGrowth * LatencyHistogram::kGrowth);
  EXPECT_NEAR(q.max_ms, 100.0, 0.2);
}

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram hist;
  const LatencyQuantiles q = hist.Quantiles();
  EXPECT_EQ(q.count, 0u);
  EXPECT_EQ(q.p50_ms, 0.0);
  EXPECT_EQ(q.p99_ms, 0.0);
  EXPECT_EQ(q.max_ms, 0.0);
}

// -------------------------------------------------------- SessionManager

core::NecConfig SmallConfig() {
  core::NecConfig cfg = core::NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest()
      : cfg_(SmallConfig()),
        selector_(std::make_shared<const core::Selector>(cfg_, 7)),
        encoder_(std::make_shared<encoder::LasEncoder>(cfg_.embedding_dim)),
        builder_({.duration_s = 2.5}) {}

  core::NecConfig cfg_;
  std::shared_ptr<const core::Selector> selector_;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  synth::DatasetBuilder builder_;
};

TEST_F(SessionManagerTest, ConcurrentSessionsMatchSequentialBitExact) {
  constexpr std::size_t kSessions = 4;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 3,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});

  std::vector<synth::SpeakerProfile> speakers;
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(100 + i));
    const auto refs = builder_.MakeReferenceAudios(speakers[i], 3, 40 + i);
    ids.push_back(manager.CreateSession(refs));
    streams.push_back(builder_.MakeUtterance(speakers[i], 7 + i).wave);
  }

  // Interleave submissions across sessions in capture-callback-sized
  // pieces so strands genuinely overlap on the pool.
  const std::size_t piece = 3700;
  std::size_t pos = 0;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (pos >= streams[i].size()) continue;
      const std::size_t n = std::min(piece, streams[i].size() - pos);
      EXPECT_TRUE(
          manager.Submit(ids[i], streams[i].samples().subspan(pos, n))
              .ok());
      any_left = true;
    }
    pos += piece;
  }
  manager.Drain();

  for (std::size_t i = 0; i < kSessions; ++i) {
    audio::Waveform parallel_out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) parallel_out.Append(*tail);

    // Reference: the sequential single-threaded path over a pipeline that
    // shares the very same weights.
    core::NecPipeline seq_pipeline(selector_, encoder_, {});
    seq_pipeline.Enroll(builder_.MakeReferenceAudios(speakers[i], 3, 40 + i));
    core::StreamingProcessor seq(seq_pipeline, 1.0,
                                 core::SelectorKind::kNeural);
    audio::Waveform seq_out;
    if (auto out = seq.Push(streams[i].samples())) seq_out = std::move(*out);
    if (auto tail = seq.Flush()) seq_out.Append(*tail);

    ASSERT_EQ(parallel_out.size(), seq_out.size()) << "session " << i;
    for (std::size_t k = 0; k < seq_out.size(); ++k) {
      ASSERT_EQ(parallel_out[k], seq_out[k])
          << "session " << i << " sample " << k;
    }
  }

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.sessions, kSessions);
  // 2.5 s per stream at 1 s chunks: 2 full chunks + 1 flush tail each.
  EXPECT_EQ(stats.chunks_processed, kSessions * 3u);
  EXPECT_EQ(stats.chunk_latency.count, kSessions * 3u);
  EXPECT_GT(stats.chunk_latency.p99_ms, 0.0);
  EXPECT_EQ(stats.samples_submitted,
            static_cast<std::uint64_t>(kSessions) * streams[0].size());
}

TEST_F(SessionManagerTest, FlushRequiresIdleSession) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2, .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(5);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 9));
  // Nothing submitted: Flush is legal and empty.
  manager.Drain();
  EXPECT_FALSE(manager.Flush(id).has_value());
}

TEST_F(SessionManagerTest, SharedWeightsAreActuallyShared) {
  SessionManager manager(selector_, encoder_, {}, {.workers = 2});
  const auto spk = synth::SpeakerProfile::FromSeed(6);
  manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 11));
  manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 12));
  // 1 test-local ref + 1 manager ref + 0 copies inside sessions: sessions
  // must alias the manager's selector, not clone the weights.
  EXPECT_GE(selector_.use_count(), 2);
  EXPECT_EQ(manager.num_sessions(), 2u);
}

TEST_F(SessionManagerTest, RejectBackpressureLeavesSamplesBuffered) {
  // One worker, capacity-1 queue, kReject: hammer one session from two
  // producers; rejected dispatches must not lose samples — after a final
  // successful Submit+Drain every sample is accounted for.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 1,
                          .policy = OverflowPolicy::kReject,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(8);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 21));
  const audio::Waveform stream = builder_.MakeUtterance(spk, 3).wave;

  const std::size_t piece = 2000;
  for (std::size_t pos = 0; pos < stream.size(); pos += piece) {
    const std::size_t n = std::min(piece, stream.size() - pos);
    // Result intentionally ignored: kReject may bounce the dispatch but
    // must keep the samples buffered for a later strand.
    manager.Submit(id, stream.samples().subspan(pos, n));
  }
  // Keep nudging until a dispatch lands, then drain.
  while (!manager.Submit(id, {})) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.Drain();

  audio::Waveform out = manager.TakeOutput(id);
  if (auto tail = manager.Flush(id)) out.Append(*tail);
  // 2.5 s at 1 s chunks → 3 chunks of modulated output, none lost.
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.chunks_processed, 3u);
  EXPECT_GT(out.size(), 0u);
}

TEST_F(SessionManagerTest, DropOldestEvictionUnwedgesSession) {
  // Regression: an evicted queued strand used to leave its session's
  // `running` flag true and in_flight_ non-zero forever — the session was
  // wedged (audio never processed, Flush CHECK-failed) and Drain
  // deadlocked. Now the eviction unwinds the session: stale audio is
  // discarded, the session returns to idle, and the loss is counted.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 1,
                          .policy = OverflowPolicy::kDropOldest,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});
  const auto spk_a = synth::SpeakerProfile::FromSeed(31);
  const auto spk_b = synth::SpeakerProfile::FromSeed(32);
  const auto spk_c = synth::SpeakerProfile::FromSeed(33);
  const auto a =
      manager.CreateSession(builder_.MakeReferenceAudios(spk_a, 3, 61));
  const auto b =
      manager.CreateSession(builder_.MakeReferenceAudios(spk_b, 3, 62));
  const auto c =
      manager.CreateSession(builder_.MakeReferenceAudios(spk_c, 3, 63));
  const audio::Waveform sa = builder_.MakeUtterance(spk_a, 71).wave;
  const audio::Waveform sb = builder_.MakeUtterance(spk_b, 72).wave;
  const audio::Waveform sc = builder_.MakeUtterance(spk_c, 73).wave;

  // A's strand occupies the single worker (2.5 s of neural-selector work;
  // wait until the worker has popped it so the queue is empty), B's strand
  // sits in the capacity-1 queue, and C's dispatch evicts B's.
  EXPECT_TRUE(manager.Submit(a, sa.samples()).ok());
  while (manager.Stats().queue_depth != 0) std::this_thread::yield();
  EXPECT_TRUE(manager.Submit(b, sb.samples()).ok());
  EXPECT_TRUE(manager.Submit(c, sc.samples()).ok());

  manager.Drain();  // deadlocked here before the fix
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.dispatch_drops, 1u);
  EXPECT_EQ(stats.samples_dropped, sb.size());

  // The evicted session is idle: Flush passes its idle check (its
  // processor never saw the dropped audio) and a fresh Submit runs
  // normally.
  EXPECT_FALSE(manager.Flush(b).has_value());
  EXPECT_TRUE(manager.Submit(b, sb.samples()).ok());
  manager.Drain();
  audio::Waveform out = manager.TakeOutput(b);
  if (auto tail = manager.Flush(b)) out.Append(*tail);
  EXPECT_GT(out.size(), 0u);

  // The sessions that were not evicted processed their full streams.
  EXPECT_GT(manager.TakeOutput(a).size(), 0u);
  EXPECT_GT(manager.TakeOutput(c).size(), 0u);
}

// ------------------------------------------------------ ContinuousBatcher

/// Collects dispatched batches (as key sequences). The callback can be
/// gated shut: while closed, every dispatch thread that picks up a batch
/// records it and then parks inside the callback, so a test can stage a
/// deterministic backlog while all dispatchers are provably busy.
struct BatchRecorder {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<void*>> batches;
  bool gate_open = true;

  ContinuousBatcher::BatchFn Fn() {
    return [this](std::vector<ContinuousBatcher::Item>&& items) {
      std::vector<void*> keys;
      for (const auto& it : items) keys.push_back(it.key);
      std::unique_lock lock(mu);
      batches.push_back(std::move(keys));
      cv.notify_all();
      cv.wait(lock, [&] { return gate_open; });
    };
  }

  void CloseGate() {
    std::lock_guard lock(mu);
    gate_open = false;
  }
  void OpenGate() {
    {
      std::lock_guard lock(mu);
      gate_open = true;
    }
    cv.notify_all();
  }

  std::size_t WaitForBatches(std::size_t n) {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5),
                [&] { return batches.size() >= n; });
    return batches.size();
  }
};

audio::Waveform TinyChunk() { return audio::Waveform(16000, std::size_t{16}); }

/// Deadline `ms` milliseconds from a fixed base — tests pass explicit,
/// distinct deadlines so EDF decisions never depend on clock granularity.
std::chrono::steady_clock::time_point DeadlineIn(double ms) {
  static const auto base = std::chrono::steady_clock::now();
  return base + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

TEST(ContinuousBatcher, BatchOfOneDispatchesImmediately) {
  // The defining difference from the PR 4 coalescer: a lone ready chunk
  // must dispatch on its own, not sit out a hold window waiting for
  // company that may never come.
  BatchRecorder rec;
  int k;
  ContinuousBatcher batcher({.max_batch = 4, .workers = 1}, rec.Fn());
  batcher.Enqueue(&k, TinyChunk());
  ASSERT_EQ(rec.WaitForBatches(1), 1u);
  EXPECT_EQ(rec.batches[0], (std::vector<void*>{&k}));
  batcher.Shutdown();
}

TEST(ContinuousBatcher, BacklogCoalescesUpToMaxBatchInEdfOrder) {
  // While the single dispatcher is busy, later chunks accumulate; the next
  // gather takes up to max_batch of them, earliest deadline first.
  BatchRecorder rec;
  rec.CloseGate();
  int gate, k1, k2, k3, k4;
  ContinuousBatcher batcher({.max_batch = 3, .workers = 1}, rec.Fn());
  batcher.Enqueue(&gate, TinyChunk());
  ASSERT_EQ(rec.WaitForBatches(1), 1u);  // dispatcher parked in the gate
  batcher.EnqueueWithDeadline(&k1, TinyChunk(), DeadlineIn(10));
  batcher.EnqueueWithDeadline(&k2, TinyChunk(), DeadlineIn(20));
  batcher.EnqueueWithDeadline(&k3, TinyChunk(), DeadlineIn(30));
  batcher.EnqueueWithDeadline(&k4, TinyChunk(), DeadlineIn(40));
  rec.OpenGate();
  batcher.Drain();
  ASSERT_EQ(rec.batches.size(), 3u);
  EXPECT_EQ(rec.batches[0], (std::vector<void*>{&gate}));
  EXPECT_EQ(rec.batches[1], (std::vector<void*>{&k1, &k2, &k3}));
  EXPECT_EQ(rec.batches[2], (std::vector<void*>{&k4}));
  batcher.Shutdown();
}

TEST(ContinuousBatcher, EdfAdmitsMostUrgentLaneFirst) {
  // Admission order is deadline order, NOT enqueue order: C is enqueued
  // last but owns the tightest deadline, so it leads the next batch.
  BatchRecorder rec;
  rec.CloseGate();
  int gate, a, b, c;
  ContinuousBatcher batcher({.max_batch = 3, .workers = 1}, rec.Fn());
  batcher.Enqueue(&gate, TinyChunk());
  ASSERT_EQ(rec.WaitForBatches(1), 1u);
  batcher.EnqueueWithDeadline(&a, TinyChunk(), DeadlineIn(300));
  batcher.EnqueueWithDeadline(&b, TinyChunk(), DeadlineIn(200));
  batcher.EnqueueWithDeadline(&c, TinyChunk(), DeadlineIn(100));
  rec.OpenGate();
  batcher.Drain();
  ASSERT_EQ(rec.batches.size(), 2u);
  EXPECT_EQ(rec.batches[1], (std::vector<void*>{&c, &b, &a}));
  batcher.Shutdown();
}

TEST(ContinuousBatcher, PurgeKeepsEvictedKeyOutOfLaterBatches) {
  // Drop-oldest eviction contract: once a session is purged, none of its
  // pending chunks may land in a subsequently dispatched batch.
  BatchRecorder rec;
  rec.CloseGate();
  int gate, k1, k2, k3, k4;
  ContinuousBatcher batcher({.max_batch = 3, .workers = 1}, rec.Fn());
  batcher.Enqueue(&gate, TinyChunk());
  ASSERT_EQ(rec.WaitForBatches(1), 1u);
  batcher.EnqueueWithDeadline(&k1, TinyChunk(), DeadlineIn(10));
  batcher.EnqueueWithDeadline(&k2, TinyChunk(), DeadlineIn(20));
  EXPECT_EQ(batcher.Purge(&k1), 1u);
  batcher.EnqueueWithDeadline(&k3, TinyChunk(), DeadlineIn(30));
  batcher.EnqueueWithDeadline(&k4, TinyChunk(), DeadlineIn(40));
  rec.OpenGate();
  batcher.Drain();
  ASSERT_EQ(rec.batches.size(), 2u);
  EXPECT_EQ(rec.batches[1], (std::vector<void*>{&k2, &k3, &k4}));
  EXPECT_EQ(batcher.pending(), 0u);
  batcher.Shutdown();
}

TEST(ContinuousBatcher, PurgeWhileLaneInFlightRemovesOnlyPending) {
  // Purge a session while one of its chunks is inside a running batch:
  // the in-flight chunk completes normally, the queued ones vanish, and
  // the lane is reusable afterwards (the in-flight claim is released).
  BatchRecorder rec;
  rec.CloseGate();
  int a;
  ContinuousBatcher batcher({.max_batch = 1, .workers = 1}, rec.Fn());
  batcher.Enqueue(&a, TinyChunk());
  ASSERT_EQ(rec.WaitForBatches(1), 1u);  // a's first chunk is in flight
  batcher.Enqueue(&a, TinyChunk());
  batcher.Enqueue(&a, TinyChunk());
  EXPECT_EQ(batcher.pending_for(&a), 2u);
  EXPECT_EQ(batcher.Purge(&a), 2u);  // in-flight chunk is NOT counted
  EXPECT_EQ(batcher.pending_for(&a), 0u);
  rec.OpenGate();
  batcher.Drain();
  ASSERT_EQ(rec.batches.size(), 1u);  // purged chunks never dispatched
  // The lane still works: a fresh chunk dispatches normally.
  batcher.Enqueue(&a, TinyChunk());
  ASSERT_EQ(rec.WaitForBatches(2), 2u);
  EXPECT_EQ(rec.batches[1], (std::vector<void*>{&a}));
  batcher.Shutdown();
}

TEST(ContinuousBatcher, StealingPreservesFifoWithinEveryLane) {
  // Work-stealing stress (TSan target): 4 dispatch threads drain 4 lanes
  // fed concurrently by 4 producers. Stealing may interleave LANES any
  // way it likes, but within one lane chunks must arrive strictly in
  // enqueue order — the lane's in-flight claim serializes them even when
  // they hop between dispatch threads. Chunk sizes encode sequence
  // numbers so the callback can verify order without extra plumbing.
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kChunksPerLane = 48;
  int keys[kLanes];
  std::mutex mu;
  std::array<std::size_t, kLanes> next_seq{};
  std::size_t total = 0;
  bool order_ok = true;
  ContinuousBatcher batcher(
      {.max_batch = 2, .workers = 4},
      [&](std::vector<ContinuousBatcher::Item>&& items) {
        std::lock_guard lock(mu);
        for (const auto& it : items) {
          const std::size_t lane =
              static_cast<std::size_t>(static_cast<int*>(it.key) - keys);
          order_ok &= it.chunk.size() == next_seq[lane] + 1;
          ++next_seq[lane];
          ++total;
        }
      });
  std::vector<std::thread> producers;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    producers.emplace_back([&batcher, &keys, lane] {
      for (std::size_t seq = 0; seq < kChunksPerLane; ++seq) {
        batcher.Enqueue(&keys[lane], audio::Waveform(16000, seq + 1));
      }
    });
  }
  for (auto& t : producers) t.join();
  batcher.Drain();
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(total, kLanes * kChunksPerLane);
  for (const std::size_t seen : next_seq) {
    EXPECT_EQ(seen, kChunksPerLane);
  }
  batcher.Shutdown();
}

TEST(ContinuousBatcher, DrainWaitsOutPendingAndInFlight) {
  BatchRecorder rec;
  int k;
  ContinuousBatcher batcher({.max_batch = 4, .workers = 1}, rec.Fn());
  for (int i = 0; i < 3; ++i) batcher.Enqueue(&k, TinyChunk());
  batcher.Drain();
  EXPECT_EQ(batcher.pending(), 0u);
  std::lock_guard lock(rec.mu);
  std::size_t total = 0;
  for (const auto& b : rec.batches) total += b.size();
  EXPECT_EQ(total, 3u);
}

TEST(ContinuousBatcher, EnqueueAfterShutdownIsTypedInvariant) {
  // Regression (ISSUE 7 satellite): the failure mode must be a typed
  // CheckError — which SessionManager's classifier maps to
  // ErrorCategory::kInvariant — not a silent drop or a data race on the
  // joined dispatch threads.
  BatchRecorder rec;
  int k;
  ContinuousBatcher batcher({.max_batch = 2, .workers = 1}, rec.Fn());
  batcher.Shutdown();
  try {
    batcher.Enqueue(&k, TinyChunk());
    FAIL() << "Enqueue after Shutdown must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("Shutdown"), std::string::npos);
  }
}

// ---------------------------------------------- SessionManager (batched)

TEST_F(SessionManagerTest, BatchedSessionsMatchSequentialBitExact) {
  // The tentpole property: routing chunks through the continuous batcher
  // (one InferBatch across sessions) must leave every session's output
  // bit-identical to the sequential single-threaded path.
  constexpr std::size_t kSessions = 4;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          .max_batch = 4});
  ASSERT_TRUE(manager.batching_enabled());

  std::vector<synth::SpeakerProfile> speakers;
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(200 + i));
    ids.push_back(manager.CreateSession(
        builder_.MakeReferenceAudios(speakers[i], 3, 80 + i)));
    streams.push_back(builder_.MakeUtterance(speakers[i], 17 + i).wave);
  }

  const std::size_t piece = 3700;
  std::size_t pos = 0;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (pos >= streams[i].size()) continue;
      const std::size_t n = std::min(piece, streams[i].size() - pos);
      EXPECT_TRUE(
          manager.Submit(ids[i], streams[i].samples().subspan(pos, n))
              .ok());
      any_left = true;
    }
    pos += piece;
  }
  manager.Drain();

  for (std::size_t i = 0; i < kSessions; ++i) {
    audio::Waveform batched_out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) batched_out.Append(*tail);

    core::NecPipeline seq_pipeline(selector_, encoder_, {});
    seq_pipeline.Enroll(builder_.MakeReferenceAudios(speakers[i], 3, 80 + i));
    core::StreamingProcessor seq(seq_pipeline, 1.0,
                                 core::SelectorKind::kNeural);
    audio::Waveform seq_out;
    if (auto out = seq.Push(streams[i].samples())) seq_out = std::move(*out);
    if (auto tail = seq.Flush()) seq_out.Append(*tail);

    ASSERT_EQ(batched_out.size(), seq_out.size()) << "session " << i;
    for (std::size_t kk = 0; kk < seq_out.size(); ++kk) {
      ASSERT_EQ(batched_out[kk], seq_out[kk])
          << "session " << i << " sample " << kk;
    }
  }

  const RuntimeStatsSnapshot stats = manager.Stats();
  // 2.5 s per stream at 1 s chunks: 2 batched chunks + 1 flush tail each.
  EXPECT_EQ(stats.chunks_processed, kSessions * 3u);
  EXPECT_EQ(stats.batched_chunks, kSessions * 2u);
  EXPECT_GT(stats.batches_dispatched, 0u);
  EXPECT_LE(stats.batches_dispatched, stats.batched_chunks);
  EXPECT_GE(stats.avg_batch_size, 1.0);
  EXPECT_LE(stats.max_batch_size, 4u);
  EXPECT_EQ(stats.queue_wait.count, kSessions * 2u);
}

TEST_F(SessionManagerTest, BatchingNotEnabledForLasOrUnitBatch) {
  // The LAS ablation has no batched forward, and max_batch = 1 means the
  // coalescer would only add latency — both keep the classic strand path.
  SessionManager las(selector_, encoder_, {},
                     {.workers = 1,
                      .kind = core::SelectorKind::kLasMask,
                      .max_batch = 8});
  EXPECT_FALSE(las.batching_enabled());
  SessionManager unit(selector_, encoder_, {},
                      {.workers = 1,
                       .kind = core::SelectorKind::kNeural,
                       .max_batch = 1});
  EXPECT_FALSE(unit.batching_enabled());
}

TEST_F(SessionManagerTest, SubChunkSubmitsDispatchNoStrand) {
  // Samples wait in the session's buffer until a full chunk is there: a
  // capture-callback-sized piece that completes no chunk dispatches no
  // strand, in either mode, and the output is still the sequential one.
  // Each piece is drained before the next, as a live capture paced in
  // real time would be: no strand is left running to absorb a piece.
  constexpr std::size_t kChunks = 4;
  constexpr std::size_t kPiece = 4000;
  const auto spk = synth::SpeakerProfile::FromSeed(600);
  const auto refs = builder_.MakeReferenceAudios(spk, 3, 610);
  synth::DatasetBuilder long_builder({.duration_s = 4.5});
  const audio::Waveform utterance = long_builder.MakeUtterance(spk, 620).wave;
  const std::size_t chunk_n = static_cast<std::size_t>(cfg_.sample_rate);
  const audio::Waveform stream = utterance.Slice(0, kChunks * chunk_n);

  core::NecPipeline seq_pipeline(selector_, encoder_, {});
  seq_pipeline.Enroll(refs);
  core::StreamingProcessor seq(seq_pipeline, 1.0, core::SelectorKind::kNeural);
  const std::optional<audio::Waveform> reference = seq.Push(stream.samples());
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "max_batch " << max_batch);
    SessionManager manager(selector_, encoder_, {},
                           {.workers = 2,
                            .chunk_s = 1.0,
                            .kind = core::SelectorKind::kNeural,
                            .max_batch = max_batch});
    const auto id = manager.CreateSession(refs);
    for (std::size_t pos = 0; pos < stream.size(); pos += kPiece) {
      const std::size_t n = std::min(kPiece, stream.size() - pos);
      EXPECT_TRUE(manager.Submit(id, stream.samples().subspan(pos, n)).ok());
      manager.Drain();
    }
    const audio::Waveform out = manager.TakeOutput(id);
    EXPECT_FALSE(manager.Flush(id).has_value());  // whole chunks only

    const RuntimeStatsSnapshot stats = manager.Stats();
    EXPECT_EQ(stats.chunks_processed, kChunks);
    EXPECT_GE(stats.dispatches, 1u);
    EXPECT_LE(stats.dispatches, stats.chunks_processed)
        << (stream.size() + kPiece - 1) / kPiece << " submits";
    ASSERT_EQ(out.size(), reference->size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      ASSERT_EQ(out[k], (*reference)[k]) << "sample " << k;
    }
  }
}

TEST_F(SessionManagerTest, BatchedDropOldestEvictionStress) {
  // TSan-oriented stress of the batcher under drop-oldest eviction:
  // Enqueue (strand threads), RunBatch (dispatch threads) and Purge
  // (AbandonStrand on submitter threads) race on the lanes while
  // sessions are being evicted. The invariants: no deadlock, no purged
  // chunk lands in a batch after its eviction (Purge's contract — a
  // violation shows up as a torn StreamingProcessor latch under TSan), and
  // the stats stay self-consistent.
  constexpr std::size_t kSessions = 3;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 1,
                          .policy = OverflowPolicy::kDropOldest,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          .max_batch = 2});
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto spk = synth::SpeakerProfile::FromSeed(300 + i);
    ids.push_back(manager.CreateSession(
        builder_.MakeReferenceAudios(spk, 3, 90 + i)));
    streams.push_back(builder_.MakeUtterance(spk, 27 + i).wave);
  }

  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kSessions; ++i) {
    producers.emplace_back([&, i] {
      const std::size_t piece = 2000;
      for (std::size_t pos = 0; pos < streams[i].size(); pos += piece) {
        const std::size_t n = std::min(piece, streams[i].size() - pos);
        manager.Submit(ids[i], streams[i].samples().subspan(pos, n));
      }
    });
  }
  for (auto& t : producers) t.join();
  manager.Drain();

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_LE(stats.batched_chunks, stats.chunks_processed);
  if (stats.batches_dispatched > 0) {
    EXPECT_GE(stats.avg_batch_size, 1.0);
    EXPECT_LE(stats.max_batch_size, 2u);
  }
  // Every session is idle after Drain: Flush's idle check must pass even
  // for sessions whose strands were evicted mid-stream.
  for (std::size_t i = 0; i < kSessions; ++i) {
    manager.Flush(ids[i]);
    manager.TakeOutput(ids[i]);
  }
}

TEST_F(SessionManagerTest, EndToEndLatencyRecordedForEveryChunk) {
  // Honest-accounting satellite: the runtime must expose end-to-end
  // latency (ready -> complete, queue wait included) next to the
  // compute-only chunk latency. Every chunk records both, and because the
  // e2e window starts at readiness — before any queue wait — its maximum
  // can never undercut the compute maximum.
  constexpr std::size_t kSessions = 3;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          .max_batch = 2});
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto spk = synth::SpeakerProfile::FromSeed(400 + i);
    ids.push_back(
        manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 95 + i)));
    ASSERT_TRUE(
        manager.Submit(ids[i], builder_.MakeUtterance(spk, 37 + i).wave.samples())
            .ok());
  }
  manager.Drain();
  for (std::size_t i = 0; i < kSessions; ++i) manager.Flush(ids[i]);

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.chunks_processed, kSessions * 3u);
  EXPECT_EQ(stats.e2e_latency.count, stats.chunk_latency.count);
  EXPECT_GT(stats.e2e_latency.p99_ms, 0.0);
  EXPECT_GE(stats.e2e_latency.max_ms + 1e-6, stats.chunk_latency.max_ms);
}

TEST_F(SessionManagerTest, BatchedThroughputDoesNotRegressAtEightSessions) {
  // Regression guard for the batching cliff this PR removes: the PR 4
  // coalescer's hold-the-oldest window made batched serving SLOWER than
  // unbatched at 8 sessions (0.94x with multi-second queue waits). The
  // continuous batcher has no hold window, so batched throughput must stay
  // in the unbatched ballpark or above. Noise control: ctest runs suites
  // concurrently, so each arm takes the best of three alternating trials
  // (the least-contended sample) and the floor is a loose 0.75x — any
  // return of a coalescing wait (which cost 3-10x on tiny chunks) blows
  // through it instantly.
  constexpr std::size_t kSessions = 8;
  std::vector<synth::SpeakerProfile> speakers;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(500 + i));
    streams.push_back(builder_.MakeUtterance(speakers[i], 47 + i).wave);
  }

  const auto run = [&](std::size_t max_batch) {
    SessionManager manager(selector_, encoder_, {},
                           {.workers = 2,
                            .queue_capacity = 256,
                            .chunk_s = 1.0,
                            .kind = core::SelectorKind::kNeural,
                            .max_batch = max_batch});
    std::vector<SessionManager::SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i) {
      ids.push_back(manager.CreateSession(
          builder_.MakeReferenceAudios(speakers[i], 3, 85 + i)));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t piece = 3700;
    std::size_t pos = 0;
    bool any_left = true;
    while (any_left) {
      any_left = false;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (pos >= streams[i].size()) continue;
        const std::size_t n = std::min(piece, streams[i].size() - pos);
        EXPECT_TRUE(
            manager.Submit(ids[i], streams[i].samples().subspan(pos, n)).ok());
        any_left = true;
      }
      pos += piece;
    }
    manager.Drain();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const RuntimeStatsSnapshot stats = manager.Stats();
    EXPECT_EQ(stats.chunks_processed, kSessions * 2u);  // 2.5 s -> 2 chunks
    return wall_s > 0.0
               ? static_cast<double>(stats.chunks_processed) / wall_s
               : 0.0;
  };

  double unbatched_cps = 0.0;
  double batched_cps = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    unbatched_cps = std::max(unbatched_cps, run(/*max_batch=*/1));
    batched_cps = std::max(batched_cps, run(/*max_batch=*/3));
  }
  ASSERT_GT(unbatched_cps, 0.0);
  EXPECT_GE(batched_cps, 0.75 * unbatched_cps)
      << "batched " << batched_cps << " chunks/s vs unbatched "
      << unbatched_cps << " — the batching cliff is back";
}

}  // namespace
}  // namespace nec::runtime
