#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "common/metrics.h"

namespace corrmine {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(3), 3);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(-5), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);  // Hardware-dependent.
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  Status status = ParallelFor(&pool, kN, /*grain=*/7,
                              [&](size_t begin, size_t end) -> Status {
                                for (size_t i = begin; i < end; ++i) {
                                  touched[i].fetch_add(1);
                                }
                                return Status::OK();
                              });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, InlineWithoutPool) {
  std::vector<int> values(100, 0);
  Status status = ParallelFor(nullptr, values.size(), /*grain=*/9,
                              [&](size_t begin, size_t end) -> Status {
                                for (size_t i = begin; i < end; ++i) {
                                  values[i] = static_cast<int>(i);
                                }
                                return Status::OK();
                              });
  ASSERT_TRUE(status.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], static_cast<int>(i));
  }
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(2);
  bool ran = false;
  Status status = ParallelFor(&pool, 0, 1, [&](size_t, size_t) -> Status {
    ran = true;
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, PropagatesEarliestError) {
  ThreadPool pool(4);
  // Chunk 0 is deterministically claimed (the first fetch_add hands out
  // index 0, and the failed-flag check precedes every claim), so when chunk
  // 0 fails its error must win over every later failure, no matter how the
  // chunks interleave. This is the sequential loop's answer, reproduced.
  for (int round = 0; round < 20; ++round) {
    Status status = ParallelFor(
        &pool, 1000, /*grain=*/10, [&](size_t begin, size_t) -> Status {
          if (begin == 0) return Status::InvalidArgument("chunk 0");
          if (begin >= 500) {
            return Status::Internal("late chunk " + std::to_string(begin));
          }
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(status.message(), "chunk 0");
  }
}

TEST(ParallelForTest, CallerParticipatesWhenPoolIsBusy) {
  // Park every worker on a condition variable, then run a ParallelFor
  // region: the first chunk can only be executed by the calling thread
  // (the helper tasks are queued behind the parked workers). That first
  // chunk releases the workers so the region can finish. Everything is
  // asserted via thread identity and completion counts — no timing.
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> parked{0};
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      parked.fetch_add(1);
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    // All workers demonstrably parked: chunks cannot start on pool threads.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked.load() == 3; });
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> covered{0};
  std::atomic<bool> first_chunk_on_caller{false};
  std::atomic<bool> first_seen{false};
  Status status = ParallelFor(
      &pool, 1000, /*grain=*/10, [&](size_t begin, size_t end) -> Status {
        if (!first_seen.exchange(true)) {
          first_chunk_on_caller.store(std::this_thread::get_id() == caller);
          std::lock_guard<std::mutex> lock(mu);
          release = true;
          cv.notify_all();
        }
        covered.fetch_add(end - begin);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(first_chunk_on_caller.load())
      << "first chunk ran on a pool thread that should have been parked";
  EXPECT_EQ(covered.load(), 1000u);
}

TEST(ParallelForTest, SequentialErrorOrderWithoutPool) {
  // Inline mode must return exactly the first error in index order.
  Status status = ParallelFor(
      nullptr, 100, /*grain=*/10, [&](size_t begin, size_t) -> Status {
        if (begin >= 30) return Status::Internal("chunk " + std::to_string(begin));
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "chunk 30");
}

TEST(ParallelForTest, ExceptionsBecomeInternalStatus) {
  ThreadPool pool(2);
  Status status = ParallelFor(&pool, 100, /*grain=*/5,
                              [&](size_t begin, size_t) -> Status {
                                if (begin == 50) {
                                  throw std::runtime_error("boom");
                                }
                                return Status::OK();
                              });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, AllocationFailureBecomesResourceExhausted) {
  // A region whose stage runs out of memory returns ResourceExhausted —
  // inline, on a pool, and from either side of an ordered pipeline —
  // instead of letting std::bad_alloc escape to std::terminate.
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Status status = ParallelFor(p, 100, /*grain=*/5,
                                [&](size_t begin, size_t) -> Status {
                                  if (begin == 50) throw std::bad_alloc();
                                  return Status::OK();
                                });
    EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
    EXPECT_EQ(status.ToString().rfind("ResourceExhausted: ", 0), 0u);

    status = OrderedPipeline(
        p, 100, /*grain=*/10,
        [&](size_t, size_t begin, size_t) -> Status {
          if (begin == 40) throw std::bad_alloc();
          return Status::OK();
        },
        [&](size_t, size_t) -> Status { return Status::OK(); });
    EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();

    status = OrderedPipeline(
        p, 100, /*grain=*/10,
        [&](size_t, size_t, size_t) -> Status { return Status::OK(); },
        [&](size_t begin, size_t) -> Status {
          if (begin == 30) throw std::bad_alloc();
          return Status::OK();
        });
    EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  }
}

TEST(ThreadPoolTest, UsableHardwareConcurrencyIsSane) {
  int usable = ThreadPool::UsableHardwareConcurrency();
  EXPECT_GE(usable, 1);
  // Never more than the raw hardware count: the whole point is clamping.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(usable, static_cast<int>(hw));
  }
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), usable);
}

TEST(ThreadPoolTest, SubmitFromWorkerNeverDeadlocks) {
  // Each task submits more tasks from inside the pool: Submit from a worker
  // never blocks, and the destructor still runs every task queued by a task
  // that was running when shutdown began.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&pool, &counter] {
        counter.fetch_add(1);
        for (int j = 0; j < 4; ++j) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
  }
  EXPECT_EQ(counter.load(), 8 + 8 * 4);
}

TEST(ParallelForTest, NestedParallelForFromWorkerCompletes) {
  // An inner ParallelFor issued from inside an outer body running on a
  // pool worker: the help-first join must run the queued inner helpers
  // itself rather than blocking the worker on a queue that only it could
  // drain. Deadlock here hangs the test (caught by ctest timeout).
  ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  Status status = ParallelFor(
      &pool, 16, /*grain=*/1, [&](size_t begin, size_t) -> Status {
        std::atomic<uint64_t> inner_sum{0};
        Status inner = ParallelFor(&pool, 32, /*grain=*/4,
                                   [&](size_t b, size_t e) -> Status {
                                     uint64_t local = 0;
                                     for (size_t i = b; i < e; ++i) local += i;
                                     inner_sum.fetch_add(local);
                                     return Status::OK();
                                   });
        if (!inner.ok()) return inner;
        if (inner_sum.load() != 32u * 31u / 2u) {
          return Status::Internal("inner sum wrong at outer " +
                                  std::to_string(begin));
        }
        total.fetch_add(inner_sum.load());
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(total.load(), 16u * (32u * 31u / 2u));
}

TEST(ParallelForTest, SlotsAreExclusiveWhileHeld) {
  // No two concurrently-running bodies may observe the same slot. Each
  // body marks its slot busy on entry and frees it on exit; a collision
  // means the slot invariant is broken.
  ThreadPool pool(3);
  const size_t bound = ParallelForSlotBound(&pool, 10000, 7);
  ASSERT_GE(bound, 1u);
  std::vector<std::atomic<int>> in_use(bound);
  std::atomic<bool> collision{false};
  std::vector<std::atomic<uint64_t>> per_slot(bound);
  Status status = ParallelForSlots(
      &pool, 10000, /*grain=*/7,
      [&](size_t slot, size_t begin, size_t end) -> Status {
        if (slot >= bound) return Status::Internal("slot out of bounds");
        if (in_use[slot].fetch_add(1) != 0) collision.store(true);
        for (size_t i = begin; i < end; ++i) {
          per_slot[slot].fetch_add(i);
        }
        in_use[slot].fetch_sub(1);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(collision.load());
  uint64_t total = 0;
  for (size_t s = 0; s < bound; ++s) total += per_slot[s].load();
  EXPECT_EQ(total, 10000ull * 9999ull / 2ull);
}

TEST(OrderedPipelineTest, ConsumesEveryChunkInOrder) {
  ThreadPool pool(3);
  constexpr size_t kN = 5000;
  std::vector<uint32_t> staged(kN, 0);
  std::vector<size_t> consumed_begins;
  uint64_t checksum = 0;
  Status status = OrderedPipeline(
      &pool, kN, /*grain=*/13,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          staged[i] = static_cast<uint32_t>(i * 3 + 1);
        }
        return Status::OK();
      },
      [&](size_t begin, size_t end) -> Status {
        consumed_begins.push_back(begin);  // serial: no lock needed
        for (size_t i = begin; i < end; ++i) checksum += staged[i];
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(consumed_begins.size(), (kN + 12) / 13);
  for (size_t c = 0; c < consumed_begins.size(); ++c) {
    EXPECT_EQ(consumed_begins[c], c * 13);
  }
  uint64_t expected = 0;
  for (size_t i = 0; i < kN; ++i) expected += i * 3 + 1;
  EXPECT_EQ(checksum, expected);
}

TEST(OrderedPipelineTest, MatchesInlineSemanticsOnErrors) {
  // A stage error and a consumer error racing: the reported error must be
  // the one the inline interleaving stage(0),consume(0),stage(1),... hits
  // first. Stage fails at chunk 20 (position 40); the consumer fails at
  // chunk 10 (position 21) — the consumer error must win, every round.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    Status status = OrderedPipeline(
        &pool, 1000, /*grain=*/10,
        [&](size_t, size_t begin, size_t) -> Status {
          if (begin == 200) return Status::Internal("stage chunk 20");
          return Status::OK();
        },
        [&](size_t begin, size_t) -> Status {
          if (begin == 100) return Status::InvalidArgument("consume chunk 10");
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(status.message(), "consume chunk 10");
  }
  // And with only a stage error, the earliest stage error wins.
  Status status = OrderedPipeline(
      &pool, 1000, /*grain=*/10,
      [&](size_t, size_t begin, size_t) -> Status {
        if (begin >= 300) {
          return Status::Internal("stage chunk " + std::to_string(begin / 10));
        }
        return Status::OK();
      },
      [&](size_t, size_t) -> Status { return Status::OK(); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "stage chunk 30");
}

TEST(OrderedPipelineTest, InlineWithoutPool) {
  std::vector<int> order;
  Status status = OrderedPipeline(
      nullptr, 30, /*grain=*/10,
      [&](size_t, size_t begin, size_t) -> Status {
        order.push_back(static_cast<int>(begin));
        return Status::OK();
      },
      [&](size_t begin, size_t) -> Status {
        order.push_back(-(static_cast<int>(begin) + 1));
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  // Strict stage/consume interleaving in chunk order.
  std::vector<int> expected = {0, -1, 10, -11, 20, -21};
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, ManySmallRegionsReuseOnePool) {
  // The miner's usage pattern: one pool, many flushes. Stress the
  // region-setup/teardown path for latent races (meaningful under TSan).
  ThreadPool pool(3);
  for (int region = 0; region < 200; ++region) {
    std::atomic<uint64_t> sum{0};
    Status status = ParallelFor(&pool, 64, /*grain=*/3,
                                [&](size_t begin, size_t end) -> Status {
                                  uint64_t local = 0;
                                  for (size_t i = begin; i < end; ++i) {
                                    local += i;
                                  }
                                  sum.fetch_add(local);
                                  return Status::OK();
                                });
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

#if defined(__linux__)
/// The affinity mask of each of `pool`'s workers, as the worker reports it:
/// one task per worker, each held until all have started, so no worker
/// runs two of them.
std::vector<cpu_set_t> WorkerMasks(ThreadPool& pool) {
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    size_t started = 0;
    size_t finished = 0;
    std::vector<cpu_set_t> masks;
  };
  const size_t workers = static_cast<size_t>(pool.num_threads());
  auto barrier = std::make_shared<Barrier>();
  barrier->masks.resize(workers);
  for (size_t i = 0; i < workers; ++i) {
    pool.Submit([barrier, workers, i] {
      std::unique_lock<std::mutex> lock(barrier->mu);
      CPU_ZERO(&barrier->masks[i]);
      EXPECT_EQ(sched_getaffinity(0, sizeof(cpu_set_t), &barrier->masks[i]),
                0);
      ++barrier->started;
      barrier->cv.notify_all();
      barrier->cv.wait(lock, [&] { return barrier->started == workers; });
      ++barrier->finished;
      barrier->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(barrier->mu);
  barrier->cv.wait(lock, [&] { return barrier->finished == workers; });
  return barrier->masks;
}

TEST(ThreadPoolTest, WorkersBindToDistinctCpusOfTheMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  const int cpus = CPU_COUNT(&mask);
  if (cpus < 2) GTEST_SKIP() << "one usable CPU: a worker cannot fit";
  const int workers = std::min(cpus - 1, 3);
  ThreadPool pool(workers);
  std::set<int> bound;
  for (cpu_set_t& worker : WorkerMasks(pool)) {
    ASSERT_EQ(CPU_COUNT(&worker), 1);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &worker)) continue;
      EXPECT_TRUE(CPU_ISSET(cpu, &mask)) << "bound outside the mask: " << cpu;
      bound.insert(cpu);
    }
  }
  EXPECT_EQ(bound.size(), static_cast<size_t>(workers));
}

TEST(ThreadPoolTest, OversubscribedPoolStaysUnbound) {
  // Narrow this thread to one CPU: a 2-worker pool plus this thread does
  // not fit, so the workers keep the mask they inherit and bind nowhere
  // else.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  std::vector<cpu_set_t> masks;
  {
    ThreadPool pool(2);
    masks = WorkerMasks(pool);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  ASSERT_EQ(masks.size(), 2u);
  for (cpu_set_t& worker : masks) {
    EXPECT_TRUE(CPU_EQUAL(&worker, &one));
  }
}
#endif  // __linux__

TEST(ParallelForTest, RegionCpusGaugeCountsTheCpusThatRanChunks) {
  Gauge* region_cpus = MetricsRegistry::Global().GetGauge("pool.region_cpus");
  region_cpus->Set(0);
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  ASSERT_TRUE(ParallelFor(&pool, 4096, /*grain=*/16,
                          [&](size_t begin, size_t end) -> Status {
                            for (size_t i = begin; i < end; ++i) {
                              sum.fetch_add(i, std::memory_order_relaxed);
                            }
                            return Status::OK();
                          })
                  .ok());
  // At least the caller's CPU; never more CPUs than participants.
  EXPECT_GE(region_cpus->Value(), 1);
  EXPECT_LE(region_cpus->Value(), 3);
}

}  // namespace
}  // namespace corrmine
