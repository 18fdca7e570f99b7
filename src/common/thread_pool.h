#ifndef CORRMINE_COMMON_THREAD_POOL_H_
#define CORRMINE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace corrmine {

class Counter;
class Gauge;
class Histogram;

/// Worker pool for the mining engines' parallel regions (DESIGN.md §10):
/// one mutex-guarded FIFO task queue and one condition variable. Tasks are
/// opaque `void()` closures; the regions below (ParallelFor,
/// ParallelForSlots, OrderedPipeline) are its only clients in the engine.
/// Each region queues at most `num_threads()` helpers that pull chunks from
/// one shared cursor, so load balance comes from the cursor, not from
/// moving tasks between queues. Threads joining a region via HelpUntil run
/// queued tasks instead of blocking, so a ParallelFor issued from inside
/// another ParallelFor's body completes even when every worker is occupied
/// by the outer region.
///
/// Ownership contract: whoever constructs the pool joins it (the destructor
/// drains queued tasks, then joins all workers). The miner creates one pool
/// per MineCorrelations call and reuses it across levels; long-lived servers
/// can keep a process-wide pool and pass it down instead.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. `num_threads` must be >= 1. If a worker
  /// cannot be started, the ones that were are joined and the
  /// std::system_error propagates.
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins the workers. Tasks submitted but not yet
  /// started still run before destruction completes.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Appends a task to the queue. Thread-safe, callable from worker
  /// threads, never blocks on a running task. Throws std::bad_alloc when
  /// the task cannot be queued.
  void Submit(std::function<void()> task);

  /// Help-first join: runs queued tasks until `done()` holds, parking on
  /// `cv` (guarded by `mu`) only when the queue is empty. `done` is
  /// evaluated under `mu`. Safe from worker threads and external threads
  /// alike — this is what makes nested parallel regions deadlock-free.
  void HelpUntil(std::mutex& mu, std::condition_variable& cv,
                 const std::function<bool()>& done);

  /// The number of concurrent workers to use for `requested` threads:
  /// 0 means "ask the hardware" (never less than 1); negative is treated
  /// as 1.
  static int ResolveThreadCount(int requested);

  /// CPUs actually usable by this process: hardware_concurrency() clamped
  /// by the scheduler affinity mask (cpuset) and the cgroup v1/v2 CPU quota,
  /// so containers don't oversubscribe. Never less than 1.
  static int UsableHardwareConcurrency();

 private:
  void WorkerLoop();
  /// Publishes shutdown and joins every started worker.
  void StopWorkers();
  /// Moves the oldest queued task into `task`; false when the queue is
  /// empty.
  bool TryPop(std::function<void()>* task);
  void RunTask(std::function<void()> task);

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool shutting_down_ = false;               // guarded by mu_
  std::vector<std::thread> workers_;

  // Pool observability (MetricsRegistry::Global(), "pool.*"): submissions,
  // completions, per-task run time, the ns workers spent parked (total and
  // per-wait histogram), and the queue depth after the latest submit/pop.
  // Resolved once at construction; no registry lookups on the task path.
  Counter* tasks_submitted_;
  Counter* tasks_executed_;
  Counter* idle_ns_;
  Histogram* wait_ns_;
  Histogram* morsel_ns_;
  Gauge* queue_depth_;
};

/// Runs `body(begin, end)` over [0, n) split into chunks of `grain`
/// indices, claimed from one shared cursor by the pool's workers and the
/// calling thread. Returns the first non-OK Status in chunk order (lowest starting
/// index wins, matching what a sequential loop would have returned); once
/// any chunk fails, remaining chunks are skipped. Exceptions escaping
/// `body` are captured and surfaced as a Status — ResourceExhausted for
/// std::bad_alloc, Internal otherwise — they never cross the pool
/// boundary.
///
/// With `pool == nullptr` the loop runs inline on the calling thread, so
/// callers can treat "no pool" and "one thread" identically. Nested calls
/// (ParallelFor from inside a body running on a pool worker) are safe: the
/// inner region's helpers run on whichever waiting thread pops them via
/// HelpUntil.
///
/// `body` must be safe to invoke concurrently on disjoint ranges. For
/// deterministic results, write output to index-addressed slots rather than
/// shared accumulators.
Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                   const std::function<Status(size_t begin, size_t end)>& body);

/// ParallelFor with per-participant scratch slots: `body(slot, begin, end)`
/// receives a slot index in [0, ParallelForSlotBound(pool, n, grain)) that
/// no concurrently-running body invocation shares — use it to index
/// pre-allocated scratch arenas instead of `thread_local` buffers (arenas
/// are sized once, reused across chunks, and visible for deterministic
/// post-region merging). A participant holds one slot for its whole run of
/// chunks, so slot acquisition is once per thread per region, not per chunk.
Status ParallelForSlots(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& body);

/// Upper bound (exact capacity) on slot indices ParallelForSlots can hand
/// out for this (pool, n, grain) combination. Use it to size per-slot
/// scratch before entering the region. Always >= 1.
size_t ParallelForSlotBound(ThreadPool* pool, size_t n, size_t grain);

/// Parallel stage + strictly ordered serial consumer, overlapped: `stage`
/// runs over chunks of [0, n) concurrently (slot-addressed scratch exactly
/// as in ParallelForSlots), while `consume` is invoked on the calling
/// thread for every chunk in increasing index order as soon as that chunk's
/// stage completes — the consumer chases the stage instead of waiting for a
/// full barrier. Sequential semantics are preserved: the result equals
/// running `stage(c); consume(c)` for c = 0,1,2,... inline, including which
/// error is returned (earliest in that interleaved order). Because `stage`
/// may run speculatively ahead of a consumer error, it must confine its
/// side effects to its slot scratch and chunk-addressed outputs.
Status OrderedPipeline(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& stage,
    const std::function<Status(size_t begin, size_t end)>& consume);

/// Exact slot capacity OrderedPipeline uses for this (pool, n, grain)
/// combination — size per-slot stage scratch with it. Always >= 1.
size_t OrderedPipelineSlotBound(ThreadPool* pool, size_t n, size_t grain);

}  // namespace corrmine

#endif  // CORRMINE_COMMON_THREAD_POOL_H_
