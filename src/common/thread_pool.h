#ifndef CORRMINE_COMMON_THREAD_POOL_H_
#define CORRMINE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace corrmine {

class Counter;
class Gauge;
class Histogram;

/// Work-stealing worker pool for the mining engines (DESIGN.md §10).
/// Tasks are opaque `void()` closures; completion tracking, result routing
/// and error propagation are layered on top by ParallelFor/OrderedPipeline.
///
/// Scheduling model: every worker owns a deque. Submit from a worker thread
/// pushes to that worker's own deque (never blocks, never spawns — nested
/// regions are safe by construction); Submit from outside lands in a shared
/// injector queue. A worker pops its own deque LIFO, then drains the
/// injector FIFO, then steals half of the fullest victim's deque. Threads
/// joining a region via HelpUntil run queued tasks instead of blocking, so
/// a ParallelFor issued from inside another ParallelFor's body completes
/// even when every worker is occupied by the outer region.
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

  /// Drains the queues and joins the workers. Tasks submitted but not yet
  /// started still run before destruction completes.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Thread-safe; callable from worker threads (the task
  /// goes to the calling worker's own deque and is executed inline-or-stolen,
  /// never blocked on).
  void Submit(std::function<void()> task);

  /// Claims and runs one queued task on the calling thread, if any task is
  /// claimable (own deque, injector, or stolen). Returns false when nothing
  /// was claimable at scan time.
  bool RunOneTask();

  /// Help-first join: runs claimable tasks until `done()` holds, parking on
  /// `cv` (guarded by `mu`) only when no task is claimable anywhere. `done`
  /// is evaluated under `mu`. Safe from worker threads and external threads
  /// alike — this is what makes nested parallel regions deadlock-free.
  void HelpUntil(std::mutex& mu, std::condition_variable& cv,
                 const std::function<bool()>& done);

  /// Index of the calling thread within this pool, or -1 if the caller is
  /// not one of this pool's workers.
  int CurrentWorkerIndex() const;

  /// The number of concurrent workers to use for `requested` threads:
  /// 0 means "ask the hardware" (never less than 1); negative is treated
  /// as 1.
  static int ResolveThreadCount(int requested);

  /// CPUs actually usable by this process: hardware_concurrency() clamped
  /// by the scheduler affinity mask (cpuset) and the cgroup v1/v2 CPU quota,
  /// so containers don't oversubscribe. Never less than 1.
  static int UsableHardwareConcurrency();

 private:
  // One mutex-protected deque. Owners push/pop at the back (LIFO keeps the
  // working set hot); the injector and thieves take from the front (FIFO
  // preserves rough submission order for stolen work).
  struct TaskDeque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int index);
  /// Publishes shutdown and joins every started worker.
  void StopWorkers();
  bool ClaimTask(std::function<void()>* task);
  void RunTask(std::function<void()> task);
  void NotifyWorkArrived();

  std::vector<std::unique_ptr<TaskDeque>> deques_;  // one per worker
  TaskDeque injector_;                              // external submits

  // Sleep coordination: a worker reads `work_epoch_`, rescans every queue,
  // and sleeps only if the epoch is unchanged — every Submit bumps the
  // epoch, so a task pushed after the rescan forces another scan instead of
  // a lost wakeup.
  std::mutex sleep_mu_;
  std::condition_variable work_available_;
  uint64_t work_epoch_ = 0;
  bool shutting_down_ = false;

  std::atomic<int64_t> pending_{0};  // queued, not yet claimed
  std::vector<std::thread> workers_;

  // Pool observability (MetricsRegistry::Global(), "pool.*"): submissions,
  // completions, steals (count and tasks moved), per-task run time, the ns
  // workers spent parked (total and per-wait histogram), and the queue
  // depth after the latest submit/claim. Resolved once at construction; no
  // registry lookups on the task path.
  Counter* tasks_submitted_;
  Counter* tasks_executed_;
  Counter* steal_count_;
  Counter* steal_tasks_;
  Counter* idle_ns_;
  Histogram* wait_ns_;
  Histogram* morsel_ns_;
  Gauge* queue_depth_;
};

/// Runs `body(begin, end)` over [0, n) split into work-stealing chunks of
/// `grain` indices, spread across the pool's workers plus the calling
/// thread. Returns the first non-OK Status in chunk order (lowest starting
/// index wins, matching what a sequential loop would have returned); once
/// any chunk fails, remaining chunks are skipped. Exceptions escaping
/// `body` are captured and surfaced as a Status — ResourceExhausted for
/// std::bad_alloc, Internal otherwise — they never cross the pool
/// boundary.
///
/// With `pool == nullptr` the loop runs inline on the calling thread, so
/// callers can treat "no pool" and "one thread" identically. Nested calls
/// (ParallelFor from inside a body running on a pool worker) are safe: the
/// inner region's tasks run inline-or-stolen via HelpUntil.
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
