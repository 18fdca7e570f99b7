#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <new>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace corrmine {

namespace {

// Identity of the current thread within some pool. A plain thread_local
// (not per-pool) so CurrentWorkerIndex stays a two-load check; the pool
// pointer disambiguates when several pools coexist.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerIdentity tls_worker;

#if defined(__linux__)
// Reads a small proc/sys file into `buf`. Returns false when unreadable.
bool ReadSmallFile(const char* path, char* buf, size_t cap) {
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) return false;
  size_t n = std::fread(buf, 1, cap - 1, f);
  std::fclose(f);
  if (n == 0) return false;
  buf[n] = '\0';
  return true;
}

// CPU quota in whole CPUs from cgroup v2 (`cpu.max`: "<quota> <period>" or
// "max <period>") or cgroup v1 (cfs_quota_us / cfs_period_us). Returns 0
// when no quota applies.
int CgroupCpuQuota() {
  char buf[64];
  if (ReadSmallFile("/sys/fs/cgroup/cpu.max", buf, sizeof(buf))) {
    long long quota = 0, period = 0;
    if (std::sscanf(buf, "%lld %lld", &quota, &period) == 2 && quota > 0 &&
        period > 0) {
      return static_cast<int>((quota + period - 1) / period);
    }
    return 0;  // "max <period>" or unlimited.
  }
  const char* quota_paths[] = {"/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                               "/sys/fs/cgroup/cpu,cpuacct/cpu.cfs_quota_us"};
  const char* period_paths[] = {"/sys/fs/cgroup/cpu/cpu.cfs_period_us",
                                "/sys/fs/cgroup/cpu,cpuacct/cpu.cfs_period_us"};
  for (int i = 0; i < 2; ++i) {
    char qbuf[64], pbuf[64];
    if (!ReadSmallFile(quota_paths[i], qbuf, sizeof(qbuf))) continue;
    long long quota = std::atoll(qbuf);
    if (quota <= 0) return 0;  // -1 = unlimited.
    long long period = 100000;
    if (ReadSmallFile(period_paths[i], pbuf, sizeof(pbuf))) {
      long long p = std::atoll(pbuf);
      if (p > 0) period = p;
    }
    return static_cast<int>((quota + period - 1) / period);
  }
  return 0;
}
#endif  // __linux__

}  // namespace

int ThreadPool::UsableHardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  int usable = hw == 0 ? 1 : static_cast<int>(hw);
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    int affinity = CPU_COUNT(&mask);
    if (affinity > 0) usable = std::min(usable, affinity);
  }
  int quota = CgroupCpuQuota();
  if (quota > 0) usable = std::min(usable, quota);
#endif
  return std::max(1, usable);
}

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  return UsableHardwareConcurrency();
}

ThreadPool::ThreadPool(int num_threads)
    : tasks_submitted_(
          MetricsRegistry::Global().GetCounter("pool.tasks_submitted")),
      tasks_executed_(
          MetricsRegistry::Global().GetCounter("pool.tasks_executed")),
      steal_count_(MetricsRegistry::Global().GetCounter("pool.steal_count")),
      steal_tasks_(MetricsRegistry::Global().GetCounter("pool.steal_tasks")),
      idle_ns_(MetricsRegistry::Global().GetCounter("pool.idle_ns")),
      wait_ns_(MetricsRegistry::Global().GetHistogram("pool.wait_ns")),
      morsel_ns_(MetricsRegistry::Global().GetHistogram("pool.morsel_ns")),
      queue_depth_(MetricsRegistry::Global().GetGauge("pool.queue_depth")) {
  CORRMINE_CHECK(num_threads >= 1) << "thread pool needs at least one worker";
  deques_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    deques_.push_back(std::make_unique<TaskDeque>());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  try {
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  } catch (...) {
    // A thread that could not start (std::system_error, e.g. no address
    // space left for its stack): join the ones that did, whose joinable
    // handles would otherwise end the process, and let the caller decide.
    StopWorkers();
    throw;
  }
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    shutting_down_ = true;
    ++work_epoch_;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::CurrentWorkerIndex() const {
  return tls_worker.pool == this ? tls_worker.index : -1;
}

void ThreadPool::NotifyWorkArrived() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++work_epoch_;
  }
  work_available_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  tasks_submitted_->Add();
  int self = CurrentWorkerIndex();
  TaskDeque* q = self >= 0 ? deques_[static_cast<size_t>(self)].get()
                           : &injector_;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    q->tasks.push_back(std::move(task));
  }
  queue_depth_->Set(pending_.fetch_add(1, std::memory_order_relaxed) + 1);
  NotifyWorkArrived();
}

bool ThreadPool::ClaimTask(std::function<void()>* task) {
  const int self = CurrentWorkerIndex();
  const size_t n = deques_.size();
  // 1. Own deque, newest first: the task most likely to have warm state.
  if (self >= 0) {
    TaskDeque& own = *deques_[static_cast<size_t>(self)];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // 2. Injector, oldest first.
  {
    std::lock_guard<std::mutex> lock(injector_.mu);
    if (!injector_.tasks.empty()) {
      *task = std::move(injector_.tasks.front());
      injector_.tasks.pop_front();
      return true;
    }
  }
  // 3. Steal. Workers take half of the victim's deque (front = oldest) and
  // keep the surplus on their own deque; external helpers take one task.
  // The scan starts after the caller's own slot so victims rotate.
  const size_t start = self >= 0 ? static_cast<size_t>(self) + 1 : 0;
  for (size_t off = 0; off < n; ++off) {
    const size_t victim = (start + off) % n;
    if (self >= 0 && victim == static_cast<size_t>(self)) continue;
    std::deque<std::function<void()>> loot;
    {
      TaskDeque& v = *deques_[victim];
      std::lock_guard<std::mutex> lock(v.mu);
      if (v.tasks.empty()) continue;
      size_t take = self >= 0 ? (v.tasks.size() + 1) / 2 : 1;
      for (size_t i = 0; i < take; ++i) {
        loot.push_back(std::move(v.tasks.front()));
        v.tasks.pop_front();
      }
    }
    steal_count_->Add();
    steal_tasks_->Add(loot.size());
    *task = std::move(loot.front());
    loot.pop_front();
    if (!loot.empty()) {
      // Surplus goes to our own deque; other thieves can re-steal it.
      TaskDeque& own = *deques_[static_cast<size_t>(self)];
      {
        std::lock_guard<std::mutex> lock(own.mu);
        for (auto& t : loot) own.tasks.push_back(std::move(t));
      }
      NotifyWorkArrived();
    }
    return true;
  }
  return false;
}

void ThreadPool::RunTask(std::function<void()> task) {
  queue_depth_->Set(pending_.fetch_sub(1, std::memory_order_relaxed) - 1);
  {
    TraceScope task_span("pool.task");
    const uint64_t start = SteadyNowNanos();
    task();
    morsel_ns_->Observe(SteadyNowNanos() - start);
  }
  tasks_executed_->Add();
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  if (!ClaimTask(&task)) return false;
  RunTask(std::move(task));
  return true;
}

void ThreadPool::HelpUntil(std::mutex& mu, std::condition_variable& cv,
                           const std::function<bool()>& done) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done()) return;
    }
    if (RunOneTask()) continue;
    // Nothing claimable: park on the region's condition variable. The short
    // timeout re-runs the claim scan, so work submitted between our scan
    // and the wait (whose notify we may have missed) cannot strand us.
    std::unique_lock<std::mutex> lock(mu);
    const uint64_t idle_start = SteadyNowNanos();
    cv.wait_for(lock, std::chrono::milliseconds(1), done);
    const uint64_t waited = SteadyNowNanos() - idle_start;
    idle_ns_->Add(waited);
    wait_ns_->Observe(waited);
    if (done()) return;
  }
}

void ThreadPool::WorkerLoop(int index) {
  tls_worker.pool = this;
  tls_worker.index = index;
  for (;;) {
    if (RunOneTask()) continue;
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      if (shutting_down_) break;
      epoch = work_epoch_;
    }
    // A task submitted after the epoch read bumps the epoch, so the wait
    // below can't sleep through it; a task submitted before is caught by
    // this rescan.
    if (RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (shutting_down_) break;
    if (work_epoch_ != epoch) continue;
    const uint64_t idle_start = SteadyNowNanos();
    work_available_.wait(lock, [this, epoch] {
      return shutting_down_ || work_epoch_ != epoch;
    });
    const uint64_t waited = SteadyNowNanos() - idle_start;
    idle_ns_->Add(waited);
    wait_ns_->Observe(waited);
    TraceInstant("pool.wait", -1, -1, static_cast<int64_t>(waited));
  }
  // Shutdown drain: anything claimable still runs. A failed scan here
  // happens after shutting_down_ was published, so every pre-shutdown
  // Submit is visible to it; tasks submitted by still-running tasks are
  // drained by whichever worker runs them.
  while (RunOneTask()) {
  }
  tls_worker.pool = nullptr;
  tls_worker.index = -1;
}

namespace {

/// Region-scoped free list of scratch-slot indices. Participants take a
/// slot for their whole run of chunks; capacity equals the number of
/// helper tasks + 1 (the caller), so Acquire can never fail.
class SlotPool {
 public:
  explicit SlotPool(size_t capacity) {
    free_.reserve(capacity);
    for (size_t i = capacity; i > 0; --i) free_.push_back(i - 1);
  }
  size_t Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    CORRMINE_CHECK(!free_.empty()) << "slot pool exhausted";
    size_t s = free_.back();
    free_.pop_back();
    return s;
  }
  void Release(size_t slot) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slot);
  }

 private:
  std::mutex mu_;
  std::vector<size_t> free_;
};

/// Runs `fn`, turning an exception that escapes it into a Status: an
/// allocation failure is ResourceExhausted, anything else Internal. No
/// exception crosses a region.
template <typename Fn>
Status RunGuarded(const Fn& fn) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory in parallel region");
  } catch (const std::exception& e) {
    return Status::Internal(
        std::string("uncaught exception in parallel region: ") + e.what());
  } catch (...) {
    return Status::Internal("uncaught non-std exception in parallel region");
  }
}

Status InvokeGuarded(const std::function<Status(size_t, size_t, size_t)>& body,
                     size_t slot, size_t begin, size_t end) {
  return RunGuarded([&] { return body(slot, begin, end); });
}

/// Shared coordination for one ParallelFor region: a work-stealing chunk
/// cursor plus first-failure bookkeeping. Failures are recorded with the
/// chunk's starting index so the *earliest* error wins regardless of which
/// worker hit it first — the sequential loop's error, reproduced.
struct ParallelForState {
  explicit ParallelForState(size_t slot_capacity) : slots(slot_capacity) {}

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  size_t first_error_index = 0;
  bool has_error = false;
  Status first_error;
  SlotPool slots;

  // Completion latch. Lives here (not on the caller's stack) because the
  // last helper touches it after the waiter may already have woken.
  std::atomic<size_t> outstanding{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
};

void RecordFailure(ParallelForState* state, size_t chunk_begin,
                   Status status) {
  std::lock_guard<std::mutex> lock(state->error_mu);
  if (!state->has_error || chunk_begin < state->first_error_index) {
    state->has_error = true;
    state->first_error_index = chunk_begin;
    state->first_error = std::move(status);
  }
  state->failed.store(true, std::memory_order_release);
}

void RunChunks(ParallelForState* state, size_t n, size_t grain,
               const std::function<Status(size_t, size_t, size_t)>& body) {
  // Claim the scratch slot lazily: helpers woken after the region drained
  // shouldn't churn the free list.
  if (state->failed.load(std::memory_order_acquire)) return;
  if (state->next.load(std::memory_order_relaxed) >= n) return;
  const size_t slot = state->slots.Acquire();
  for (;;) {
    if (state->failed.load(std::memory_order_acquire)) break;
    size_t begin = state->next.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= n) break;
    size_t end = std::min(begin + grain, n);
    Status status = InvokeGuarded(body, slot, begin, end);
    if (!status.ok()) {
      RecordFailure(state, begin, std::move(status));
      break;
    }
  }
  state->slots.Release(slot);
}

Status ParallelForSlotsImpl(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& body) {
  if (n == 0) return Status::OK();
  CORRMINE_CHECK(grain > 0) << "ParallelFor grain must be positive";
  if (pool == nullptr || pool->num_threads() == 0 || n <= grain) {
    // Inline fallback: run sequentially in chunk order so error semantics
    // match the parallel path exactly. Slot 0 is the only slot.
    for (size_t begin = 0; begin < n; begin += grain) {
      CORRMINE_RETURN_NOT_OK(
          InvokeGuarded(body, 0, begin, std::min(begin + grain, n)));
    }
    return Status::OK();
  }

  // Helpers beyond what the chunk count can occupy just wake up and exit.
  size_t num_chunks = (n + grain - 1) / grain;
  size_t helpers = std::min(static_cast<size_t>(pool->num_threads()),
                            num_chunks > 0 ? num_chunks - 1 : 0);
  auto state = std::make_shared<ParallelForState>(helpers + 1);
  state->outstanding.store(helpers, std::memory_order_relaxed);

  // `body` is only touched inside RunChunks, which every helper finishes
  // before decrementing the latch — so capturing it by reference is safe:
  // the caller cannot return (and invalidate it) while any helper still
  // counts as outstanding.
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, n, grain, &body] {
      RunChunks(state.get(), n, grain, body);
      if (state->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->done_mu);
        state->done_cv.notify_all();
      }
    });
  }

  // The caller participates too: with a busy or small pool the loop still
  // makes progress on this thread.
  RunChunks(state.get(), n, grain, body);

  // Help-first join: run other queued tasks (including this region's own
  // helpers if they were stolen or never started) instead of blocking —
  // this is what makes nested ParallelFor calls from worker threads safe.
  pool->HelpUntil(state->done_mu, state->done_cv, [&state] {
    return state->outstanding.load(std::memory_order_acquire) == 0;
  });

  std::lock_guard<std::mutex> lock(state->error_mu);
  if (state->has_error) return state->first_error;
  return Status::OK();
}

}  // namespace

size_t ParallelForSlotBound(ThreadPool* pool, size_t n, size_t grain) {
  if (n == 0) return 1;
  CORRMINE_CHECK(grain > 0) << "ParallelFor grain must be positive";
  if (pool == nullptr || pool->num_threads() == 0 || n <= grain) return 1;
  size_t num_chunks = (n + grain - 1) / grain;
  size_t helpers = std::min(static_cast<size_t>(pool->num_threads()),
                            num_chunks > 0 ? num_chunks - 1 : 0);
  return helpers + 1;
}

Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                   const std::function<Status(size_t begin, size_t end)>& body) {
  return ParallelForSlotsImpl(
      pool, n, grain,
      [&body](size_t, size_t begin, size_t end) { return body(begin, end); });
}

Status ParallelForSlots(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& body) {
  return ParallelForSlotsImpl(pool, n, grain, body);
}

namespace {

/// Shared coordination for one OrderedPipeline region. Stage completion is
/// tracked per chunk (`done[c]`); the consumer waits on exactly the chunk
/// it needs next. Errors carry their *sequence position* — stage(c) is
/// position 2c, consume(c) is 2c+1 — so the reported error is the one the
/// inline loop would have hit first.
struct PipelineState {
  PipelineState(size_t chunks, size_t slot_capacity)
      : done(std::make_unique<std::atomic<uint8_t>[]>(chunks)),
        slots(slot_capacity) {
    for (size_t i = 0; i < chunks; ++i) {
      done[i].store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<size_t> next{0};
  std::unique_ptr<std::atomic<uint8_t>[]> done;
  std::atomic<bool> failed{false};
  SlotPool slots;

  std::mutex error_mu;
  bool has_error = false;
  size_t first_error_pos = 0;
  Status first_error;

  std::atomic<size_t> outstanding{0};
  std::mutex mu;  // guards cv waits (chunk-done and final join)
  std::condition_variable cv;
};

void RecordPipelineFailure(PipelineState* state, size_t pos, Status status) {
  std::lock_guard<std::mutex> lock(state->error_mu);
  if (!state->has_error || pos < state->first_error_pos) {
    state->has_error = true;
    state->first_error_pos = pos;
    state->first_error = std::move(status);
  }
  state->failed.store(true, std::memory_order_release);
}

/// Claims and runs one stage chunk; returns false when the cursor is
/// drained. After a failure, remaining chunks are still claimed and marked
/// done (without running) so the ordered consumer can never wait forever
/// on a chunk that nobody will execute.
bool RunOneStageChunk(PipelineState* state, size_t n, size_t grain,
                      size_t num_chunks, size_t slot,
                      const std::function<Status(size_t, size_t, size_t)>& stage) {
  size_t begin = state->next.fetch_add(grain, std::memory_order_relaxed);
  if (begin >= n) return false;
  const size_t chunk = begin / grain;
  (void)num_chunks;
  if (!state->failed.load(std::memory_order_acquire)) {
    Status status = InvokeGuarded(stage, slot, begin, std::min(begin + grain, n));
    if (!status.ok()) {
      RecordPipelineFailure(state, 2 * chunk, std::move(status));
    }
  }
  state->done[chunk].store(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(state->mu);
  }
  state->cv.notify_all();
  return true;
}

void RunStageChunks(PipelineState* state, size_t n, size_t grain,
                    size_t num_chunks,
                    const std::function<Status(size_t, size_t, size_t)>& stage) {
  if (state->next.load(std::memory_order_relaxed) >= n) return;
  const size_t slot = state->slots.Acquire();
  while (RunOneStageChunk(state, n, grain, num_chunks, slot, stage)) {
  }
  state->slots.Release(slot);
}

}  // namespace

size_t OrderedPipelineSlotBound(ThreadPool* pool, size_t n, size_t grain) {
  if (n == 0) return 1;
  CORRMINE_CHECK(grain > 0) << "OrderedPipeline grain must be positive";
  const size_t num_chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->num_threads() == 0 || num_chunks == 1) return 1;
  return std::min(static_cast<size_t>(pool->num_threads()), num_chunks) + 1;
}

Status OrderedPipeline(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& stage,
    const std::function<Status(size_t begin, size_t end)>& consume) {
  if (n == 0) return Status::OK();
  CORRMINE_CHECK(grain > 0) << "OrderedPipeline grain must be positive";
  const size_t num_chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->num_threads() == 0 || num_chunks == 1) {
    for (size_t begin = 0; begin < n; begin += grain) {
      size_t end = std::min(begin + grain, n);
      CORRMINE_RETURN_NOT_OK(InvokeGuarded(stage, 0, begin, end));
      CORRMINE_RETURN_NOT_OK(
          RunGuarded([&] { return consume(begin, end); }));
    }
    return Status::OK();
  }

  // Unlike ParallelFor, helpers may take every chunk: the caller's job is
  // consuming, and it only runs stage chunks when it would otherwise wait.
  const size_t helpers =
      std::min(static_cast<size_t>(pool->num_threads()), num_chunks);
  auto state = std::make_shared<PipelineState>(num_chunks, helpers + 1);
  state->outstanding.store(helpers, std::memory_order_relaxed);

  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, n, grain, num_chunks, &stage] {
      RunStageChunks(state.get(), n, grain, num_chunks, stage);
      if (state->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    });
  }

  // Ordered consumption, overlapped with the stage. The caller claims a
  // stage chunk itself whenever the chunk it needs next isn't done and the
  // cursor still has work — so a busy pool never stalls the pipeline.
  size_t consumer_slot = static_cast<size_t>(-1);
  for (size_t c = 0; c < num_chunks; ++c) {
    while (state->done[c].load(std::memory_order_acquire) == 0) {
      bool claimed;
      {
        if (consumer_slot == static_cast<size_t>(-1)) {
          consumer_slot = state->slots.Acquire();
        }
        claimed = RunOneStageChunk(state.get(), n, grain, num_chunks,
                                   consumer_slot, stage);
      }
      if (!claimed) {
        pool->HelpUntil(state->mu, state->cv, [&state, c] {
          return state->done[c].load(std::memory_order_acquire) != 0;
        });
      }
    }
    // Stage errors at chunks <= c are recorded before done[c] is set, so
    // this read is complete for everything the inline loop would have hit
    // by now. Stop at the first failure, in order.
    {
      std::lock_guard<std::mutex> lock(state->error_mu);
      if (state->has_error && state->first_error_pos <= 2 * c) break;
    }
    const size_t begin = c * grain;
    const size_t end = std::min(begin + grain, n);
    Status status = RunGuarded([&] { return consume(begin, end); });
    if (!status.ok()) {
      RecordPipelineFailure(state.get(), 2 * c + 1, std::move(status));
      break;
    }
  }
  if (consumer_slot != static_cast<size_t>(-1)) {
    state->slots.Release(consumer_slot);
  }

  pool->HelpUntil(state->mu, state->cv, [&state] {
    return state->outstanding.load(std::memory_order_acquire) == 0;
  });

  std::lock_guard<std::mutex> lock(state->error_mu);
  if (state->has_error) return state->first_error;
  return Status::OK();
}

}  // namespace corrmine
