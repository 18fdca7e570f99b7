#include "common/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <new>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace corrmine {

namespace {

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

/// The CPU each of `workers` pool threads binds itself to: distinct CPUs of
/// the constructing thread's affinity mask, skipping the one that thread
/// runs on now. Empty — placement left to the scheduler — unless the
/// workers and that thread all fit in the mask, so an oversubscribed pool
/// never stacks bound workers and nothing is bound outside the mask.
std::vector<int> WorkerCpus(int workers) {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      workers + 1 > CPU_COUNT(&mask)) {
    return cpus;
  }
  const int current = sched_getcpu();
  for (int cpu = 0; cpu < CPU_SETSIZE && static_cast<int>(cpus.size()) < workers;
       ++cpu) {
    if (cpu != current && CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
#else
  (void)workers;
#endif
  return cpus;
}

/// Pins the calling thread to `cpu`. Best effort: a refused binding leaves
/// the thread wherever the scheduler puts it.
void BindCurrentThread(int cpu) {
#if defined(__linux__)
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
#else
  (void)cpu;
#endif
}

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
      idle_ns_(MetricsRegistry::Global().GetCounter("pool.idle_ns")),
      wait_ns_(MetricsRegistry::Global().GetHistogram("pool.wait_ns")),
      morsel_ns_(MetricsRegistry::Global().GetHistogram("pool.morsel_ns")),
      queue_depth_(MetricsRegistry::Global().GetGauge("pool.queue_depth")) {
  CORRMINE_CHECK(num_threads >= 1) << "thread pool needs at least one worker";
  workers_.reserve(static_cast<size_t>(num_threads));
  const std::vector<int> cpus = WorkerCpus(num_threads);
  try {
    for (int i = 0; i < num_threads; ++i) {
      const int cpu = cpus.empty() ? -1 : cpus[static_cast<size_t>(i)];
      workers_.emplace_back([this, cpu] {
        if (cpu >= 0) BindCurrentThread(cpu);
        WorkerLoop();
      });
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
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    depth = tasks_.size();
  }
  tasks_submitted_->Add();
  queue_depth_->Set(static_cast<int64_t>(depth));
  work_available_.notify_one();
}

bool ThreadPool::TryPop(std::function<void()>* task) {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    *task = std::move(tasks_.front());
    tasks_.pop_front();
    depth = tasks_.size();
  }
  queue_depth_->Set(static_cast<int64_t>(depth));
  return true;
}

void ThreadPool::RunTask(std::function<void()> task) {
  {
    TraceScope task_span("pool.task");
    const uint64_t start = SteadyNowNanos();
    task();
    morsel_ns_->Observe(SteadyNowNanos() - start);
  }
  tasks_executed_->Add();
}

void ThreadPool::HelpUntil(std::mutex& mu, std::condition_variable& cv,
                           const std::function<bool()>& done) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done()) return;
    }
    std::function<void()> task;
    if (TryPop(&task)) {
      RunTask(std::move(task));
      continue;
    }
    // Queue empty: park on the region's condition variable. The short
    // timeout re-checks the queue, so tasks queued while we wait (whose
    // notify goes to the workers, not to `cv`) still find a helper here.
    std::unique_lock<std::mutex> lock(mu);
    const uint64_t idle_start = SteadyNowNanos();
    cv.wait_for(lock, std::chrono::milliseconds(1), done);
    const uint64_t waited = SteadyNowNanos() - idle_start;
    idle_ns_->Add(waited);
    wait_ns_->Observe(waited);
    if (done()) return;
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    if (TryPop(&task)) {
      RunTask(std::move(task));
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!tasks_.empty()) continue;  // Queued since the pop above.
    // A worker leaves only with the queue empty, so shutdown drains every
    // task queued before it — and any task a still-running task queues,
    // because that task's own worker has not left yet.
    if (shutting_down_) break;
    const uint64_t idle_start = SteadyNowNanos();
    work_available_.wait(
        lock, [this] { return shutting_down_ || !tasks_.empty(); });
    const uint64_t waited = SteadyNowNanos() - idle_start;
    idle_ns_->Add(waited);
    wait_ns_->Observe(waited);
    TraceInstant("pool.wait", -1, -1, static_cast<int64_t>(waited));
  }
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

/// The distinct CPUs that ran a region's chunks: each participant ORs the
/// CPU it is on into the mask once, when it joins.
class RegionCpus {
 public:
  void AddCurrent() {
#if defined(__linux__)
    const int cpu = sched_getcpu();
    if (cpu < 0 || cpu >= kMaxCpus) return;
    words_[static_cast<size_t>(cpu) / 64].fetch_or(
        uint64_t{1} << (cpu % 64), std::memory_order_relaxed);
#endif
  }

  /// Raises the "pool.region_cpus" gauge to this region's CPU count.
  void Publish() const {
    static Gauge* const gauge =
        MetricsRegistry::Global().GetGauge("pool.region_cpus");
    int64_t count = 0;
    for (const std::atomic<uint64_t>& word : words_) {
      count += std::popcount(word.load(std::memory_order_relaxed));
    }
    gauge->SetMax(count);
  }

 private:
  static constexpr int kMaxCpus = 1024;
  std::array<std::atomic<uint64_t>, kMaxCpus / 64> words_{};
};

Status InvokeGuarded(const std::function<Status(size_t, size_t, size_t)>& body,
                     size_t slot, size_t begin, size_t end) {
  return RunGuarded([&] { return body(slot, begin, end); });
}

/// Queues up to `helpers` tasks that each run `run(state)` and then count
/// themselves off `state->outstanding`, waking `state->cv` on the last one.
/// A helper is counted only once it is queued: when Submit throws (the task
/// closure and the queue node both allocate), the rest are dropped and the
/// caller, which claims chunks from the same cursor, finishes the region
/// with whoever was queued.
template <typename State, typename Run>
void SubmitHelpers(ThreadPool* pool, size_t helpers,
                   const std::shared_ptr<State>& state, const Run& run) {
  for (size_t h = 0; h < helpers; ++h) {
    state->outstanding.fetch_add(1, std::memory_order_relaxed);
    try {
      pool->Submit([state, run] {
        run(state.get());
        if (state->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(state->mu);
          state->cv.notify_all();
        }
      });
    } catch (const std::bad_alloc&) {
      state->outstanding.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
}

/// Shared coordination for one ParallelFor region: one chunk cursor plus
/// first-failure bookkeeping. Failures are recorded with the chunk's
/// starting index so the *earliest* error wins regardless of which thread
/// hit it first — the sequential loop's error, reproduced.
struct ParallelForState {
  explicit ParallelForState(size_t slot_capacity) : slots(slot_capacity) {}

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  size_t first_error_index = 0;
  bool has_error = false;
  Status first_error;
  SlotPool slots;
  RegionCpus cpus;

  // Completion latch over the queued helpers. Lives here (not on the
  // caller's stack) because the last helper touches it after the waiter may
  // already have woken.
  std::atomic<size_t> outstanding{0};
  std::mutex mu;
  std::condition_variable cv;
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
  state->cpus.AddCurrent();
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

}  // namespace

size_t ParallelForSlotBound(ThreadPool* pool, size_t n, size_t grain) {
  if (n == 0) return 1;
  CORRMINE_CHECK(grain > 0) << "ParallelFor grain must be positive";
  if (pool == nullptr || n <= grain) return 1;
  // The caller claims chunks too, so helpers beyond chunks - 1 would only
  // find the cursor drained.
  const size_t num_chunks = (n + grain - 1) / grain;
  const size_t helpers =
      std::min(static_cast<size_t>(pool->num_threads()), num_chunks - 1);
  return helpers + 1;
}

Status ParallelForSlots(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& body) {
  if (n == 0) return Status::OK();
  const size_t slots = ParallelForSlotBound(pool, n, grain);
  if (slots == 1) {
    // Inline fallback: run sequentially in chunk order so error semantics
    // match the parallel path exactly. Slot 0 is the only slot.
    for (size_t begin = 0; begin < n; begin += grain) {
      CORRMINE_RETURN_NOT_OK(
          InvokeGuarded(body, 0, begin, std::min(begin + grain, n)));
    }
    return Status::OK();
  }
  auto state = std::make_shared<ParallelForState>(slots);

  // `body` is only touched inside RunChunks, which every helper finishes
  // before decrementing the latch — so capturing it by reference is safe:
  // the caller cannot return (and invalidate it) while any helper still
  // counts as outstanding.
  SubmitHelpers(pool, slots - 1, state,
                [n, grain, &body](ParallelForState* s) {
                  RunChunks(s, n, grain, body);
                });

  // The caller participates too: with a busy or small pool the loop still
  // makes progress on this thread.
  RunChunks(state.get(), n, grain, body);

  // Help-first join: run queued tasks (including this region's own helpers
  // if no worker has popped them yet) instead of blocking — this is what
  // makes nested ParallelFor calls from worker threads safe.
  pool->HelpUntil(state->mu, state->cv, [&state] {
    return state->outstanding.load(std::memory_order_acquire) == 0;
  });
  state->cpus.Publish();

  std::lock_guard<std::mutex> lock(state->error_mu);
  if (state->has_error) return state->first_error;
  return Status::OK();
}

Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                   const std::function<Status(size_t begin, size_t end)>& body) {
  return ParallelForSlots(
      pool, n, grain,
      [&body](size_t, size_t begin, size_t end) { return body(begin, end); });
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
  RegionCpus cpus;

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
                      size_t slot,
                      const std::function<Status(size_t, size_t, size_t)>& stage) {
  size_t begin = state->next.fetch_add(grain, std::memory_order_relaxed);
  if (begin >= n) return false;
  const size_t chunk = begin / grain;
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
                    const std::function<Status(size_t, size_t, size_t)>& stage) {
  if (state->next.load(std::memory_order_relaxed) >= n) return;
  const size_t slot = state->slots.Acquire();
  state->cpus.AddCurrent();
  while (RunOneStageChunk(state, n, grain, slot, stage)) {
  }
  state->slots.Release(slot);
}

}  // namespace

size_t OrderedPipelineSlotBound(ThreadPool* pool, size_t n, size_t grain) {
  if (n == 0) return 1;
  CORRMINE_CHECK(grain > 0) << "OrderedPipeline grain must be positive";
  const size_t num_chunks = (n + grain - 1) / grain;
  if (pool == nullptr || num_chunks == 1) return 1;
  // Unlike ParallelFor, helpers may take every chunk: the caller's job is
  // consuming, and it only runs stage chunks when it would otherwise wait.
  return std::min(static_cast<size_t>(pool->num_threads()), num_chunks) + 1;
}

Status OrderedPipeline(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<Status(size_t slot, size_t begin, size_t end)>& stage,
    const std::function<Status(size_t begin, size_t end)>& consume) {
  if (n == 0) return Status::OK();
  const size_t slots = OrderedPipelineSlotBound(pool, n, grain);
  if (slots == 1) {
    for (size_t begin = 0; begin < n; begin += grain) {
      size_t end = std::min(begin + grain, n);
      CORRMINE_RETURN_NOT_OK(InvokeGuarded(stage, 0, begin, end));
      CORRMINE_RETURN_NOT_OK(
          RunGuarded([&] { return consume(begin, end); }));
    }
    return Status::OK();
  }
  const size_t num_chunks = (n + grain - 1) / grain;
  auto state = std::make_shared<PipelineState>(num_chunks, slots);
  SubmitHelpers(pool, slots - 1, state,
                [n, grain, &stage](PipelineState* s) {
                  RunStageChunks(s, n, grain, stage);
                });

  // Ordered consumption, overlapped with the stage. The caller claims a
  // stage chunk itself whenever the chunk it needs next isn't done and the
  // cursor still has work — so a busy pool never stalls the pipeline.
  state->cpus.AddCurrent();
  size_t consumer_slot = static_cast<size_t>(-1);
  for (size_t c = 0; c < num_chunks; ++c) {
    while (state->done[c].load(std::memory_order_acquire) == 0) {
      if (consumer_slot == static_cast<size_t>(-1)) {
        consumer_slot = state->slots.Acquire();
      }
      if (!RunOneStageChunk(state.get(), n, grain, consumer_slot, stage)) {
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
  state->cpus.Publish();

  std::lock_guard<std::mutex> lock(state->error_mu);
  if (state->has_error) return state->first_error;
  return Status::OK();
}

}  // namespace corrmine
