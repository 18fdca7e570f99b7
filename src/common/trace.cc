#include "common/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace corrmine {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

/// Chrome wants microsecond timestamps; keep the nanosecond precision as a
/// fractional part so per-thread ordering survives the unit change.
void AppendMicros(std::ostringstream* out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  *out << buf;
}

void AppendArgs(std::ostringstream* out, const TraceEvent& event) {
  *out << ",\"args\":{";
  bool first = true;
  auto field = [&](const char* key, int64_t v) {
    if (v < 0) return;
    if (!first) *out << ',';
    first = false;
    *out << '"' << key << "\":" << v;
  };
  field("level", event.level);
  field("shard", event.shard);
  field("value", event.value);
  *out << '}';
}

void AppendEvent(std::ostringstream* out, uint32_t tid,
                 const TraceEvent& event, bool* first_out) {
  if (!*first_out) *out << ",\n";
  *first_out = false;
  const char* ph = event.phase == TraceEventPhase::kBegin ? "B"
                   : event.phase == TraceEventPhase::kEnd ? "E"
                                                          : "i";
  *out << "{\"name\":\"" << (event.name != nullptr ? event.name : "")
       << "\",\"ph\":\"" << ph << "\",\"ts\":";
  AppendMicros(out, event.ts_ns);
  *out << ",\"pid\":0,\"tid\":" << tid;
  if (event.phase == TraceEventPhase::kInstant) *out << ",\"s\":\"t\"";
  AppendArgs(out, event);
  *out << '}';
}

}  // namespace

TraceRing::TraceRing(size_t capacity)
    : slots_(RoundUpPow2(capacity)), mask_(slots_.size() - 1) {}

void TraceRing::Append(const TraceEvent& event) {
  const uint64_t c = cursor_.load(std::memory_order_relaxed);
  slots_[c & mask_] = event;
  cursor_.store(c + 1, std::memory_order_release);
}

TraceRing::Contents TraceRing::Snapshot() const {
  Contents out;
  const uint64_t end = cursor_.load(std::memory_order_acquire);
  const uint64_t capacity = slots_.size();
  const uint64_t begin = end > capacity ? end - capacity : 0;
  out.dropped = begin;
  out.events.reserve(end - begin);
  for (uint64_t i = begin; i < end; ++i) {
    out.events.push_back(slots_[i & mask_]);
  }
  return out;
}

Tracer& Tracer::Global() {
  static Tracer* global = new Tracer();
  return *global;
}

void Tracer::Start(size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  events_per_thread_ = events_per_thread;
  epoch_ns_ = SteadyNowNanos();
  session_.fetch_add(1, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void Tracer::Stop() { active_.store(false, std::memory_order_release); }

uint64_t Tracer::NowNanos() const { return SteadyNowNanos() - epoch_ns_; }

namespace {

/// Shared between ThreadRing() (registers, may lock/allocate) and
/// ThreadRingIfCached() (async-signal-safe read-only lookup). File-scope so
/// both members see the same thread-local slot. Rings live until the next
/// Start(), so a cached pointer validated against the session is never
/// dangling.
struct CachedThreadRing {
  TraceRing* ring = nullptr;
  uint64_t session = 0;
};
thread_local CachedThreadRing t_cached_ring;

}  // namespace

TraceRing* Tracer::ThreadRing() {
  const uint64_t session = session_.load(std::memory_order_relaxed);
  if (t_cached_ring.ring != nullptr && t_cached_ring.session == session) {
    return t_cached_ring.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<TraceRing>(events_per_thread_));
  t_cached_ring.ring = rings_.back().get();
  t_cached_ring.session = session;
  return t_cached_ring.ring;
}

TraceRing* Tracer::ThreadRingIfCached() {
  if (!active_.load(std::memory_order_acquire)) return nullptr;
  const uint64_t session = session_.load(std::memory_order_relaxed);
  if (t_cached_ring.ring == nullptr || t_cached_ring.session != session) {
    return nullptr;
  }
  return t_cached_ring.ring;
}

uint64_t Tracer::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const std::unique_ptr<TraceRing>& ring : rings_) {
    dropped += ring->Dropped();
  }
  return dropped;
}

std::vector<Tracer::ThreadTrace> Tracer::Collect() const {
  std::vector<ThreadTrace> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(rings_.size());
  for (size_t tid = 0; tid < rings_.size(); ++tid) {
    TraceRing::Contents contents = rings_[tid]->Snapshot();
    ThreadTrace trace;
    trace.tid = static_cast<uint32_t>(tid);
    trace.events = std::move(contents.events);
    trace.dropped = contents.dropped;
    out.push_back(std::move(trace));
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  std::vector<ThreadTrace> threads = Collect();
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  uint64_t dropped_total = 0;
  for (const ThreadTrace& thread : threads) {
    dropped_total += thread.dropped;
    // Re-balance this thread's window of the event stream. Spans nest
    // strictly per thread (TraceScope is stack-scoped), so an end either
    // matches the innermost open begin or its begin was overwritten before
    // the window — in which case every enclosing begin was too, the stack
    // is empty, and the end is dropped.
    std::vector<size_t> open;
    std::vector<bool> keep(thread.events.size(), true);
    uint64_t last_ts = 0;
    for (size_t i = 0; i < thread.events.size(); ++i) {
      const TraceEvent& event = thread.events[i];
      last_ts = event.ts_ns;
      if (event.phase == TraceEventPhase::kBegin) {
        open.push_back(i);
      } else if (event.phase == TraceEventPhase::kEnd) {
        if (!open.empty() && thread.events[open.back()].name == event.name) {
          open.pop_back();
        } else {
          keep[i] = false;  // Begin fell off the ring.
        }
      }
    }
    for (size_t i = 0; i < thread.events.size(); ++i) {
      if (keep[i]) AppendEvent(&out, thread.tid, thread.events[i], &first);
    }
    // Synthesize ends for spans still open at export (outermost last so
    // the emitted stream stays properly nested).
    for (size_t j = open.size(); j > 0; --j) {
      TraceEvent end;
      end.name = thread.events[open[j - 1]].name;
      end.ts_ns = last_ts;
      end.phase = TraceEventPhase::kEnd;
      AppendEvent(&out, thread.tid, end, &first);
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"tool\":\"corrmine\",\"dropped_events\":" << dropped_total
      << "}}";
  return out.str();
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  const uint64_t dropped = DroppedEvents();
  if (dropped > 0) {
    std::fprintf(stderr,
                 "[trace] warning: %" PRIu64
                 " events overwritten (ring full); oldest spans are missing "
                 "from %s — re-run with a larger ring if they matter\n",
                 dropped, path.c_str());
  }
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open trace file for writing: " + path);
  }
  out << ToChromeJson() << "\n";
  out.flush();
  if (!out) return Status::Internal("failed writing trace file: " + path);
  return Status::OK();
}

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // Already bytes.
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Kilobytes.
#endif
#else
  return 0;
#endif
}

}  // namespace corrmine
