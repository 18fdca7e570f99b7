#include "common/profiler.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/time.h>
#define CORRMINE_PROFILER_HAVE_SIGPROF 1
#endif

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#include <ucontext.h>
#define CORRMINE_PROFILER_HAVE_UCONTEXT_REGS 1
#endif

#if defined(__GLIBC__) || defined(__APPLE__)
#include <cxxabi.h>
#include <dlfcn.h>
#define CORRMINE_PROFILER_HAVE_DLADDR 1
#endif

#if defined(__linux__) && defined(__GLIBC__)
#include <elf.h>
#include <link.h>
#define CORRMINE_PROFILER_HAVE_SYMTAB 1
#endif

#include "common/trace.h"

namespace corrmine {

namespace {

#ifdef CORRMINE_PROFILER_HAVE_SIGPROF
struct sigaction g_old_sigprof;
bool g_handler_installed = false;

/// SIGPROF entry point. Everything it reaches must be async-signal-safe:
/// errno save/restore here, atomics and pre-allocated memory inside.
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* ctx) {
  const int saved_errno = errno;
  Profiler::Global().HandleSampleSignal(ctx);
  errno = saved_errno;
}
#endif

/// Reads the interrupted thread's program counter, frame pointer and stack
/// pointer out of a signal's ucontext. False on targets whose register
/// layout is not known here.
#ifdef CORRMINE_PROFILER_HAVE_UCONTEXT_REGS
bool InterruptedRegisters(void* ucontext, uintptr_t* pc, uintptr_t* fp,
                          uintptr_t* sp) {
  if (ucontext == nullptr) return false;
  const mcontext_t& mc = static_cast<const ucontext_t*>(ucontext)->uc_mcontext;
#if defined(__x86_64__)
  *pc = static_cast<uintptr_t>(mc.gregs[REG_RIP]);
  *fp = static_cast<uintptr_t>(mc.gregs[REG_RBP]);
  *sp = static_cast<uintptr_t>(mc.gregs[REG_RSP]);
#else
  *pc = static_cast<uintptr_t>(mc.pc);
  *fp = static_cast<uintptr_t>(mc.regs[29]);
  *sp = static_cast<uintptr_t>(mc.sp);
#endif
  return true;
}
#else
bool InterruptedRegisters(void*, uintptr_t*, uintptr_t*, uintptr_t*) {
  return false;
}
#endif

/// Maximum plausible distance from the walk's starting stack pointer to
/// the stack base; frame pointers outside [sp, sp + kMaxStackBytes) terminate the
/// walk. Matches common 8 MB default stacks.
constexpr uintptr_t kMaxStackBytes = 8u << 20;

void AppendJsonEscaped(std::ostringstream* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out << buf;
    } else {
      *out << c;
    }
  }
}

void AppendRate(std::ostringstream* out, const char* key, uint64_t num,
                uint64_t den) {
  *out << "\"" << key << "\":";
  if (den == 0) {
    *out << "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g",
                static_cast<double>(num) / static_cast<double>(den));
  *out << buf;
}

std::string Demangled(const char* symbol) {
  std::string name = symbol;
#ifdef CORRMINE_PROFILER_HAVE_DLADDR
  int status = 0;
  char* demangled = abi::__cxa_demangle(symbol, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) name = demangled;
  std::free(demangled);
#endif
  return name;
}

/// The running executable's function symbols, read once per export from
/// the .symtab of /proc/self/exe. dladdr sees only .dynsym, which lacks
/// every static and anonymous-namespace function — the counting kernels
/// among them — so executable PCs are looked up here and dladdr is left to
/// shared libraries. Empty (every Find misses) when the executable is
/// stripped or unreadable.
class ExecutableSymbols {
 public:
  ExecutableSymbols() {
#ifdef CORRMINE_PROFILER_HAVE_SYMTAB
    dl_iterate_phdr(&ExecutableSymbols::FindExecutable, this);
    if (text_.empty()) return;
    std::ifstream elf("/proc/self/exe", std::ios::binary);
    ElfW(Ehdr) header;
    if (!Read(elf, 0, &header, sizeof(header)) ||
        std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
        header.e_shentsize != sizeof(ElfW(Shdr))) {
      return;
    }
    std::vector<ElfW(Shdr)> sections(header.e_shnum);
    if (!Read(elf, header.e_shoff, sections.data(),
              sections.size() * sizeof(ElfW(Shdr)))) {
      return;
    }
    for (const ElfW(Shdr)& symtab : sections) {
      if (symtab.sh_type != SHT_SYMTAB || symtab.sh_link >= sections.size()) {
        continue;
      }
      const ElfW(Shdr)& strtab = sections[symtab.sh_link];
      std::vector<ElfW(Sym)> symbols(symtab.sh_size / sizeof(ElfW(Sym)));
      names_.resize(strtab.sh_size);
      if (!Read(elf, symtab.sh_offset, symbols.data(),
                symbols.size() * sizeof(ElfW(Sym))) ||
          !Read(elf, strtab.sh_offset, names_.data(), names_.size())) {
        names_.clear();
        return;
      }
      for (const ElfW(Sym)& symbol : symbols) {
        if (ELF64_ST_TYPE(symbol.st_info) != STT_FUNC ||
            symbol.st_shndx == SHN_UNDEF || symbol.st_size == 0 ||
            symbol.st_name >= names_.size()) {
          continue;
        }
        functions_.push_back(Function{bias_ + symbol.st_value,
                                      bias_ + symbol.st_value + symbol.st_size,
                                      symbol.st_name});
      }
      break;
    }
    std::sort(functions_.begin(), functions_.end(),
              [](const Function& a, const Function& b) {
                return a.begin < b.begin;
              });
#endif
  }

  /// True when `pc` lies in one of the executable's code segments.
  bool Contains(uintptr_t pc) const {
    for (const auto& [begin, end] : text_) {
      if (pc >= begin && pc < end) return true;
    }
    return false;
  }

  /// Mangled name of the function whose extent holds `pc`, or null.
  const char* Find(uintptr_t pc) const {
    auto it = std::upper_bound(
        functions_.begin(), functions_.end(), pc,
        [](uintptr_t value, const Function& f) { return value < f.begin; });
    if (it == functions_.begin()) return nullptr;
    --it;
    if (pc >= it->end) return nullptr;
    return names_.data() + it->name;
  }

 private:
  struct Function {
    uintptr_t begin;
    uintptr_t end;
    size_t name;  // offset into names_
  };

#ifdef CORRMINE_PROFILER_HAVE_SYMTAB
  /// dl_iterate_phdr visits the executable first: record its load bias
  /// and executable segments, then stop.
  static int FindExecutable(struct dl_phdr_info* info, size_t, void* data) {
    auto* self = static_cast<ExecutableSymbols*>(data);
    self->bias_ = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
      const ElfW(Phdr)& segment = info->dlpi_phdr[i];
      if (segment.p_type == PT_LOAD && (segment.p_flags & PF_X) != 0) {
        const uintptr_t begin = info->dlpi_addr + segment.p_vaddr;
        self->text_.emplace_back(begin, begin + segment.p_memsz);
      }
    }
    return 1;
  }

  static bool Read(std::ifstream& in, uint64_t offset, void* out,
                   size_t bytes) {
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
    return static_cast<bool>(in);
  }
#endif

  uintptr_t bias_ = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> text_;
  std::vector<Function> functions_;
  std::vector<char> names_;
};

/// Symbolizes one frame for the collapsed-stack export: the interrupted
/// instruction itself when `exact`, else a return address. Executable PCs
/// resolve through `executable` (static functions included), others
/// through dladdr. Spaces and semicolons are structural in the collapsed
/// format, so they are rewritten; unresolvable addresses keep their hex
/// form (still useful with an external symbolizer).
std::string SymbolizePc(uintptr_t pc, bool exact,
                        const ExecutableSymbols& executable) {
  std::string name;
  // A return address is looked up one byte back so calls at the very end
  // of a function do not resolve to the function that follows.
  const uintptr_t lookup = exact ? pc : pc - 1;
  if (executable.Contains(lookup)) {
    if (const char* symbol = executable.Find(lookup)) name = Demangled(symbol);
  }
#ifdef CORRMINE_PROFILER_HAVE_DLADDR
  Dl_info info;
  if (name.empty() && dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
      info.dli_sname != nullptr) {
    name = Demangled(info.dli_sname);
  }
#endif
  if (name.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIxPTR, pc);
    return buf;
  }
  for (char& c : name) {
    if (c == ' ') c = '_';
    if (c == ';') c = ':';
  }
  return name;
}

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* global = new Profiler();
  return *global;
}

void Profiler::Start(const ProfilerOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phases_.clear();
    groups_.clear();
    session_.fetch_add(1, std::memory_order_relaxed);
    pmu_requested_ = options.pmu;
    sample_interval_usec_ =
        std::max<uint64_t>(100, options.sample_interval_usec);
    pmu_active_.store(options.pmu && ProbePmu().available,
                      std::memory_order_relaxed);
    // Every session starts with clean sample state, even when sampling is
    // off — stale counts from a prior session must never leak into this
    // one's stats.
    if (sample_storage_ != nullptr) {
      for (SampleSlot& slot : *sample_storage_) {
        slot.seq.store(0, std::memory_order_relaxed);
      }
    }
    sample_cursor_.store(0, std::memory_order_relaxed);
    unresolved_samples_.store(0, std::memory_order_relaxed);
  }
  if (!options.sampling) return;
#ifdef CORRMINE_PROFILER_HAVE_SIGPROF
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sample_storage_ == nullptr) {
      // Leaked intentionally: a straggler SIGPROF delivered after Stop
      // must never touch freed memory.
      sample_storage_ = new std::vector<SampleSlot>(kSampleRingCapacity);
      sample_slots_ = sample_storage_->data();
      sample_mask_ = kSampleRingCapacity - 1;
    }
  }
  // The handler reaches both singletons through function-local statics;
  // first-call initialization is not async-signal-safe, so force it here,
  // before any signal can fire.
  Tracer::Global();
  Profiler::Global();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &SigprofHandler;
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &g_old_sigprof) != 0) return;
  g_handler_installed = true;
  sampling_active_.store(true, std::memory_order_release);
  struct itimerval timer;
  timer.it_interval.tv_sec =
      static_cast<time_t>(sample_interval_usec_ / 1000000);
  timer.it_interval.tv_usec =
      static_cast<suseconds_t>(sample_interval_usec_ % 1000000);
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
#endif
}

void Profiler::Stop() {
#ifdef CORRMINE_PROFILER_HAVE_SIGPROF
  if (sampling_active_.load(std::memory_order_acquire)) {
    struct itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    sampling_active_.store(false, std::memory_order_release);
    if (g_handler_installed) {
      sigaction(SIGPROF, &g_old_sigprof, nullptr);
      g_handler_installed = false;
    }
  }
#endif
  pmu_active_.store(false, std::memory_order_relaxed);
}

void Profiler::RecordPhase(const char* phase, const PmuCounts& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  PhaseProfile& profile = phases_[phase];
  profile.scopes += 1;
  profile.counts += delta;
}

PmuGroup* Profiler::ThreadGroup() {
  struct Cached {
    PmuGroup* group = nullptr;
    uint64_t session = 0;
  };
  thread_local Cached cached;
  if (!pmu_active_.load(std::memory_order_relaxed)) return nullptr;
  const uint64_t session = session_.load(std::memory_order_relaxed);
  if (cached.group != nullptr && cached.session == session) {
    return cached.group;
  }
  auto group = std::make_unique<PmuGroup>();
  if (!group->valid()) {
    // Opening can fail per-thread (fd limits) even when the probe passed;
    // cache the failure for this session so we do not retry per scope.
    cached.group = nullptr;
    cached.session = session;
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  groups_.push_back(std::move(group));
  cached.group = groups_.back().get();
  cached.session = session;
  return cached.group;
}

void Profiler::HandleSampleSignal(void* ucontext) {
  if (!sampling_active_.load(std::memory_order_acquire)) return;
  SampleSlot* slots = sample_slots_;
  if (slots == nullptr) return;

  // The leaf is the interrupted instruction, and the walk starts at the
  // interrupted frame; where the ucontext layout is unknown the walk
  // starts at this handler's own frame instead (its leaf frames are then
  // the handler and the signal trampoline).
  uintptr_t pcs[kMaxFrames];
  int depth = 0;
  uintptr_t pc = 0;
  uintptr_t fp = 0;
  uintptr_t sp = 0;
  const bool exact_leaf = InterruptedRegisters(ucontext, &pc, &fp, &sp);
  if (exact_leaf) {
    pcs[depth++] = pc;
  } else {
    fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
    sp = fp;
  }
  // Bounds-checked frame-pointer walk. Requires -fno-omit-frame-pointer
  // (set by the top-level CMakeLists.txt); with omitted frame pointers the
  // checks fail fast and the sample keeps only its leaf.
  while (depth < kMaxFrames) {
    if (fp < sp || fp >= sp + kMaxStackBytes) break;
    if ((fp & (sizeof(uintptr_t) - 1)) != 0) break;
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret = frame[1];
    const uintptr_t next_fp = frame[0];
    if (ret == 0) break;
    pcs[depth++] = ret;
    if (next_fp <= fp) break;  // Must strictly grow toward the stack base.
    fp = next_fp;
  }

  const uint64_t claim =
      sample_cursor_.fetch_add(1, std::memory_order_relaxed);
  if (claim < kSampleRingCapacity) {
    SampleSlot& slot = slots[claim & sample_mask_];
    slot.depth = depth;
    slot.exact_leaf = exact_leaf;
    for (int i = 0; i < depth; ++i) slot.pcs[i] = pcs[i];
    // Publish: exporters only trust slots whose seq matches claim + 1.
    slot.seq.store(claim + 1, std::memory_order_release);
  }
  if (depth == 0) {
    unresolved_samples_.fetch_add(1, std::memory_order_relaxed);
  }

  // Fold the sample into the Chrome trace when this thread already has a
  // ring for the active trace session (read-only thread-local lookup —
  // never registers). TraceRing::Append is owner-thread-only, and SIGPROF
  // interrupts the owner, so this is the owner writing.
  TraceRing* ring = Tracer::Global().ThreadRingIfCached();
  if (ring != nullptr) {
    ring->Append(TraceEvent{"profiler.sample", Tracer::Global().NowNanos(),
                            TraceEventPhase::kInstant, -1, -1,
                            static_cast<int64_t>(depth)});
  }
}

uint64_t Profiler::samples_recorded() const {
  const uint64_t total = sample_cursor_.load(std::memory_order_relaxed);
  return std::min<uint64_t>(total, kSampleRingCapacity);
}

uint64_t Profiler::samples_dropped() const {
  const uint64_t total = sample_cursor_.load(std::memory_order_relaxed);
  return total > kSampleRingCapacity ? total - kSampleRingCapacity : 0;
}

std::map<std::string, PhaseProfile> Profiler::PhaseSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phases_;
}

std::string Profiler::RenderProfileJson() const {
  std::ostringstream out;
  const PmuProbe& probe = ProbePmu();
  bool pmu_requested = false;
  uint64_t interval = 0;
  std::map<std::string, PhaseProfile> phases;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pmu_requested = pmu_requested_;
    interval = sample_interval_usec_;
    phases = phases_;
  }
  out << "{\"pmu\":{\"available\":" << (probe.available ? "true" : "false")
      << ",\"requested\":" << (pmu_requested ? "true" : "false")
      << ",\"reason\":\"";
  AppendJsonEscaped(&out, probe.reason);
  out << "\"},\"phases\":{";
  bool first = true;
  for (const auto& [name, profile] : phases) {
    if (!first) out << ',';
    first = false;
    const PmuCounts& c = profile.counts;
    out << '"';
    AppendJsonEscaped(&out, name);
    out << "\":{\"scopes\":" << profile.scopes
        << ",\"cycles\":" << c.cycles
        << ",\"instructions\":" << c.instructions << ",";
    AppendRate(&out, "ipc", c.instructions, c.cycles);
    out << ",\"llc_loads\":" << c.llc_loads
        << ",\"llc_misses\":" << c.llc_misses << ",";
    AppendRate(&out, "llc_miss_rate", c.llc_misses, c.llc_loads);
    out << ",\"branch_misses\":" << c.branch_misses << ",";
    AppendRate(&out, "branch_miss_rate", c.branch_misses, c.instructions);
    out << ",\"task_clock_ns\":" << c.task_clock_ns << '}';
  }
  const bool sampling = sampling_active_.load(std::memory_order_acquire);
  out << "},\"sampling\":{\"enabled\":" << (sampling ? "true" : "false")
      << ",\"samples\":" << samples_recorded()
      << ",\"dropped\":" << samples_dropped()
      << ",\"unresolved\":"
      << unresolved_samples_.load(std::memory_order_relaxed)
      << ",\"interval_usec\":" << interval << "}}";
  return out.str();
}

std::string Profiler::RenderCollapsedStacks() const {
  if (sample_slots_ == nullptr) return std::string();
  const uint64_t total = sample_cursor_.load(std::memory_order_acquire);
  const uint64_t end = std::min<uint64_t>(total, kSampleRingCapacity);
  // One cache per frame kind: an exact leaf PC and a return address of the
  // same value may name different functions.
  std::unordered_map<uintptr_t, std::string> symbol_cache[2];
  const ExecutableSymbols executable;
  std::map<std::string, uint64_t> folded;
  for (uint64_t i = 0; i < end; ++i) {
    const SampleSlot& slot = sample_slots_[i & sample_mask_];
    // Only slots whose publish sequence matches the claim survived intact;
    // a torn slot (signal landed mid-write at Stop) is skipped.
    if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
    std::string line;
    if (slot.depth == 0) {
      line = "[unresolved]";
    } else {
      // Walk order is leaf-first; collapsed format is root-first.
      for (int f = slot.depth - 1; f >= 0; --f) {
        const uintptr_t pc = slot.pcs[f];
        const bool exact = f == 0 && slot.exact_leaf;
        auto& cache = symbol_cache[exact ? 1 : 0];
        auto it = cache.find(pc);
        if (it == cache.end()) {
          it = cache.emplace(pc, SymbolizePc(pc, exact, executable)).first;
        }
        if (!line.empty()) line += ';';
        line += it->second;
      }
    }
    folded[line] += 1;
  }
  std::ostringstream out;
  for (const auto& [stack, count] : folded) {
    out << stack << ' ' << count << '\n';
  }
  return out.str();
}

Status Profiler::WriteCollapsedStacks(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open profile file for writing: " + path);
  }
  out << RenderCollapsedStacks();
  out.flush();
  if (!out) return Status::Internal("failed writing profile file: " + path);
  return Status::OK();
}

}  // namespace corrmine
