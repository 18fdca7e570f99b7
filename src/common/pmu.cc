#include "common/pmu.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace corrmine {

namespace {

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

PmuCounts PmuCounts::operator-(const PmuCounts& other) const {
  PmuCounts d;
  d.cycles = SaturatingSub(cycles, other.cycles);
  d.instructions = SaturatingSub(instructions, other.instructions);
  d.llc_loads = SaturatingSub(llc_loads, other.llc_loads);
  d.llc_misses = SaturatingSub(llc_misses, other.llc_misses);
  d.branch_misses = SaturatingSub(branch_misses, other.branch_misses);
  d.task_clock_ns = SaturatingSub(task_clock_ns, other.task_clock_ns);
  d.valid = valid && other.valid;
  return d;
}

PmuCounts& PmuCounts::operator+=(const PmuCounts& other) {
  cycles += other.cycles;
  instructions += other.instructions;
  llc_loads += other.llc_loads;
  llc_misses += other.llc_misses;
  branch_misses += other.branch_misses;
  task_clock_ns += other.task_clock_ns;
  valid = valid || other.valid;
  return *this;
}

#if !defined(__linux__)

const PmuProbe& ProbePmu() {
  static const PmuProbe probe{false, "perf_event_open requires Linux"};
  return probe;
}

#else  // Linux

namespace {

// Event slots, leader first. Order is load-bearing: PmuGroup::Read maps
// PERF_FORMAT_ID values back to these indices, and multiplex scaling skips
// the software task-clock slot.
enum EventSlot {
  kCycles = 0,
  kInstructions = 1,
  kLlcLoads = 2,
  kLlcMisses = 3,
  kBranchMisses = 4,
  kTaskClock = 5,
};

void FillAttr(perf_event_attr* attr, uint32_t type, uint64_t config) {
  std::memset(attr, 0, sizeof(*attr));
  attr->size = sizeof(*attr);
  attr->type = type;
  attr->config = config;
  attr->disabled = 0;
  // Counting user-space only keeps the group usable at
  // perf_event_paranoid=2, the default on most distributions.
  attr->exclude_kernel = 1;
  attr->exclude_hv = 1;
  attr->read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                      PERF_FORMAT_TOTAL_TIME_ENABLED |
                      PERF_FORMAT_TOTAL_TIME_RUNNING;
}

int OpenEvent(uint32_t type, uint64_t config, int group_fd) {
  perf_event_attr attr;
  FillAttr(&attr, type, config);
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                  /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

int ReadParanoidLevel() {
  FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "r");
  if (f == nullptr) return -100;
  int level = -100;
  if (std::fscanf(f, "%d", &level) != 1) level = -100;
  std::fclose(f);
  return level;
}

PmuProbe RunProbe() {
  PmuProbe probe;
  const int fd = OpenEvent(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1);
  if (fd >= 0) {
    close(fd);
    probe.available = true;
    return probe;
  }
  const int err = errno;
  std::string reason = "perf_event_open(cycles) failed: ";
  reason += std::strerror(err);
  if (err == EACCES || err == EPERM) {
    const int paranoid = ReadParanoidLevel();
    if (paranoid > -100) {
      reason += " (perf_event_paranoid=";
      reason += std::to_string(paranoid);
      reason += "; likely denied by sysctl or seccomp)";
    } else {
      reason += " (likely denied by seccomp)";
    }
  } else if (err == ENOSYS) {
    reason += " (syscall blocked, likely seccomp)";
  } else if (err == ENOENT) {
    reason += " (hardware cycle counter unavailable, likely a VM)";
  }
  probe.reason = std::move(reason);
  return probe;
}

const uint64_t kHwCacheLlRead = PERF_COUNT_HW_CACHE_LL |
                                (PERF_COUNT_HW_CACHE_OP_READ << 8);

}  // namespace

const PmuProbe& ProbePmu() {
  static const PmuProbe probe = RunProbe();
  return probe;
}

PmuGroup::PmuGroup() {
  fds_.fill(-1);
  ids_.fill(0);
  if (!ProbePmu().available) return;
  fds_[kCycles] =
      OpenEvent(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1);
  if (fds_[kCycles] < 0) return;
  const int leader = fds_[kCycles];
  fds_[kInstructions] =
      OpenEvent(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, leader);
  fds_[kLlcLoads] = OpenEvent(
      PERF_TYPE_HW_CACHE,
      kHwCacheLlRead | (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16), leader);
  fds_[kLlcMisses] = OpenEvent(
      PERF_TYPE_HW_CACHE,
      kHwCacheLlRead | (PERF_COUNT_HW_CACHE_RESULT_MISS << 16), leader);
  fds_[kBranchMisses] =
      OpenEvent(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, leader);
  fds_[kTaskClock] =
      OpenEvent(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, leader);
  for (size_t i = 0; i < kEvents; ++i) {
    if (fds_[i] >= 0) {
      ioctl(fds_[i], PERF_EVENT_IOC_ID, &ids_[i]);
    }
  }
}

PmuGroup::~PmuGroup() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

PmuCounts PmuGroup::Read() const {
  PmuCounts counts;
  if (!valid()) return counts;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
  // then {value, id} per group member.
  struct {
    uint64_t nr;
    uint64_t time_enabled;
    uint64_t time_running;
    struct {
      uint64_t value;
      uint64_t id;
    } values[kEvents];
  } data;
  const ssize_t n = read(fds_[kCycles], &data, sizeof(data));
  if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) return counts;
  if (data.nr > kEvents) return counts;
  // Multiplex scaling: when the kernel rotated the group off the PMU,
  // extrapolate hardware counts by enabled/running. The software
  // task-clock always runs and must stay raw.
  const double scale =
      (data.time_running > 0 && data.time_running < data.time_enabled)
          ? static_cast<double>(data.time_enabled) /
                static_cast<double>(data.time_running)
          : 1.0;
  for (uint64_t i = 0; i < data.nr; ++i) {
    const uint64_t id = data.values[i].id;
    const uint64_t raw = data.values[i].value;
    const uint64_t scaled =
        static_cast<uint64_t>(static_cast<double>(raw) * scale);
    if (id == ids_[kCycles] && fds_[kCycles] >= 0) {
      counts.cycles = scaled;
    } else if (id == ids_[kInstructions] && fds_[kInstructions] >= 0) {
      counts.instructions = scaled;
    } else if (id == ids_[kLlcLoads] && fds_[kLlcLoads] >= 0) {
      counts.llc_loads = scaled;
    } else if (id == ids_[kLlcMisses] && fds_[kLlcMisses] >= 0) {
      counts.llc_misses = scaled;
    } else if (id == ids_[kBranchMisses] && fds_[kBranchMisses] >= 0) {
      counts.branch_misses = scaled;
    } else if (id == ids_[kTaskClock] && fds_[kTaskClock] >= 0) {
      counts.task_clock_ns = raw;
    }
  }
  counts.valid = true;
  return counts;
}

#endif  // __linux__

}  // namespace corrmine
