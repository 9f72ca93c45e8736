#include "obs/perfcounters.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>
#define SERIGRAPH_HAVE_PERF_EVENT 1
#else
#define SERIGRAPH_HAVE_PERF_EVENT 0
#endif

#include <cstdlib>
#include <vector>

namespace serigraph {

const char* PerfFieldName(int f) {
  switch (f) {
    case kPerfCycles: return "cycles";
    case kPerfInstructions: return "instructions";
    case kPerfLlcLoads: return "llc_loads";
    case kPerfLlcMisses: return "llc_misses";
    case kPerfBranchMisses: return "branch_misses";
    case kPerfDtlbMisses: return "dtlb_misses";
    case kPerfHwCtxSwitches: return "ctx_switches";
    case kPerfTaskClockNs: return "task_clock_ns";
    case kPerfMinorFaults: return "minor_faults";
    case kPerfMajorFaults: return "major_faults";
    default: return "unknown";
  }
}

namespace {

int64_t ThreadCpuNs() {
#if defined(__linux__)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

struct RusageSample {
  int64_t minor_faults = 0;
  int64_t major_faults = 0;
  int64_t ctx_switches = 0;
};

RusageSample ReadThreadRusage() {
  RusageSample s;
#if defined(__linux__)
  struct rusage ru;
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    s.minor_faults = ru.ru_minflt;
    s.major_faults = ru.ru_majflt;
    s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  }
#endif
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// PerfCounterGroup
// ---------------------------------------------------------------------------

#if SERIGRAPH_HAVE_PERF_EVENT

namespace {

int PerfEventOpen(struct perf_event_attr* attr, int group_fd) {
  return static_cast<int>(
      syscall(__NR_perf_event_open, attr, /*pid=*/0, /*cpu=*/-1, group_fd,
              /*flags=*/0));
}

struct EventSpec {
  uint32_t type;
  uint64_t config;
  int field;
};

// Two groups so the kernel can co-schedule each on 4-counter hardware.
// Group 0: the IPC/branch trio; group 1: the cache/TLB trio. Each group
// is scaled independently by its own enabled/running ratio.
const EventSpec kGroup0[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, kPerfCycles},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, kPerfInstructions},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, kPerfBranchMisses},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES, kPerfHwCtxSwitches},
};
const EventSpec kGroup1[] = {
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16),
     kPerfLlcLoads},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
     kPerfLlcMisses},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_DTLB | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
     kPerfDtlbMisses},
};

}  // namespace

struct PerfCounterGroup::Group {
  int leader_fd = -1;
  std::vector<int> fds;     // leader first
  std::vector<int> fields;  // PerfField per member, leader first
  std::vector<uint64_t> buf;

  ~Group() {
    for (int fd : fds) {
      if (fd >= 0) close(fd);
    }
  }

  // Opens leader + members; true when the whole group opened. `err`
  // receives the first errno on failure.
  bool Open(const EventSpec* specs, int n, int* err) {
    for (int i = 0; i < n; ++i) {
      struct perf_event_attr attr;
      memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = specs[i].type;
      attr.config = specs[i].config;
      attr.disabled = (i == 0) ? 1 : 0;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                         PERF_FORMAT_TOTAL_TIME_RUNNING;
      int fd = PerfEventOpen(&attr, i == 0 ? -1 : leader_fd);
      if (fd < 0) {
        if (i == 0 || err == nullptr) {
          if (err != nullptr && *err == 0) *err = errno;
          return false;
        }
        // A member that failed to open (e.g. LLC events unsupported on
        // this micro-architecture) is skipped; the group stays useful.
        continue;
      }
      if (i == 0) leader_fd = fd;
      fds.push_back(fd);
      fields.push_back(specs[i].field);
    }
    if (leader_fd < 0) return false;
    // Layout: nr, time_enabled, time_running, value[nr].
    buf.resize(3 + fds.size());
    ioctl(leader_fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(leader_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    return true;
  }

  void ReadInto(PerfDelta* out) {
    ssize_t want = static_cast<ssize_t>(buf.size() * sizeof(uint64_t));
    ssize_t got = read(leader_fd, buf.data(), want);
    if (got < static_cast<ssize_t>(3 * sizeof(uint64_t))) return;
    uint64_t nr = buf[0];
    uint64_t enabled = buf[1];
    uint64_t running = buf[2];
    if (nr > fds.size()) nr = fds.size();
    // Multiplex scaling: the kernel rotated this group off the PMU for
    // part of the window; extrapolate counts to the full enabled time.
    double scale =
        (running > 0 && enabled > running)
            ? static_cast<double>(enabled) / static_cast<double>(running)
            : 1.0;
    for (uint64_t i = 0; i < nr; ++i) {
      out->v[fields[i]] +=
          static_cast<int64_t>(static_cast<double>(buf[3 + i]) * scale);
    }
    out->hw_valid = true;
  }
};

PerfCounterGroup::PerfCounterGroup(const PerfCounterConfig& config) {
  bool force_sw =
      config.force_software || std::getenv("SERIGRAPH_NO_PERF_HW") != nullptr;
  if (force_sw) {
    fallback_reason_ = "software fallback forced (config or SERIGRAPH_NO_PERF_HW)";
    return;
  }
  int err = 0;
  auto g0 = std::make_unique<Group>();
  if (g0->Open(kGroup0, sizeof(kGroup0) / sizeof(kGroup0[0]), &err)) {
    groups_[num_groups_++] = std::move(g0);
  }
  auto g1 = std::make_unique<Group>();
  if (g1->Open(kGroup1, sizeof(kGroup1) / sizeof(kGroup1[0]), &err)) {
    groups_[num_groups_++] = std::move(g1);
  }
  hw_available_ = num_groups_ > 0;
  if (!hw_available_) {
    char msg[160];
    snprintf(msg, sizeof(msg),
             "perf_event_open unavailable (%s); using getrusage/procfs "
             "software fallback",
             err != 0 ? strerror(err) : "unknown error");
    fallback_reason_ = msg;
  }
}

PerfCounterGroup::~PerfCounterGroup() = default;

PerfDelta PerfCounterGroup::ReadNow() {
  PerfDelta d;
  for (int i = 0; i < num_groups_; ++i) groups_[i]->ReadInto(&d);
  d.v[kPerfTaskClockNs] = ThreadCpuNs();
  RusageSample ru = ReadThreadRusage();
  d.v[kPerfMinorFaults] = ru.minor_faults;
  d.v[kPerfMajorFaults] = ru.major_faults;
  if (!d.hw_valid) d.v[kPerfHwCtxSwitches] = ru.ctx_switches;
  return d;
}

#else  // !SERIGRAPH_HAVE_PERF_EVENT

struct PerfCounterGroup::Group {};

PerfCounterGroup::PerfCounterGroup(const PerfCounterConfig&) {
  fallback_reason_ = "perf_event_open not supported on this platform";
}

PerfCounterGroup::~PerfCounterGroup() = default;

PerfDelta PerfCounterGroup::ReadNow() {
  PerfDelta d;
  d.v[kPerfTaskClockNs] = ThreadCpuNs();
  RusageSample ru = ReadThreadRusage();
  d.v[kPerfMinorFaults] = ru.minor_faults;
  d.v[kPerfMajorFaults] = ru.major_faults;
  d.v[kPerfHwCtxSwitches] = ru.ctx_switches;
  return d;
}

#endif  // SERIGRAPH_HAVE_PERF_EVENT

// ---------------------------------------------------------------------------
// PerfCounters (process-wide switch + thread-local groups)
// ---------------------------------------------------------------------------

std::atomic<bool> PerfCounters::enabled_{false};
std::atomic<uint64_t> PerfCounters::epoch_{0};

namespace {

sy::Mutex& PerfConfigMutex() {
  static sy::Mutex mu;
  return mu;
}

PerfCounterConfig& PerfConfigLocked() {
  static PerfCounterConfig config;
  return config;
}

bool g_probe_hw_available = false;
std::string& ProbeFallbackReason() {
  static std::string reason;
  return reason;
}

struct ThreadGroupSlot {
  std::unique_ptr<PerfCounterGroup> group;
  uint64_t epoch = 0;
};

ThreadGroupSlot& CurrentSlot() {
  static thread_local ThreadGroupSlot slot;
  return slot;
}

}  // namespace

bool PerfCounters::Enable(const PerfCounterConfig& config) {
  {
    sy::MutexLock lock(&PerfConfigMutex());
    PerfConfigLocked() = config;
    // Probe availability once on the enabling thread so callers can
    // report the fallback before any compute thread opens a group.
    PerfCounterGroup probe(config);
    g_probe_hw_available = probe.hw_available();
    ProbeFallbackReason() = probe.fallback_reason();
  }
  // mo: epoch tick; readers only compare
  epoch_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
  return hw_available();
}

void PerfCounters::Disable() {
  enabled_.store(false, std::memory_order_release);
  // mo: epoch tick; readers only compare
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

bool PerfCounters::hw_available() {
  sy::MutexLock lock(&PerfConfigMutex());
  return g_probe_hw_available;
}

std::string PerfCounters::fallback_reason() {
  sy::MutexLock lock(&PerfConfigMutex());
  return ProbeFallbackReason();
}

PerfCounterGroup* PerfCounters::CurrentThreadGroup() {
  if (!enabled()) return nullptr;
  ThreadGroupSlot& slot = CurrentSlot();
  // mo: epoch tick; readers only compare
  uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (slot.group == nullptr || slot.epoch != epoch) {
    PerfCounterConfig config;
    {
      sy::MutexLock lock(&PerfConfigMutex());
      config = PerfConfigLocked();
    }
    slot.group = std::make_unique<PerfCounterGroup>(config);
    slot.epoch = epoch;
  }
  return slot.group.get();
}

}  // namespace serigraph
