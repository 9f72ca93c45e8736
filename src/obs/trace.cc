#include "obs/trace.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/report.h"

namespace serigraph {

std::atomic<uint8_t> Tracer::flags_{Tracer::kRecordBit};

namespace {

/// Fixed process-wide epoch so timestamps from all threads share a zero.
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// The calling thread's Tracer::ThreadLog (type-erased: it is private).
/// Trivially destructible, so the record path pays no TLS guard.
thread_local void* tls_log = nullptr;
/// Set once the thread released its log: later events are ignored.
thread_local bool tls_released = false;

}  // namespace

/// Pools the thread's log at thread exit. Constructed (and so destroyed)
/// only on threads that claimed a log.
struct LogReleaser {
  bool armed = false;
  ~LogReleaser() {
    tls_released = true;
    if (tls_log == nullptr) return;
    Tracer::Get().Release(static_cast<Tracer::ThreadLog*>(tls_log));
    tls_log = nullptr;
  }
};

namespace {
thread_local LogReleaser tls_releaser;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: alive for exiting threads
  return *tracer;
}

void Tracer::SetFlag(uint8_t bit, bool on) {
  if (on) {
    flags_.fetch_or(bit, std::memory_order_relaxed);  // mo: on/off gate
  } else {
    // mo: on/off gate
    flags_.fetch_and(static_cast<uint8_t>(~bit), std::memory_order_relaxed);
  }
}

int64_t Tracer::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

uint64_t Tracer::NextFlowId() {
  static std::atomic<uint64_t> next{1};
  // mo: id allocator; uniqueness only
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const char* name, char ph, int64_t ts_us, int64_t value) {
  const uint8_t flags = flags_.load(std::memory_order_relaxed);  // mo: gate
  if (flags == 0) return;
  auto* log = static_cast<ThreadLog*>(tls_log);
  if (log == nullptr && (log = Get().Claim()) == nullptr) return;
  // The cursors are the owner's (Reset aside): relaxed loads suffice, and
  // readers pair retain_begin with the acquire load of head.
  uint64_t head = log->head.load(std::memory_order_relaxed);  // mo: owner
  // mo: owner
  const uint64_t begin = log->retain_begin.load(std::memory_order_relaxed);
  if ((flags & kRetainBit) != 0) {
    if (begin == kNotRetaining) {
      // mo: published by the release store of head below
      log->retain_begin.store(head, std::memory_order_relaxed);
    } else if (head - begin >= kRingCapacity) {
      if (!Get().Spill(log, /*make_room=*/true)) {
        // mo: stat counter
        Get().dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      head = 0;
    }
  } else if (begin != kNotRetaining) {
    // First write after Disable(): keep the retained events before the
    // ring wraps over them.
    Get().Spill(log, /*make_room=*/false);
    head = 0;
  }
  // Only this thread writes the slot; the release store of head
  // publishes it, and a reader of a tail slot tolerates a torn event.
  Slot& slot = log->ring->slots[head % kRingCapacity];
  slot.ts_us.store(ts_us, std::memory_order_relaxed);  // mo: see above
  slot.value.store(value, std::memory_order_relaxed);  // mo: see above
  slot.ph.store(ph, std::memory_order_relaxed);        // mo: see above
  // mo: see above
  slot.tid.store(log->tid.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);  // mo: see above
  slot.name.store(name, std::memory_order_relaxed);  // mo: see above
  log->head.store(head + 1, std::memory_order_release);
}

Tracer::ThreadLog* Tracer::Claim() {
  if (tls_released) return nullptr;
  ThreadLog* log = nullptr;
  {
    sy::MutexLock lock(&log_mu_);
    for (const auto& pooled : logs_) {
      if (pooled->tid.load(std::memory_order_relaxed) == 0) {  // mo: locked
        log = pooled.get();
        break;
      }
    }
    if (log == nullptr) {
      log = logs_.emplace_back(std::make_unique<ThreadLog>()).get();
    }
    if (log->ring == nullptr) log->ring = std::make_unique<Ring>();
    log->tid.store(next_tid_++, std::memory_order_relaxed);  // mo: locked
    log->spilled.store(0, std::memory_order_relaxed);        // mo: locked
    PruneNamesLocked();
  }
  tls_log = log;
  tls_releaser.armed = true;  // first use registers the exit hook
  return log;
}

void Tracer::Release(ThreadLog* log) {
  sy::MutexLock lock(&log_mu_);
  // mo: the exiting owner's cursor
  if (log->retain_begin.load(std::memory_order_relaxed) != kNotRetaining) {
    RetainRingLocked(log);
  }
  log->tid.store(0, std::memory_order_relaxed);  // mo: locked
}

bool Tracer::Spill(ThreadLog* log, bool make_room) {
  // mo: the owner's counter (Claim/Reset write it under the lock)
  const uint32_t spilled = log->spilled.load(std::memory_order_relaxed);
  if (make_room && spilled + 1 >= kMaxRingsPerThread) return false;
  auto fresh = std::make_unique<Ring>();
  sy::MutexLock lock(&log_mu_);
  RetainRingLocked(log);
  log->ring = std::move(fresh);
  if (make_room) {
    log->retain_begin.store(0, std::memory_order_relaxed);  // mo: locked
    log->spilled.store(spilled + 1, std::memory_order_relaxed);  // mo: locked
  }
  return true;
}

void Tracer::RetainRingLocked(ThreadLog* log) {
  // mo: the owner's cursors, read and reset under the lock
  const uint64_t begin = log->retain_begin.load(std::memory_order_relaxed);
  const uint64_t end = log->head.load(std::memory_order_relaxed);  // mo: same
  retained_.push_back({std::move(log->ring), begin, end});
  log->head.store(0, std::memory_order_relaxed);  // mo: same
  // mo: same
  log->retain_begin.store(kNotRetaining, std::memory_order_relaxed);
}

void Tracer::PruneNamesLocked() {
  // Amortized: scan only once the map clearly outgrows the registry, and
  // never while retained rings (possibly ~1M events each thread) exist.
  if (names_.size() <= 2 * logs_.size() + 16 || !retained_.empty()) return;
  std::set<uint32_t> held;
  for (const auto& log : logs_) {
    held.insert(log->tid.load(std::memory_order_relaxed));  // mo: locked
    if (log->ring == nullptr) continue;
    for (const Slot& slot : log->ring->slots) {
      held.insert(slot.tid.load(std::memory_order_relaxed));  // mo: tail
    }
  }
  std::erase_if(names_,
                [&held](const auto& n) { return held.count(n.first) == 0; });
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  if (!recording()) return;
  auto* log = static_cast<ThreadLog*>(tls_log);
  if (log == nullptr && (log = Claim()) == nullptr) return;
  sy::MutexLock lock(&log_mu_);
  names_[log->tid.load(std::memory_order_relaxed)] = name;  // mo: owner
}

void Tracer::AppendSlots(const Ring& ring, uint64_t begin, uint64_t end,
                         std::vector<TraceEvent>* out) {
  for (uint64_t pos = begin; pos < end; ++pos) {
    const Slot& slot = ring.slots[pos % kRingCapacity];
    TraceEvent e;
    // mo: retained slots are published by head; tail slots may tear
    e.name = slot.name.load(std::memory_order_relaxed);
    if (e.name == nullptr) continue;
    e.ts_us = slot.ts_us.load(std::memory_order_relaxed);  // mo: as above
    e.value = slot.value.load(std::memory_order_relaxed);  // mo: as above
    e.ph = slot.ph.load(std::memory_order_relaxed);        // mo: as above
    e.tid = slot.tid.load(std::memory_order_relaxed);      // mo: as above
    out->push_back(e);
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> events;
  {
    sy::MutexLock lock(&log_mu_);
    for (const RetainedRing& r : retained_) {
      AppendSlots(*r.ring, r.begin, r.end, &events);
    }
    for (const auto& log : logs_) {
      if (log->ring == nullptr) continue;
      const uint64_t head = log->head.load(std::memory_order_acquire);
      AppendSlots(*log->ring, head - std::min<uint64_t>(head, kRingCapacity),
                  head, &events);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

std::string Tracer::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::map<uint32_t, std::string> names;
  {
    sy::MutexLock lock(&log_mu_);
    names = names_;
  }
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const auto& [tid, name] : names) {
    w.BeginObject().Key("name").Value("thread_name").Key("ph").Value("M");
    w.Key("pid").Value(0).Key("tid").Value(static_cast<int64_t>(tid));
    w.Key("args").BeginObject().Key("name").Value(name).EndObject();
    w.EndObject();
  }
  for (const TraceEvent& e : events) {
    w.BeginObject().Key("name").Value(e.name);
    w.Key("ph").Value(std::string(1, e.ph));
    if (e.ph == 's' || e.ph == 'f') w.Key("cat").Value("flow");
    if (e.ph == 'i') w.Key("s").Value("g");
    w.Key("pid").Value(0).Key("tid").Value(static_cast<int64_t>(e.tid));
    w.Key("ts").Value(e.ts_us);
    if (e.ph == 'X') w.Key("dur").Value(e.value);
    if (e.ph == 'C') {  // the viewer plots args.value over time
      w.Key("args").BeginObject().Key("value").Value(e.value).EndObject();
    }
    if (e.ph == 's' || e.ph == 'f') w.Key("id").Value(e.value);
    // The receiver's end binds to its enclosing slice.
    if (e.ph == 'f') w.Key("bp").Value("e");
    w.EndObject();
  }
  w.EndArray().Key("displayTimeUnit").Value("ms").EndObject();
  return w.str();
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteTextFile(path, ToChromeTraceJson());
}

int64_t Tracer::event_count() const { return Count(/*retained_only=*/true); }

int64_t Tracer::held_count() const { return Count(/*retained_only=*/false); }

int64_t Tracer::Count(bool retained_only) const {
  sy::MutexLock lock(&log_mu_);
  uint64_t total = 0;
  for (const RetainedRing& r : retained_) total += r.end - r.begin;
  for (const auto& log : logs_) {
    const uint64_t head = log->head.load(std::memory_order_acquire);
    // mo: ordered after the acquire load of head
    const uint64_t begin = log->retain_begin.load(std::memory_order_relaxed);
    if (!retained_only) {
      total += std::min<uint64_t>(head, kRingCapacity);
    } else if (begin != kNotRetaining && begin <= head) {
      total += head - begin;
    }
  }
  return static_cast<int64_t>(total);
}

size_t Tracer::log_count() const {
  sy::MutexLock lock(&log_mu_);
  return logs_.size();
}

void Tracer::Reset() {
  sy::MutexLock lock(&log_mu_);
  retained_.clear();
  names_.clear();
  std::erase_if(logs_, [](const std::unique_ptr<ThreadLog>& log) {
    return log->tid.load(std::memory_order_relaxed) == 0;  // mo: locked
  });
  // Live logs are emptied in place; see the contract in the header.
  for (const auto& log : logs_) {
    for (Slot& slot : log->ring->slots) {
      slot.name.store(nullptr, std::memory_order_relaxed);  // mo: contract
    }
    log->head.store(0, std::memory_order_relaxed);  // mo: contract
    // mo: contract
    log->retain_begin.store(kNotRetaining, std::memory_order_relaxed);
    log->spilled.store(0, std::memory_order_relaxed);  // mo: contract
  }
  dropped_.store(0, std::memory_order_relaxed);  // mo: stat counter
}

}  // namespace serigraph
