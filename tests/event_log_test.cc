// Tests for the event log's registry and retain-all semantics: logs of
// exited threads are reused (memory bounded by live threads) while their
// tails keep the recording thread's tid and name, and names outlive only
// the events that need them; retain-all keeps every event across rings,
// survives thread exit and Disable(), and drops (and counts) events past
// the per-thread budget.

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace serigraph {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::EnableRecording();
    Tracer::Get().Disable();
    Tracer::Get().Reset();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Reset();
  }
};

/// tid -> name from the thread_name metadata of a ToChromeTraceJson()
/// document.
std::map<int64_t, std::string> ThreadNames(const std::string& json) {
  const std::string kMeta =
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
  const std::string kArgs = ",\"args\":{\"name\":\"";
  std::map<int64_t, std::string> names;
  size_t pos = 0;
  while ((pos = json.find(kMeta, pos)) != std::string::npos) {
    pos += kMeta.size();
    const size_t args = json.find(kArgs, pos);
    const int64_t tid = std::stoll(json.substr(pos, args - pos));
    const size_t begin = args + kArgs.size();
    names[tid] = json.substr(begin, json.find('"', begin) - begin);
  }
  return names;
}

size_t CountNamed(const std::vector<TraceEvent>& events, const char* name) {
  size_t n = 0;
  for (const TraceEvent& e : events) n += std::string(e.name) == name;
  return n;
}

TEST_F(EventLogTest, RegistryIsBoundedByLiveThreadsAndTailsKeepTheirNames) {
  constexpr int kBatches = 16;
  constexpr int kThreadsPerBatch = 4;
  constexpr int kEvents = static_cast<int>(Tracer::kRingCapacity) + 100;
  for (int batch = 0; batch < kBatches; ++batch) {
    // All of a batch's threads hold a log at once, so the batch writes
    // into kThreadsPerBatch distinct logs.
    std::latch claimed(kThreadsPerBatch);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreadsPerBatch; ++t) {
      threads.emplace_back([batch, t, &claimed] {
        Tracer::Get().SetCurrentThreadName("reg-" + std::to_string(batch) +
                                           "-" + std::to_string(t));
        claimed.arrive_and_wait();
        for (int i = 0; i < kEvents; ++i) {
          SG_TRACE_INTERVAL("reg.work", i, 1);
        }
      });
    }
    for (auto& t : threads) t.join();
    // The batch's logs are pooled and the next batch reuses them: at most
    // one per concurrently live thread, plus this (main) thread's.
    EXPECT_LE(Tracer::Get().log_count(),
              static_cast<size_t>(kThreadsPerBatch + 1))
        << "batch " << batch;
  }

  // The tail holds exactly the last batch's newest events, each under the
  // tid and name of the thread that recorded it.
  const std::map<int64_t, std::string> names =
      ThreadNames(Tracer::Get().ToChromeTraceJson());
  std::map<std::string, size_t> events_by_name;
  for (const TraceEvent& e : Tracer::Get().Snapshot()) {
    ASSERT_EQ(std::string(e.name), "reg.work");
    auto it = names.find(e.tid);
    ASSERT_NE(it, names.end()) << "unnamed tid " << e.tid;
    ++events_by_name[it->second];
  }
  ASSERT_EQ(events_by_name.size(), static_cast<size_t>(kThreadsPerBatch));
  // Names of threads whose events were all overwritten are forgotten.
  EXPECT_LT(names.size(), static_cast<size_t>(kBatches * kThreadsPerBatch));
  for (int t = 0; t < kThreadsPerBatch; ++t) {
    const std::string name =
        "reg-" + std::to_string(kBatches - 1) + "-" + std::to_string(t);
    EXPECT_EQ(events_by_name[name], Tracer::kRingCapacity) << name;
  }
  EXPECT_EQ(Tracer::Get().event_count(), 0);  // retain-all was off
}

TEST_F(EventLogTest, RetainAllKeepsEveryEventAcrossRings) {
  const int kEvents = 3 * static_cast<int>(Tracer::kRingCapacity) + 5;
  Tracer::Get().Enable();
  for (int i = 0; i < kEvents; ++i) SG_TRACE_INTERVAL("keep", i, 1);
  EXPECT_EQ(Tracer::Get().event_count(), kEvents);
  Tracer::Get().Disable();
  // The first write after Disable() moves the retained events aside
  // before the ring can wrap over them; later events are not retained.
  for (int i = 0; i < kEvents; ++i) SG_TRACE_INTERVAL("after", kEvents + i, 1);
  EXPECT_EQ(Tracer::Get().event_count(), kEvents);
  EXPECT_EQ(Tracer::Get().dropped_count(), 0);

  const std::vector<TraceEvent> events = Tracer::Get().Snapshot();
  std::set<int64_t> kept;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "keep") kept.insert(e.ts_us);
  }
  EXPECT_EQ(kept.size(), static_cast<size_t>(kEvents));
  EXPECT_EQ(*kept.begin(), 0);
  EXPECT_EQ(*kept.rbegin(), kEvents - 1);
  EXPECT_EQ(CountNamed(events, "after"), Tracer::kRingCapacity);
}

TEST_F(EventLogTest, RetainedEventsOutliveTheirThread) {
  Tracer::Get().Enable();
  std::thread([] {
    Tracer::Get().SetCurrentThreadName("short-lived");
    for (int i = 0; i < 10; ++i) SG_TRACE_INTERVAL("brief", i, 1);
  }).join();
  Tracer::Get().Disable();
  // A new thread reuses the pooled log and overwrites its ring many times.
  std::thread([] {
    for (int i = 0; i < 3 * static_cast<int>(Tracer::kRingCapacity); ++i) {
      SG_TRACE_INTERVAL("churn", 100 + i, 1);
    }
  }).join();

  EXPECT_EQ(Tracer::Get().event_count(), 10);
  const std::string json = Tracer::Get().ToChromeTraceJson();
  const std::map<int64_t, std::string> names = ThreadNames(json);
  size_t brief = 0;
  for (const TraceEvent& e : Tracer::Get().Snapshot()) {
    if (std::string(e.name) != "brief") continue;
    ++brief;
    auto it = names.find(e.tid);
    ASSERT_NE(it, names.end());
    EXPECT_EQ(it->second, "short-lived");
  }
  EXPECT_EQ(brief, 10u);
}

TEST_F(EventLogTest, RetainAllDropsAndCountsPastThePerThreadBudget) {
  const int64_t budget = static_cast<int64_t>(Tracer::kMaxRingsPerThread *
                                              Tracer::kRingCapacity);
  Tracer::Get().Enable();
  for (int64_t i = 0; i < budget + 10; ++i) SG_TRACE_INTERVAL("flood", i, 1);
  EXPECT_EQ(Tracer::Get().event_count(), budget);
  EXPECT_EQ(Tracer::Get().dropped_count(), 10);
  Tracer::Get().Reset();
  EXPECT_EQ(Tracer::Get().event_count(), 0);
  EXPECT_EQ(Tracer::Get().dropped_count(), 0);
  EXPECT_EQ(Tracer::Get().held_count(), 0);
}

TEST_F(EventLogTest, EitherGateRecords) {
  Tracer::DisableRecording();
  { SG_TRACE_SPAN("neither"); }
  EXPECT_EQ(Tracer::Get().held_count(), 0);
  Tracer::Get().Enable();  // retain-all alone still records
  { SG_TRACE_SPAN("retained"); }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
  Tracer::Get().Disable();
  Tracer::EnableRecording();
}

}  // namespace
}  // namespace serigraph
