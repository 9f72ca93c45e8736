#include "obs/timeline.h"

#include <algorithm>

#include "common/metrics.h"
#include "obs/trace.h"

namespace serigraph {

TimelineRecorder::TimelineRecorder(int num_workers) {
  lanes_.resize(num_workers > 0 ? static_cast<size_t>(num_workers) : 1);
}

void TimelineRecorder::Append(const SuperstepSample& sample) {
  lanes_[sample.worker].push_back(sample);
}

std::vector<SuperstepSample> TimelineRecorder::Collect() const {
  std::vector<SuperstepSample> out;
  size_t total = 0;
  for (const auto& lane : lanes_) total += lane.size();
  out.reserve(total);
  for (const auto& lane : lanes_) {
    out.insert(out.end(), lane.begin(), lane.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SuperstepSample& a, const SuperstepSample& b) {
              if (a.superstep != b.superstep) return a.superstep < b.superstep;
              return a.worker < b.worker;
            });
  return out;
}

int64_t Total(const std::vector<SuperstepSample>& timeline,
              int64_t SuperstepSample::* field) {
  int64_t total = 0;
  for (const SuperstepSample& sample : timeline) total += sample.*field;
  return total;
}

namespace {

/// The span of each timed phase, by PhaseRow.
constexpr const char* kSpanNames[kNumPerfPhases] = {
    "engine.compute", "sync.fork_acquire", "engine.flush_acks",
    "engine.barrier_wait"};

}  // namespace

void PhaseLedger::CloseSuperstep(SuperstepSample* sample,
                                 PerfPhaseAccum* run_totals) {
  const auto drain = [this](WorkerPhase phase) {
    // mo: per-superstep stat; the barrier orders the drain
    return us_[PhaseRow(phase)].exchange(0, std::memory_order_relaxed);
  };
  sample->compute_us = drain(WorkerPhase::kCompute);
  sample->fork_wait_us = drain(WorkerPhase::kForkWait);
  sample->flush_wait_us = drain(WorkerPhase::kFlushWait);
  sample->barrier_wait_us = drain(WorkerPhase::kBarrierWait);
  barrier_wait_hist_->Record(sample->barrier_wait_us);
  if (run_totals == nullptr) return;
  const int compute_row = PhaseRow(WorkerPhase::kCompute);
  const PerfDelta compute = counters_.Exchange(compute_row);
  sample->compute_cycles = compute.v[kPerfCycles];
  sample->compute_instructions = compute.v[kPerfInstructions];
  sample->compute_llc_loads = compute.v[kPerfLlcLoads];
  sample->compute_llc_misses = compute.v[kPerfLlcMisses];
  sample->compute_task_clock_ns = compute.v[kPerfTaskClockNs];
  sample->perf_hw_valid = compute.hw_valid;
  run_totals->Add(compute_row, compute);
  for (int row = 0; row < kNumPerfPhases; ++row) {
    if (row != compute_row) run_totals->Add(row, counters_.Exchange(row));
  }
  if (compute.hw_valid) {
    SG_TRACE_COUNTER("perf.ipc_milli", compute.ipc_milli());
    SG_TRACE_COUNTER("perf.llc_misses", compute.v[kPerfLlcMisses]);
  }
}

PhaseScope::PhaseScope(PhaseLedger* clock, PhaseLedger* counters,
                       WorkerPhase phase, int superstep)
    : clock_(clock), phase_(phase) {
  if (counters != nullptr && PerfCounters::enabled()) {
    group_ = PerfCounters::CurrentThreadGroup();
    if (group_ != nullptr) {
      counters_ = counters;
      perf_start_ = group_->ReadNow();
    }
  }
  if (clock_ == nullptr) return;
  start_us_ = Tracer::NowMicros();
  if (phase_ != WorkerPhase::kForkWait && phase_ != clock_->stamped_ &&
      Introspector::enabled()) {
    Introspector::Get().SetPhase(clock_->worker_, phase_, superstep,
                                 start_us_);
    clock_->stamped_ = phase_;
  }
}

PhaseScope::~PhaseScope() {
  const int row = PhaseRow(phase_);
  if (clock_ != nullptr) {
    const int64_t dur_us = Tracer::NowMicros() - start_us_;
    if (Tracer::recording()) {
      Tracer::RecordSpan(kSpanNames[row], start_us_, dur_us);
    }
    // mo: per-superstep stat; the barrier orders the drain
    clock_->us_[row].fetch_add(dur_us, std::memory_order_relaxed);
    if (phase_ == WorkerPhase::kForkWait) {
      clock_->fork_wait_hist_->Record(dur_us);
    }
  }
  if (counters_ != nullptr) {
    counters_->counters_.Add(
        row, PerfCounterGroup::Delta(perf_start_, group_->ReadNow()));
  }
}

}  // namespace serigraph
