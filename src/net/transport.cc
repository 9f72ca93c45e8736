#include "net/transport.h"

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/trace.h"

namespace serigraph {

namespace {

/// Flow-arrow name for a tagged message kind; both the send ('s') and the
/// receive ('f') must pick the same literal for the viewer to pair them.
const char* FlowName(MessageKind kind) {
  return kind == MessageKind::kControl ? "sync.ctrl_flow" : "net.batch_flow";
}

}  // namespace

Transport::Transport(int num_workers, NetworkOptions options,
                     MetricRegistry* metrics)
    : options_(options),
      fast_path_(options.one_way_latency_us == 0 && options.per_kib_us == 0 &&
                 !FaultInjector::armed()) {
  SG_CHECK_GT(num_workers, 0);
  SG_CHECK(metrics != nullptr);
  inboxes_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    auto inbox = std::make_unique<Inbox>();
    inbox->last_ready_from.assign(num_workers, Clock::time_point::min());
    inbox->next_link_seq.assign(num_workers, 0);
    inbox->delivered_link_seq.assign(num_workers, 0);
    inboxes_.push_back(std::move(inbox));
  }
  wire_messages_ = metrics->GetCounter("net.wire_messages");
  wire_bytes_ = metrics->GetCounter("net.wire_bytes");
  control_messages_ = metrics->GetCounter("net.control_messages");
  data_batches_ = metrics->GetCounter("net.data_batches");
  local_messages_ = metrics->GetCounter("net.local_messages");
  fastpath_messages_ = metrics->GetCounter("net.fastpath_messages");
  dup_dropped_ = metrics->GetCounter("net.dup_dropped");
  seq_gaps_ = metrics->GetCounter("net.seq_gaps");
  fault_injected_ = metrics->GetCounter("net.fault_injected");
  batch_delay_hist_ = metrics->GetHistogram("net.batch_delay_us");
  batch_bytes_hist_ = metrics->GetHistogram("net.batch_bytes");
  peak_inbox_depth_ = metrics->GetGauge("net.peak_inbox_depth");
}

void Transport::Send(WireMessage msg) {
  SG_DCHECK(msg.src >= 0 && msg.src < num_workers());
  SG_DCHECK(msg.dst >= 0 && msg.dst < num_workers());
  const bool local = msg.src == msg.dst;
  const int64_t bytes = msg.BytesOnWire();

  wire_messages_->Increment();
  wire_bytes_->Add(bytes);
  if (local) {
    local_messages_->Increment();
  } else if (msg.kind == MessageKind::kControl) {
    control_messages_->Increment();
  } else if (msg.kind == MessageKind::kDataBatch) {
    data_batches_->Increment();
    batch_delay_hist_->Record(options_.DelayMicros(bytes));
    batch_bytes_hist_->Record(bytes);
  }

  // Causality tag: pair cross-worker fork/token and data-batch traffic
  // with its receive as a Chrome-trace flow arrow.
  if (!local && msg.span == 0 && Tracer::enabled() &&
      (msg.kind == MessageKind::kControl ||
       msg.kind == MessageKind::kDataBatch)) {
    msg.span = Tracer::NextFlowId();
    Tracer::Get().RecordFlow(FlowName(msg.kind), 's', msg.span);
  }

  // Armed wire faults are decided before any transport lock is taken
  // (tier fault.injector is standalone). A dropped message still consumes
  // its link sequence number, so the receiver observes a gap on the next
  // delivery from this sender and recovery can start promptly.
  bool duplicate = false;
  int64_t extra_delay_us = 0;
  if (FaultInjector::armed()) {
    const WireFaultDecision decision =
        FaultInjector::Get().OnWire(msg.src, msg.dst,
                                    static_cast<int>(msg.kind));
    if (decision.drop) {
      fault_injected_->Increment();
      Inbox& inbox = *inboxes_[msg.dst];
      sy::MutexLock lock(&inbox.mu);
      ++inbox.next_link_seq[msg.src];
      return;
    }
    if (decision.duplicate) {
      duplicate = true;
      fault_injected_->Increment();
    }
    if (decision.extra_delay_us > 0) {
      extra_delay_us = decision.extra_delay_us;
      fault_injected_->Increment();
    }
  }

  Inbox& inbox = *inboxes_[msg.dst];
  if (fast_path_) {
    // Zero-delay configuration: arrival order IS delivery order, so a
    // FIFO ring (which preserves total per-inbox order, a superset of
    // the per-(src,dst) guarantee) replaces the priority queue and the
    // per-sender deadline tracking. One waiter can make progress per
    // push, so NotifyOne suffices.
    fastpath_messages_->Increment();
    int64_t depth;
    {
      sy::MutexLock lock(&inbox.mu);
      msg.link_seq = ++inbox.next_link_seq[msg.src];
      if (duplicate) inbox.fifo.Push(msg);
      inbox.fifo.Push(std::move(msg));
      depth = static_cast<int64_t>(inbox.fifo.size());
    }
    peak_inbox_depth_->Observe(depth);
    inbox.cv.NotifyOne();
    return;
  }
  const auto now = Clock::now();
  auto ready = local ? now
                     : now + std::chrono::microseconds(
                                 options_.DelayMicros(bytes));
  if (extra_delay_us > 0) ready += std::chrono::microseconds(extra_delay_us);
  int64_t depth;
  {
    sy::MutexLock lock(&inbox.mu);
    // Preserve per-(src,dst) FIFO: never deliver before an earlier message
    // from the same sender (a large batch must not be overtaken by the
    // flush marker that follows it). An injected delay spike therefore
    // stalls the whole link, like real congestion would.
    auto& last = inbox.last_ready_from[msg.src];
    if (ready < last) ready = last;
    last = ready;
    // The global tie-break sequence is assigned under the inbox lock so
    // that for equal-ready items it agrees with the link sequence order.
    msg.link_seq = ++inbox.next_link_seq[msg.src];
    Item item;
    item.ready = ready;
    // mo: trace tag; never used for ordering
    item.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    if (duplicate) {
      Item dup;
      dup.ready = ready;
      // mo: trace tag; never used for ordering
      dup.seq = seq_.fetch_add(1, std::memory_order_relaxed);
      dup.msg = msg;
      inbox.queue.push(std::move(dup));
    }
    item.msg = std::move(msg);
    inbox.queue.push(std::move(item));
    depth = static_cast<int64_t>(inbox.queue.size());
  }
  peak_inbox_depth_->Observe(depth);
  inbox.cv.NotifyAll();
}

std::optional<WireMessage> Transport::Receive(WorkerId worker) {
  Inbox& inbox = *inboxes_[worker];
  std::optional<WireMessage> msg;
  std::optional<GapInfo> gap;
  if (fast_path_) {
    sy::MutexLock lock(&inbox.mu);
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) return std::nullopt;
      if (!inbox.fifo.empty()) {
        msg = inbox.fifo.Pop();
        // Duplicate tolerance: deliver each link sequence exactly once.
        uint64_t& last = inbox.delivered_link_seq[msg->src];
        if (msg->link_seq <= last) {
          dup_dropped_->Increment();
          msg.reset();
          continue;
        }
        if (msg->link_seq != last + 1 && !gap) {
          seq_gaps_->Increment();
          gap = GapInfo{msg->src, last + 1, msg->link_seq};
        }
        last = msg->link_seq;
        break;
      }
      inbox.cv.Wait(inbox.mu);
    }
  } else {
    sy::MutexLock lock(&inbox.mu);
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) return std::nullopt;
      if (!inbox.queue.empty()) {
        const auto now = Clock::now();
        const Item& top = inbox.queue.top();
        if (top.ready <= now) {
          msg = std::move(const_cast<Item&>(top).msg);
          inbox.queue.pop();
          uint64_t& last = inbox.delivered_link_seq[msg->src];
          if (msg->link_seq <= last) {
            dup_dropped_->Increment();
            msg.reset();
            continue;
          }
          if (msg->link_seq != last + 1 && !gap) {
            seq_gaps_->Increment();
            gap = GapInfo{msg->src, last + 1, msg->link_seq};
          }
          last = msg->link_seq;
          break;
        }
        // Copy the deadline out of the queue node: WaitUntil releases
        // inbox.mu, so a concurrent Send() can reallocate the queue's
        // storage and leave a reference into it dangling (the cv re-reads
        // the deadline on spurious wakeup — ASan caught this as a
        // use-after-free).
        const Clock::time_point ready = top.ready;
        inbox.cv.WaitUntil(inbox.mu, ready);
      } else {
        inbox.cv.Wait(inbox.mu);
      }
    }
  }
  // Gap (loss) reports and flow arrows are recorded outside the inbox
  // critical section: the tracer takes its thread-registry lock on a
  // thread's first event, which must never nest under inbox.mu
  // (lock-order fix surfaced by the annotation pass; docs/LOCK_ORDER.md
  // keeps tracer locks leaf-only), and the loss callback takes engine
  // locks.
  if (gap && loss_cb_) loss_cb_(gap->src, worker, gap->expected, gap->got);
  if (msg->span != 0 && Tracer::enabled()) {
    Tracer::Get().RecordFlow(FlowName(msg->kind), 'f', msg->span);
  }
  return msg;
}

std::optional<WireMessage> Transport::TryReceive(WorkerId worker) {
  Inbox& inbox = *inboxes_[worker];
  std::optional<WireMessage> msg;
  std::optional<GapInfo> gap;
  {
    sy::MutexLock lock(&inbox.mu);
    for (;;) {
      if (fast_path_) {
        if (inbox.fifo.empty()) return std::nullopt;
        msg = inbox.fifo.Pop();
      } else {
        if (inbox.queue.empty()) return std::nullopt;
        const Item& top = inbox.queue.top();
        if (top.ready > Clock::now()) return std::nullopt;
        msg = std::move(const_cast<Item&>(top).msg);
        inbox.queue.pop();
      }
      uint64_t& last = inbox.delivered_link_seq[msg->src];
      if (msg->link_seq <= last) {
        dup_dropped_->Increment();
        msg.reset();
        continue;
      }
      if (msg->link_seq != last + 1 && !gap) {
        seq_gaps_->Increment();
        gap = GapInfo{msg->src, last + 1, msg->link_seq};
      }
      last = msg->link_seq;
      break;
    }
  }
  // As in Receive: loss reports and flow recording stay outside the lock.
  if (gap && loss_cb_) loss_cb_(gap->src, worker, gap->expected, gap->got);
  if (msg->span != 0 && Tracer::enabled()) {
    Tracer::Get().RecordFlow(FlowName(msg->kind), 'f', msg->span);
  }
  return msg;
}

bool Transport::InboxEmpty(WorkerId worker) const {
  const Inbox& inbox = *inboxes_[worker];
  sy::MutexLock lock(&inbox.mu);
  return inbox.queue.empty() && inbox.fifo.empty();
}

int64_t Transport::InboxDepth(WorkerId worker) const {
  const Inbox& inbox = *inboxes_[worker];
  sy::MutexLock lock(&inbox.mu);
  return static_cast<int64_t>(inbox.queue.size() + inbox.fifo.size());
}

void Transport::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& inbox : inboxes_) {
    sy::MutexLock lock(&inbox->mu);
    inbox->cv.NotifyAll();
  }
}

}  // namespace serigraph
