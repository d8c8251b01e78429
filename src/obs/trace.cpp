#include "obs/trace.hpp"

#include "util/error.hpp"

namespace tg::obs {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kEngine: return "engine";
    case TraceCategory::kScheduler: return "sched";
    case TraceCategory::kGateway: return "gateway";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kAnalytics: return "analytics";
    case TraceCategory::kReplication: return "replication";
  }
  return "unknown";
}

const char* to_string(TracePoint p) {
  switch (p) {
    case TracePoint::kJobSubmit: return "job_submit";
    case TracePoint::kJobStart: return "job_start";
    case TracePoint::kJobEnd: return "job_end";
    case TracePoint::kJobCancel: return "job_cancel";
    case TracePoint::kJobPreempt: return "job_preempt";
    case TracePoint::kJobRequeue: return "job_requeue";
    case TracePoint::kSchedulePass: return "schedule_pass";
    case TracePoint::kOutageBegin: return "outage_begin";
    case TracePoint::kOutageEnd: return "outage_end";
    case TracePoint::kGatewaySubmit: return "gateway_submit";
    case TracePoint::kGatewayDrop: return "gateway_drop";
    case TracePoint::kBrownoutBegin: return "brownout_begin";
    case TracePoint::kBrownoutEnd: return "brownout_end";
    case TracePoint::kHazardFail: return "hazard_fail";
    case TracePoint::kScenarioRun: return "scenario_run";
    case TracePoint::kFeatureExtract: return "feature_extract";
    case TracePoint::kClassify: return "classify";
    case TracePoint::kAggregate: return "aggregate";
    case TracePoint::kClassifySeries: return "classify_series";
    case TracePoint::kReplicate: return "replicate";
  }
  return "unknown";
}

const char* to_string(TraceEvent::Phase p) {
  switch (p) {
    case TraceEvent::Phase::kInstant: return "I";
    case TraceEvent::Phase::kBegin: return "B";
    case TraceEvent::Phase::kEnd: return "E";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) {
  TG_REQUIRE(capacity > 0, "trace buffer capacity must be positive");
  ring_.resize(capacity);
}

void TraceBuffer::emit(std::int64_t sim_time, TraceCategory category,
                       TracePoint point, std::int64_t id, std::int64_t a,
                       std::int64_t b, TraceEvent::Phase phase) {
  TraceEvent& e = ring_[head_];
  e.sim_time = sim_time;
  e.id = id;
  e.a = a;
  e.b = b;
  e.point = point;
  e.category = category;
  e.phase = phase;
  e.depth = depth_;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;
  }
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

TraceSpan::TraceSpan(TraceBuffer* buffer, std::int64_t sim_time,
                     TraceCategory category, TracePoint point,
                     std::int64_t id)
    : buffer_(buffer),
      sim_time_(sim_time),
      id_(id),
      category_(category),
      point_(point) {
  if (buffer_ == nullptr) return;
  buffer_->emit(sim_time_, category_, point_, id_, 0, 0,
                TraceEvent::Phase::kBegin);
  ++buffer_->depth_;
}

TraceSpan::~TraceSpan() {
  if (buffer_ == nullptr) return;
  --buffer_->depth_;
  buffer_->emit(sim_time_, category_, point_, id_, a_, b_,
                TraceEvent::Phase::kEnd);
}

}  // namespace tg::obs
