#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimEvent:
      return "sim.event";
    case Layer::kSimSend:
      return "sim.send";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kNetPoll:
      return "net.poll";
    case Layer::kDeliver:
      return "kernel.deliver";
    case Layer::kDisk:
      return "storage.op";
    case Layer::kLaunch:
      return "kernel.launch";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::Begin(Layer layer) { stack_.push_back(Open{layer, NowNs(), 0}); }

int64_t Tracer::End() {
  int64_t end = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  int64_t dur = end - open.start_ns;
  LayerTotals& t = totals_[static_cast<int>(open.layer)];
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += dur - open.child_ns;
  t.durations_ns.push_back(dur);
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (span_log_.size() < span_log_capacity_) {
    span_log_.push_back(
        Logged{open.layer, open.start_ns, dur, static_cast<int>(stack_.size())});
  }
  return dur;
}

int64_t Tracer::SelfNsTotal() const {
  int64_t sum = 0;
  for (const LayerTotals& t : totals_) {
    sum += t.self_ns;
  }
  return sum;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = span_log_.empty() ? 0 : span_log_.front().start_ns;
  for (const Logged& s : span_log_) {
    origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < span_log_.size(); ++i) {
    const Logged& s = span_log_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.depth);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
