// Wall-clock spans recorded from outside the program.
//
// The benchmark wraps its own calls into each layer (and the layer seams the
// public API exposes: Transport, Disk, Simulator::Step, TcpTransport::Poll,
// Kernel::LaunchAgent, RearGuard::LaunchGuarded) in spans.  Spans nest
// strictly on the one benchmark thread; a span's self time is its duration
// minus the durations of the spans opened inside it.  Per-layer totals are
// kept in memory, plus a bounded log of raw spans that WriteChromeTrace dumps
// when the run ends.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : int {
  kSimEvent,   // Simulator::Step: one sim event (link hop, timer, delivery).
  kSimSend,    // Transport::Send on the sim network: next-hop BFS + link queue.
  kNetSend,    // Transport::Send on TCP: framing + sendmsg.
  kNetPoll,    // TcpTransport::Poll: epoll, reads, frame reassembly.
  kDeliver,    // Kernel delivery handler: decode, dedup, splice, activation.
  kDisk,       // One Disk operation.
  kLaunch,     // Kernel::LaunchAgent / RearGuard::LaunchGuarded.
  kCount,
};

const char* LayerName(Layer layer);

struct LayerTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;  // Inclusive.
  int64_t self_ns = 0;   // Minus child spans.
  std::vector<int64_t> durations_ns;  // Inclusive, per call (kept for p99).
};

class Tracer {
 public:
  // `span_log_capacity` raw spans are kept for WriteChromeTrace.
  explicit Tracer(size_t span_log_capacity = 0)
      : span_log_capacity_(span_log_capacity) {}

  // Spans are recorded only while active; decorators stay installed across
  // set-up and teardown, which are not part of the measured window.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  void Begin(Layer layer);
  // Closes the innermost span and returns its inclusive duration.
  int64_t End();

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  // Sum of self times over every layer.
  int64_t SelfNsTotal() const;

  // Chrome trace JSON of the logged spans (load in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Logged {
    Layer layer;
    int64_t start_ns;
    int64_t dur_ns;
    int depth;
  };

  bool active_ = false;
  std::vector<Open> stack_;
  std::array<LayerTotals, static_cast<int>(Layer::kCount)> totals_;
  size_t span_log_capacity_;
  std::vector<Logged> span_log_;
};

// RAII span; a null or inactive tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, Layer layer)
      : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
