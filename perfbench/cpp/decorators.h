// Timing decorators for the two seams the kernel exposes: Transport
// (Kernel::SetTransport) and Disk (KernelOptions::disk_factory).  Each
// forwards every call unchanged and records a span around it; the transport
// decorator also wraps each delivery handler it registers, and keeps a sample
// of the frames it forwarded so replays can run on the run's own inputs.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "storage/disk.h"
#include "tracer.h"

namespace perfbench {

struct SentFrame {
  tacoma::SiteId from;
  tacoma::SiteId to;
  tacoma::SharedBytes payload;
};

class TimingTransport : public tacoma::Transport {
 public:
  // `send_layer` names what a Send costs on this backend (sim routing or a
  // socket write).  Up to `capture_limit` sampled frames are kept.
  TimingTransport(tacoma::Transport* inner, Tracer* tracer, Layer send_layer,
                  size_t capture_limit)
      : inner_(inner),
        tracer_(tracer),
        send_layer_(send_layer),
        capture_limit_(capture_limit) {}

  void SetHandler(tacoma::SiteId site, Handler handler) override {
    inner_->SetHandler(site, [this, handler = std::move(handler)](
                                 tacoma::SiteId from,
                                 const tacoma::SharedBytes& payload) {
      Span span(tracer_, Layer::kDeliver);
      handler(from, payload);
    });
  }

  void SetRestartHook(tacoma::SiteId site, RestartHook hook) override {
    inner_->SetRestartHook(site, std::move(hook));
  }

  tacoma::Status Send(tacoma::SiteId from, tacoma::SiteId to,
                      tacoma::SharedBytes payload) override {
    // Every kCaptureEvery-th send: a kept frame pins its allocation, and
    // pinning them all would change the memory the traced rounds run in.
    if (tracer_->active() && sends_++ % kCaptureEvery == 0 &&
        frames_.size() < capture_limit_) {
      frames_.push_back(SentFrame{from, to, payload});
    }
    Span span(tracer_, send_layer_);
    return inner_->Send(from, to, std::move(payload));
  }

  tacoma::TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }

  const std::vector<SentFrame>& frames() const { return frames_; }

 private:
  static constexpr uint64_t kCaptureEvery = 8;

  tacoma::Transport* inner_;
  Tracer* tracer_;
  Layer send_layer_;
  size_t capture_limit_;
  uint64_t sends_ = 0;
  std::vector<SentFrame> frames_;
};

// Bytes written or appended through every TimingDisk sharing one counter.
struct DiskCounters {
  uint64_t ops = 0;
  uint64_t bytes_written = 0;
};

class TimingDisk : public tacoma::Disk {
 public:
  TimingDisk(std::unique_ptr<tacoma::Disk> inner, Tracer* tracer,
             DiskCounters* counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  tacoma::Status Write(const std::string& name,
                       const tacoma::Bytes& data) override {
    Span span(Count(data.size()), Layer::kDisk);
    return inner_->Write(name, data);
  }
  tacoma::Result<tacoma::Bytes> Read(const std::string& name) const override {
    Span span(Count(0), Layer::kDisk);
    return inner_->Read(name);
  }
  tacoma::Status Append(const std::string& name,
                        const tacoma::Bytes& data) override {
    Span span(Count(data.size()), Layer::kDisk);
    return inner_->Append(name, data);
  }
  tacoma::Status Remove(const std::string& name) override {
    Span span(Count(0), Layer::kDisk);
    return inner_->Remove(name);
  }
  tacoma::Status Rename(const std::string& from, const std::string& to) override {
    Span span(Count(0), Layer::kDisk);
    return inner_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    Span span(Count(0), Layer::kDisk);
    return inner_->Exists(name);
  }
  std::vector<std::string> List() const override {
    Span span(Count(0), Layer::kDisk);
    return inner_->List();
  }

 private:
  // Counts one operation inside the measured window; returns the tracer.
  Tracer* Count(size_t bytes) const {
    if (tracer_->active()) {
      ++counters_->ops;
      counters_->bytes_written += bytes;
    }
    return tracer_;
  }

  std::unique_ptr<tacoma::Disk> inner_;
  Tracer* tracer_;
  DiskCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
