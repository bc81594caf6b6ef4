// The round loop shared by the simulator workloads (`hop`, `fleet`).
#include <algorithm>

#include "harness.h"

namespace perfbench {
namespace {

// Runs `kernel`'s simulator until idle, one kSimEvent span per event, and
// calls `on_delivery(now_ns)` after every event that delivered a transfer.
void DrainSim(tacoma::Kernel* kernel, Tracer* tracer,
              const std::function<void(int64_t)>& on_delivery) {
  tacoma::Simulator& sim = kernel->sim();
  uint64_t delivered = kernel->stats().transfers_delivered;
  while (true) {
    bool stepped;
    {
      Span span(tracer, Layer::kSimEvent);
      stepped = sim.Step();
    }
    if (!stepped) {
      return;
    }
    if (kernel->stats().transfers_delivered != delivered) {
      delivered = kernel->stats().transfers_delivered;
      on_delivery(NowNs());
    }
  }
}

SimFingerprint Fingerprint(tacoma::Kernel* kernel) {
  std::string done;
  for (const std::string& entry : DoneEntries(kernel)) {
    done += entry + "\n";
  }
  return SimFingerprint{kernel->metrics().JsonSnapshot(),
                        kernel->trace().ChromeTraceJson(), done};
}

}  // namespace

SimRound::SimRound(tacoma::KernelOptions options, Tracer* tracer_in,
                   DiskCounters* disk_counters)
    : tracer(tracer_in) {
  if (tracer != nullptr) {
    options.disk_factory = [tracer_in, disk_counters](tacoma::SiteId, const std::string&) {
      return std::make_unique<TimingDisk>(std::make_unique<tacoma::MemDisk>(), tracer_in,
                                          disk_counters);
    };
  }
  kernel = std::make_unique<tacoma::Kernel>(options);
}

void SimRound::Decorate(size_t capture_limit) {
  if (tracer != nullptr) {
    timing = std::make_unique<TimingTransport>(&kernel->net(), tracer, Layer::kSimSend,
                                               capture_limit);
    kernel->SetTransport(timing.get());
  }
}

std::vector<std::string> DoneEntries(tacoma::Kernel* kernel) {
  std::vector<std::string> entries;
  for (tacoma::SiteId site = 0; site < kernel->site_count(); ++site) {
    tacoma::Place* place = kernel->place(site);
    if (place == nullptr || !place->HasCabinet("res")) {
      continue;
    }
    for (std::string& entry : place->Cabinet("res").ListStrings("DONE")) {
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

SimFingerprint FingerprintRound(const SimWorkload& workload, bool decorated,
                                tacoma::TransportStats* forwarded) {
  Tracer tracer;
  DiskCounters disk;
  std::unique_ptr<SimRound> round = workload.make_round(decorated ? &tracer : nullptr, &disk);
  tracer.set_active(decorated);
  DrainSim(round->kernel.get(), decorated ? &tracer : nullptr, [](int64_t) {});
  *forwarded = round->kernel->transport().transport_stats();
  return Fingerprint(round->kernel.get());
}

Report RunSimWorkload(const RunOptions& options, const SimWorkload& workload) {
  Report report;
  Tracer tracer(options.spans_out.empty() ? 0 : 20000);
  DiskCounters disk_counters;
  const double hops = workload.timed_hops;

  std::vector<double> setup_s;
  std::vector<double> hop_us_untraced;  // Reference-scaled, as reported.
  std::vector<double> raw_hop_us;       // As timed, for the notes.
  std::vector<double> reference_us_rounds;
  std::vector<double> hop_us_traced;
  RoundPercentiles latency_us;  // Untraced rounds.
  std::vector<double> wire_per_hop;
  Counters traced_delta;
  int64_t traced_wall_ns = 0;
  double rss_mib = 0;
  std::unique_ptr<SimRound> replay_round;  // Latest traced round, for replays.
  std::unique_ptr<SimFingerprint> reference;

  int64_t run_start = NowNs();
  auto time_left = [&] {
    return NowNs() - run_start < static_cast<int64_t>(options.seconds * 1e9);
  };
  for (int r = 0; r < 3 || time_left(); ++r) {
    // Round 0 warms the process and is never reported.  A traced run
    // alternates untraced and traced rounds, so the tracing overhead is
    // measured on the same process, inputs and seconds.
    const bool traced = options.trace && r % 2 == 1;
    ReleaseFreedHeap();
    const double reference_before = ReferenceUs();
    int64_t setup_start = NowNs();
    std::unique_ptr<SimRound> round =
        workload.make_round(traced ? &tracer : nullptr, &disk_counters);
    tacoma::Kernel* kernel = round->kernel.get();
    int64_t timed_start = NowNs();

    tracer.set_active(traced);
    Counters before = Snapshot({kernel});
    int64_t last = timed_start;
    std::vector<double> gaps;
    gaps.reserve(workload.wall_latency ? workload.timed_hops : 0);
    DrainSim(kernel, traced ? &tracer : nullptr, [&](int64_t now) {
      if (workload.wall_latency) {
        gaps.push_back(NsToUs(now - last));
        last = now;
      }
    });
    int64_t timed_end = NowNs();
    tracer.set_active(false);
    const double reference_us = (reference_before + ReferenceUs()) / 2;
    const double scale = kReferenceUs / reference_us;
    Counters d = Delta(Snapshot({kernel}), before);
    if (r == 0) {
      // One full round with the kernel still alive, before the benchmark's
      // own fingerprints and sample arrays grow.
      rss_mib = PeakRssMib();
    }

    SimOutcome outcome = workload.check(kernel);
    report.attempted += workload.journeys;
    report.failed += outcome.failed;
    if (outcome.failed > 0) {
      report.Fail("round " + std::to_string(r) + ": " + std::to_string(outcome.failed) +
                  " journeys did not finish exactly once");
    }
    if (d.transfers_delivered != static_cast<uint64_t>(workload.timed_hops)) {
      report.Fail("round " + std::to_string(r) + ": " +
                  std::to_string(d.transfers_delivered) + " hops delivered, expected " +
                  std::to_string(workload.timed_hops));
    }
    // Every round replays the same seeded inputs on a fresh kernel, so the
    // sim-time outputs must repeat exactly, traced or not.
    SimFingerprint fp = Fingerprint(kernel);
    if (reference == nullptr) {
      reference = std::make_unique<SimFingerprint>(std::move(fp));
    } else if (!(fp == *reference)) {
      report.Fail("round " + std::to_string(r) + (traced ? " (traced)" : "") +
                  ": sim-time metrics or trace differ from round 0");
    }

    setup_s.push_back(static_cast<double>(timed_start - setup_start) / 1e9 * scale);
    wire_per_hop.push_back(static_cast<double>(d.bytes_on_wire) / hops);
    if (r == 0) {
      continue;
    }
    double hop_us = NsToUs(timed_end - timed_start) / hops;
    if (traced) {
      hop_us_traced.push_back(hop_us * scale);
      traced_wall_ns += timed_end - timed_start;
      Accumulate(&traced_delta, d);
      replay_round = std::move(round);
    } else {
      hop_us_untraced.push_back(hop_us * scale);
      raw_hop_us.push_back(hop_us);
      reference_us_rounds.push_back(reference_us);
      if (workload.wall_latency) {
        latency_us.Add(gaps, scale);
      } else {
        latency_us.Add(outcome.latency_us, 1.0);  // Simulated time.
      }
    }
  }

  if (!options.trace) {
    report.Add("hop_us", Median(hop_us_untraced), "us");
    report.Add("latency_us", Median(latency_us.p50), "us");
    report.Add("latency_us_p75", Median(latency_us.p75), "us");
    report.Add("wire_bytes_per_hop", Median(wire_per_hop), "B");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("rss_mib", rss_mib, "MiB");
    report.notes.push_back(std::to_string(hop_us_untraced.size()) + " timed rounds of " +
                           std::to_string(workload.timed_hops) + " hops; hop_us per round:" +
                           JoinValues(hop_us_untraced));
    report.notes.push_back("unscaled hop_us median " + std::to_string(Median(raw_hop_us)) +
                           ", reference median " +
                           std::to_string(Median(reference_us_rounds)) + " us");
    return report;
  }

  PerLayer layers;
  double traced_rounds = static_cast<double>(hop_us_traced.size());
  FillCountRatios(traced_delta, traced_rounds * hops, &layers);
  FillSpanMetrics(tracer, traced_wall_ns, &layers);
  double journeys = traced_rounds * workload.journeys;
  if (journeys > 0) {
    layers.storage_ops_per_trip = disk_counters.ops / journeys;
    layers.storage_bytes_per_trip = disk_counters.bytes_written / journeys;
  }
  layers.trace_overhead_pct =
      (Median(hop_us_traced) / Median(hop_us_untraced) - 1.0) * 100.0;
  if (replay_round != nullptr) {
    ReplayLayers(replay_round->kernel.get(), replay_round->kernel->place(0),
                 replay_round->timing->frames(), workload.programs, &layers);
  }
  AddPerLayer(layers, &report);
  if (!options.spans_out.empty()) {
    tracer.WriteChromeTrace(options.spans_out);
  }
  return report;
}

}  // namespace perfbench
