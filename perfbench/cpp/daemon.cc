// Workload `daemon`: two kernels with one site each in this process, talking
// over TCP loopback, configured like `tacoma_shell --daemon --reliable
// --code-cache --state-dir`: write-ahead cabinets, the daemon's rear-guard
// options, and a FileDisk per site in a fresh state directory per round.
// Each journey is an ft-guarded walker a -> b -> a with 1 KiB of DATA,
// launched after the previous one completed (closed loop, one agent).  The
// loop alternates RealtimePump::Tick(0) between the kernels and never
// sleeps.  This is the only workload on the real wire (frame codec,
// sendmsg, epoll), rear-guard deposits and retirement, and WAL appends to
// files.
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>

#include "ft/rearguard.h"
#include "harness.h"
#include "net/realtime.h"
#include "net/tcp_transport.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kWarmupJourneys = 20;
constexpr int kTimedJourneys = 500;
constexpr int kHopsPerJourney = 2;
constexpr size_t kDataBytes = 1024;
constexpr size_t kCaptureLimit = 1000;
constexpr int kRawRoundTrips = 200;
constexpr int64_t kJourneyTimeoutNs = 5'000'000'000;
constexpr int64_t kDrainTimeoutNs = 3'000'000'000;

// The daemon's guarded walker (examples/tacoma_shell.cc): idempotent
// per-site work, one ft hop per itinerary entry, a registry outcome at home.
constexpr char kWalker[] = R"(
  cab_append t VISITS [site]
  if {[bc_len ITINERARY] > 0} {
    ft_jump [bc_pop ITINERARY]
  } else {
    ft_complete
  }
)";

// One process-local "machine": a kernel hosting one site over TCP.
struct Node {
  std::unique_ptr<tacoma::TcpTransport> tcp;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<tacoma::Kernel> kernel;
  std::unique_ptr<tacoma::ft::RearGuard> guard;
  std::unique_ptr<tacoma::RealtimePump> pump;
  tacoma::SiteId self = 0;
};

struct Completions {
  std::map<std::string, int> count;  // ft_done meets per agent.
  std::map<std::string, int64_t> at_ns;
};

// Loop bookkeeping for the traced ticks.
struct TickStats {
  int64_t idle_ns = 0;        // Ticks that ran no timer and dispatched nothing.
  uint64_t idle_polls = 0;
  int64_t idle_poll_ns = 0;   // Poll spans of those ticks.
};

class DaemonRound {
 public:
  DaemonRound(const std::string& dir, uint64_t seed, Tracer* tracer,
              DiskCounters* disk_counters, Completions* done) {
    const char* names[2] = {"a", "b"};
    for (int i = 0; i < 2; ++i) {
      Node& n = nodes_[i];
      tacoma::KernelOptions options;
      options.seed = SubSeed(seed, 10 + i);
      options.cabinet_write_ahead = true;
      options.reliability.mode = tacoma::Reliability::kReliable;
      options.code_cache.enabled = true;
      std::string node_dir = dir + "/" + names[i];
      options.disk_factory = [node_dir, tracer, disk_counters](
                                 tacoma::SiteId, const std::string& site)
          -> std::unique_ptr<tacoma::Disk> {
        auto disk = std::make_unique<tacoma::FileDisk>(node_dir + "/" + site);
        if (tracer == nullptr) {
          return disk;
        }
        return std::make_unique<TimingDisk>(std::move(disk), tracer, disk_counters);
      };
      n.kernel = std::make_unique<tacoma::Kernel>(options);
      for (int s = 0; s < 2; ++s) {
        tacoma::SiteId id = s == i ? n.kernel->AddSite(names[s])
                                   : n.kernel->AddRemoteSite(names[s]);
        if (s == i) {
          n.self = id;
        }
      }
      // Topology metadata only: frames travel over TCP.
      n.kernel->net().AddLink(0, 1);
      tacoma::ft::GuardOptions guard;  // tacoma_shell --daemon's settings.
      guard.heartbeat = 100 * tacoma::kMillisecond;
      guard.max_misses = 3;
      guard.max_relaunches = 8;
      guard.lease = 5 * tacoma::kSecond;
      guard.completion_contact = "ft_done";
      n.guard = std::make_unique<tacoma::ft::RearGuard>(n.kernel.get(), guard);
      n.guard->Install();
      n.tcp = std::make_unique<tacoma::TcpTransport>();
      tacoma::Status listening = n.tcp->Listen();
      if (!listening.ok()) {
        error_ = "listen: " + listening.ToString();
      }
    }
    nodes_[0].kernel->AddPlaceInitializer([done](tacoma::Place& place) {
      place.RegisterAgent("ft_done", [done](tacoma::Place&, tacoma::Briefcase& bc) {
        std::string agent = bc.GetString("GUARD_AGENT").value_or("?");
        ++done->count[agent];
        done->at_ns[agent] = NowNs();
        return tacoma::OkStatus();
      });
    });
    for (int i = 0; i < 2; ++i) {
      Node& n = nodes_[i];
      n.tcp->AddPeer(nodes_[1 - i].self, "127.0.0.1", nodes_[1 - i].tcp->bound_port());
      if (tracer != nullptr) {
        n.timing = std::make_unique<TimingTransport>(n.tcp.get(), tracer,
                                                     Layer::kNetSend, kCaptureLimit);
        n.kernel->SetTransport(n.timing.get());
      } else {
        n.kernel->SetTransport(n.tcp.get());
      }
      n.pump = std::make_unique<tacoma::RealtimePump>(&n.kernel->sim(), n.tcp.get());
    }
  }

  const std::string& error() const { return error_; }
  Node& node(int i) { return nodes_[i]; }
  std::vector<tacoma::Kernel*> kernels() {
    return {nodes_[0].kernel.get(), nodes_[1].kernel.get()};
  }

  // One RealtimePump::Tick(0) per kernel.  Traced, the same two steps run
  // from here (sim events due by now, then a zero-timeout poll) so each gets
  // its span.
  void TickBoth(Tracer* tracer, TickStats* stats) {
    for (Node& n : nodes_) {
      if (tracer == nullptr || !tracer->active()) {
        n.pump->Tick(0);
        continue;
      }
      int64_t tick_start = NowNs();
      uint64_t now_us = n.pump->elapsed_us();
      tacoma::Simulator& sim = n.kernel->sim();
      int timers = 0;
      while (!sim.Idle() && sim.NextEventTime() <= now_us) {
        Span span(tracer, Layer::kSimEvent);
        sim.Step();
        ++timers;
      }
      sim.RunUntil(now_us);  // Nothing left due; advances the clock like Tick.
      tracer->Begin(Layer::kNetPoll);
      int frames = n.tcp->Poll(0);
      int64_t poll_ns = tracer->End();
      if (frames == 0) {
        ++stats->idle_polls;
        stats->idle_poll_ns += poll_ns;
        if (timers == 0) {
          stats->idle_ns += NowNs() - tick_start;
        }
      }
    }
  }

  uint64_t Guards() const {
    return nodes_[0].guard->TotalGuards() + nodes_[1].guard->TotalGuards();
  }
  uint64_t Pending() const {
    return nodes_[0].kernel->pending_transfers() + nodes_[1].kernel->pending_transfers();
  }

 private:
  Node nodes_[2];
  std::string error_;
};

// Sum of both rear guards' stats.
tacoma::ft::RearGuard::Stats GuardStats(DaemonRound& round) {
  tacoma::ft::RearGuard::Stats sum;
  for (int i = 0; i < 2; ++i) {
    const tacoma::ft::RearGuard::Stats& s = round.node(i).guard->stats();
    sum.deposits += s.deposits;
    sum.pings_sent += s.pings_sent;
    sum.retire_waves += s.retire_waves;
    sum.relaunches += s.relaunches;
    sum.quenches += s.quenches;
  }
  return sum;
}

// Raw transport round trips at `bytes` per frame: two TcpTransports, no
// kernel, the same zero-timeout polling as the journeys.
void RawRoundTrips(size_t bytes, int rounds, std::vector<double>* samples_us) {
  tacoma::TcpTransport ta;
  tacoma::TcpTransport tb;
  if (!ta.Listen().ok() || !tb.Listen().ok()) {
    return;
  }
  ta.AddPeer(1, "127.0.0.1", tb.bound_port());
  tb.AddPeer(0, "127.0.0.1", ta.bound_port());
  int pongs = 0;
  tb.SetHandler(1, [&tb](tacoma::SiteId from, const tacoma::SharedBytes& payload) {
    (void)tb.Send(1, from, payload);
  });
  ta.SetHandler(0, [&pongs](tacoma::SiteId, const tacoma::SharedBytes&) { ++pongs; });
  tacoma::SharedBytes payload(tacoma::Bytes(bytes, 0xa5));
  const int warmup = 20;
  for (int i = 0; i < warmup + rounds; ++i) {
    int64_t sent = NowNs();
    (void)ta.Send(0, 1, payload);
    int want = pongs + 1;
    while (pongs < want && NowNs() - sent < kJourneyTimeoutNs) {
      tb.Poll(0);
      ta.Poll(0);
    }
    if (i >= warmup) {
      samples_us->push_back(NsToUs(NowNs() - sent));
    }
  }
}

}  // namespace

Report RunDaemon(const RunOptions& options) {
  Report report;
  tacoma::Rng rng(SubSeed(options.seed, 1));
  std::string data(kDataBytes, ' ');
  for (char& c : data) {
    c = static_cast<char>('a' + rng.Uniform(26));
  }
  Tracer tracer(options.spans_out.empty() ? 0 : 20000);
  DiskCounters disk_counters;

  std::vector<double> setup_s;
  std::vector<double> hop_us_untraced;
  RoundPercentiles rtt_us_untraced;  // Reference-scaled, as reported.
  std::vector<double> raw_rtt_us_p50;  // As timed, for the notes.
  std::vector<double> reference_us_rounds;
  std::vector<double> rtt_us_traced;   // Per-round scaled medians.
  std::vector<double> wire_per_hop;
  std::vector<double> raw_rtt_us;
  Counters traced_delta;
  tacoma::ft::RearGuard::Stats traced_ft;
  TickStats ticks;
  int64_t traced_wall_ns = 0;
  double rss_mib = 0;
  uint64_t traced_journeys = 0;
  std::vector<SentFrame> frames;
  double data_frame_bytes = 1536;  // Until a traced round has measured it.
  std::unique_ptr<DaemonRound> replay_round;
  std::string replay_dir;

  auto remove_dir = [](const std::string& dir) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  };

  int64_t run_start = NowNs();
  auto time_left = [&] {
    return NowNs() - run_start < static_cast<int64_t>(options.seconds * 1e9);
  };
  for (int r = 0; r < 3 || time_left(); ++r) {
    // As in `hop`: round 0 is never reported, and a traced run alternates
    // untraced and traced rounds.
    const bool traced = options.trace && r % 2 == 1;
    if (traced) {
      // Before this round's kernels exist, so nothing else is on the CPU.
      RawRoundTrips(static_cast<size_t>(data_frame_bytes), kRawRoundTrips, &raw_rtt_us);
    }
    ReleaseFreedHeap();
    const double reference_before = ReferenceUs();
    int64_t setup_start = NowNs();
    // A fresh state directory per round: a reused one would already hold the
    // agent names in its completion registry.
    std::string dir = options.work_dir + "/daemon-" + std::to_string(getpid()) + "-" +
                      std::to_string(r);
    remove_dir(dir);
    std::filesystem::create_directories(dir);
    Completions done;
    auto round = std::make_unique<DaemonRound>(dir, options.seed, traced ? &tracer : nullptr,
                                               &disk_counters, &done);
    if (!round->error().empty()) {
      report.Fail(round->error());
      remove_dir(dir);
      break;
    }
    tacoma::ft::RearGuard* guard = round->node(0).guard.get();
    tacoma::SiteId home = round->node(0).self;

    std::vector<double> rtt_us;
    uint64_t failed = 0;
    auto journey = [&](int i) {
      std::string agent = "j" + std::to_string(r) + "_" + std::to_string(i);
      tacoma::Briefcase bc;
      bc.folder("ITINERARY").PushBackString("b");
      bc.folder("ITINERARY").PushBackString("a");
      bc.folder("DATA").PushBackString(data);
      int64_t launched_ns = NowNs();
      tacoma::Status launched;
      {
        Span span(traced ? &tracer : nullptr, Layer::kLaunch);
        launched = guard->LaunchGuarded(home, kWalker, std::move(bc), agent);
      }
      while (launched.ok() && done.count.count(agent) == 0 &&
             NowNs() - launched_ns < kJourneyTimeoutNs) {
        round->TickBoth(traced ? &tracer : nullptr, &ticks);
      }
      auto at = done.at_ns.find(agent);
      if (!launched.ok() || at == done.at_ns.end()) {
        ++failed;
        return;
      }
      rtt_us.push_back(NsToUs(at->second - launched_ns));
    };

    for (int i = 0; i < kWarmupJourneys; ++i) {
      journey(i);
    }
    int64_t timed_start = NowNs();
    tracer.set_active(traced);
    Counters before = Snapshot(round->kernels());
    tacoma::ft::RearGuard::Stats ft_before = GuardStats(*round);
    rtt_us.clear();
    for (int i = kWarmupJourneys; i < kWarmupJourneys + kTimedJourneys; ++i) {
      journey(i);
    }
    int64_t timed_end = NowNs();
    tracer.set_active(false);
    const double reference_us = (reference_before + ReferenceUs()) / 2;
    const double scale = kReferenceUs / reference_us;
    Counters d = Delta(Snapshot(round->kernels()), before);
    if (r == 0) {
      rss_mib = PeakRssMib();  // As in `hop`.
    }
    tacoma::ft::RearGuard::Stats ft_after = GuardStats(*round);

    // Let the last retirement waves and acks land, then hold the round to
    // the exactly-once contract: one completion per journey, and a registry
    // in which every launch resolved exactly once.
    int64_t drain_start = NowNs();
    while ((round->Guards() > 0 || round->Pending() > 0) &&
           NowNs() - drain_start < kDrainTimeoutNs) {
      round->TickBoth(nullptr, &ticks);
    }
    report.attempted += kWarmupJourneys + kTimedJourneys;
    for (const auto& [agent, count] : done.count) {
      if (count != 1) {
        ++failed;
      }
    }
    report.failed += failed;
    if (failed > 0) {
      report.Fail("round " + std::to_string(r) + ": " + std::to_string(failed) +
                  " journeys did not complete exactly once");
    }
    tacoma::Status verdict = guard->registry().CheckExactlyOnce(home, true);
    if (!verdict.ok()) {
      report.Fail("round " + std::to_string(r) + ": registry: " + verdict.ToString());
    }
    if (round->Guards() > 0) {
      report.notes.push_back("round " + std::to_string(r) + ": " +
                             std::to_string(round->Guards()) +
                             " guard records still live after the drain");
    }

    setup_s.push_back(static_cast<double>(timed_start - setup_start) / 1e9 * scale);
    double hops = static_cast<double>(kTimedJourneys) * kHopsPerJourney;
    wire_per_hop.push_back(static_cast<double>(d.transport_bytes_sent) / hops);
    if (r > 0 && traced) {
      rtt_us_traced.push_back(Median(rtt_us) * scale);
      traced_wall_ns += timed_end - timed_start;
      traced_journeys += kTimedJourneys;
      Accumulate(&traced_delta, d);
      traced_ft.deposits += ft_after.deposits - ft_before.deposits;
      traced_ft.pings_sent += ft_after.pings_sent - ft_before.pings_sent;
      traced_ft.retire_waves += ft_after.retire_waves - ft_before.retire_waves;
      traced_ft.relaunches += ft_after.relaunches - ft_before.relaunches;
      traced_ft.quenches += ft_after.quenches - ft_before.quenches;
      frames.clear();
      for (int i = 0; i < 2; ++i) {
        const std::vector<SentFrame>& f = round->node(i).timing->frames();
        frames.insert(frames.end(), f.begin(), f.end());
      }
      if (double bytes = MeanDataFrameBytes(frames); bytes > 0) {
        data_frame_bytes = bytes;
      }
      if (!replay_dir.empty()) {
        replay_round.reset();
        remove_dir(replay_dir);
      }
      replay_round = std::move(round);
      replay_dir = dir;
    } else if (r > 0) {
      // Per hop of the round's median journey, not the round's wall time per
      // hop: on a shared disk 1-3% of journeys stall 10-75 ms in file
      // syscalls, and those stalls would set a mean.
      rtt_us_untraced.Add(rtt_us, scale);
      hop_us_untraced.push_back(rtt_us_untraced.p50.back() / kHopsPerJourney);
      raw_rtt_us_p50.push_back(Median(rtt_us));
      reference_us_rounds.push_back(reference_us);
    }
    if (round != nullptr) {
      round.reset();
      remove_dir(dir);
    }
  }

  if (!options.trace) {
    report.Add("hop_us", Median(hop_us_untraced), "us");
    report.Add("latency_us", Median(rtt_us_untraced.p50), "us");
    report.Add("latency_us_p75", Median(rtt_us_untraced.p75), "us");
    report.Add("wire_bytes_per_hop", Median(wire_per_hop), "B");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("rss_mib", rss_mib, "MiB");
    report.notes.push_back(std::to_string(hop_us_untraced.size()) + " timed rounds of " +
                           std::to_string(kTimedJourneys) + " journeys; hop_us per round:" +
                           JoinValues(hop_us_untraced));
    report.notes.push_back("unscaled latency_us median " +
                           std::to_string(Median(raw_rtt_us_p50)) + ", reference median " +
                           std::to_string(Median(reference_us_rounds)) + " us");
    return report;
  }

  PerLayer layers;
  double trips = static_cast<double>(traced_journeys);
  double hops = trips * kHopsPerJourney;
  FillCountRatios(traced_delta, hops, &layers);
  FillSpanMetrics(tracer, traced_wall_ns, &layers);
  if (replay_round != nullptr) {
    ReplayLayers(replay_round->node(0).kernel.get(),
                 replay_round->node(0).kernel->place(replay_round->node(0).self), frames,
                 {kWalker}, &layers);
    replay_round.reset();
    remove_dir(replay_dir);
  }
  if (trips > 0) {
    const LayerTotals& poll = tracer.totals(Layer::kNetPoll);
    uint64_t busy_polls = poll.calls - ticks.idle_polls;
    layers.net_poll_self_us =
        busy_polls > 0 ? NsToUs(poll.self_ns - ticks.idle_poll_ns) / busy_polls : 0;
    layers.net_wait_us_per_trip = NsToUs(ticks.idle_ns) / trips;
    layers.net_frames_per_trip = traced_delta.frames_sent / trips;
    layers.storage_ops_per_trip = disk_counters.ops / trips;
    layers.storage_bytes_per_trip = disk_counters.bytes_written / trips;
    layers.ft_deposits_per_trip = traced_ft.deposits / trips;
    layers.ft_pings_per_trip = traced_ft.pings_sent / trips;
    layers.ft_retire_waves_per_trip = traced_ft.retire_waves / trips;
  }
  layers.net_raw_rtt_us = Median(raw_rtt_us);
  layers.net_sends_rejected = static_cast<double>(traced_delta.sends_rejected);
  layers.net_frames_dropped = static_cast<double>(traced_delta.frames_dropped);
  layers.ft_relaunches = static_cast<double>(traced_ft.relaunches);
  layers.ft_quenches = static_cast<double>(traced_ft.quenches);
  layers.trace_overhead_pct =
      (Median(rtt_us_traced) / Median(rtt_us_untraced.p50) - 1.0) * 100.0;
  AddPerLayer(layers, &report);
  if (!options.spans_out.empty()) {
    tracer.WriteChromeTrace(options.spans_out);
  }
  return report;
}

}  // namespace perfbench
