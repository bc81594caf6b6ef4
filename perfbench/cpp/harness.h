// Shared pieces of the three workloads: options, the result report, order
// statistics, counter snapshots of the kernels' public stats, and the
// per-layer metric set every traced run prints.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "decorators.h"
#include "tracer.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch space for the daemon's per-round state directories.
  std::string work_dir = ".";
  // When non-empty, the traced run's raw spans go here (Chrome trace JSON).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // Why `correct` is false.
  std::vector<std::string> notes;   // Human-readable context for stderr.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

Report RunDaemon(const RunOptions& options);

// --- Order statistics ---------------------------------------------------------

double Median(std::vector<double> values);
// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

// Each round's median and 75th percentile, times `scale`; a run reports the
// median over rounds of each, so a few rounds caught in a burst of machine
// noise (a shared VM's CPU and disk) do not set the result.
struct RoundPercentiles {
  std::vector<double> p50;
  std::vector<double> p75;
  void Add(const std::vector<double>& samples, double scale) {
    p50.push_back(Percentile(samples, 50) * scale);
    p75.push_back(Percentile(samples, 75) * scale);
  }
};

// --- CPU-speed reference ------------------------------------------------------
//
// This VM's speed swings by up to 1.75x within tens of seconds as co-tenants
// come and go, far past the benchmark's bounds.  A fixed computation that
// uses nothing from src/ (an ordered map of short strings and integer
// mixing, the kinds of work a hop does) is timed before and after every
// round, and the round's wall-clock results are multiplied by
// kReferenceUs ÷ that time: they read as µs on a CPU where the reference
// takes kReferenceUs.  Over 850 hop rounds this halved the round-to-round
// spread (coefficient of variation 0.20 -> 0.10).  No change to src/ can
// move the reference.
constexpr double kReferenceUs = 2000;
// Median of three timed runs of the reference computation, µs.
double ReferenceUs();
double NsToUs(int64_t ns);
// " v1 v2 ..." for a note line.
std::string JoinValues(const std::vector<double>& values);
// Peak resident set of this process, MiB.
double PeakRssMib();
// Hands the heap the previous round freed back to the OS.  Called between
// rounds, untimed: glibc otherwise consolidates a fleet round's ~100 MB of
// freed chunks inside the next round's first allocations, adding 30-70 ms to
// a 0.5 ms set-up at random.
void ReleaseFreedHeap();
// Derives an independent 64-bit seed for `stream` from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// --- Counters from the public stats getters ---------------------------------

// Every counter, once; Counters, Delta and Accumulate expand it.
#define PERFBENCH_COUNTERS(X) \
  X(transfers_sent) \
  X(transfers_delivered) \
  X(retries_sent) \
  X(duplicates_suppressed) \
  X(acks_sent) \
  X(nacks_sent) \
  X(stub_sends) \
  X(full_sends) \
  X(need_code_sent) \
  X(admission_hits) \
  X(admission_misses) \
  X(interp_steps) \
  X(vm_compiles) \
  X(vm_dispatches) \
  X(code_hits) \
  X(code_misses) \
  X(code_evictions) \
  X(unit_hits) \
  X(unit_misses) \
  X(link_traversals) \
  X(bytes_on_wire) \
  X(events_run) \
  X(frames_sent) \
  X(transport_bytes_sent) \
  X(sends_rejected) \
  X(frames_dropped)

struct Counters {
#define PERFBENCH_FIELD(name) uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
};

// Sums the counters of every kernel in `kernels`.
Counters Snapshot(const std::vector<tacoma::Kernel*>& kernels);
Counters Delta(const Counters& end, const Counters& start);
void Accumulate(Counters* sum, const Counters& delta);

// --- Per-layer metrics ----------------------------------------------------------
//
// Every traced run prints the same set; a layer the workload does not load
// reads 0.  Times are µs per call unless the name says otherwise.
struct PerLayer {
  double sim_route_us = 0;
  double sim_send_us = 0;
  double sim_links_per_hop = 0;
  double sim_events_per_hop = 0;
  double sim_event_self_us = 0;
  double kernel_deliver_self_us = 0;
  double kernel_deliver_us_p99 = 0;
  double kernel_frames_per_hop = 0;
  double kernel_retries_per_hop = 0;
  double kernel_dups_per_hop = 0;
  double tacl_interp_build_us = 0;
  double tacl_compile_us = 0;
  double tacl_compiles_per_hop = 0;
  double tacl_steps_per_hop = 0;
  double tacl_dispatches_per_hop = 0;
  double admission_check_us = 0;
  double admission_analyze_us = 0;
  double admission_hit_ratio = 0;
  double codecache_get_us = 0;
  double codecache_hit_ratio = 0;
  double codecache_unit_hit_ratio = 0;
  double codecache_evictions_per_hop = 0;
  double codecache_stub_share = 0;
  double codecache_need_code_per_hop = 0;
  double crypto_sha256_us = 0;
  double serial_encode_us = 0;
  double serial_decode_us = 0;
  double serial_frame_bytes = 0;
  double net_raw_rtt_us = 0;
  double net_send_us = 0;
  double net_poll_self_us = 0;
  double net_wait_us_per_trip = 0;
  double net_frames_per_trip = 0;
  double net_sends_rejected = 0;
  double net_frames_dropped = 0;
  double storage_op_us = 0;
  double storage_op_us_p99 = 0;
  double storage_ops_per_trip = 0;
  double storage_bytes_per_trip = 0;
  double ft_deposits_per_trip = 0;
  double ft_pings_per_trip = 0;
  double ft_retire_waves_per_trip = 0;
  double ft_relaunches = 0;
  double ft_quenches = 0;
  // The traced run about itself.
  double trace_coverage = 0;      // Σ span self time ÷ traced wall time.
  double trace_overhead_pct = 0;  // Traced vs untraced rounds, same run.
};

// Fills the kernel-, tacl-, admission- and codecache-count metrics from a
// counter delta over `hops` delivered hops.
void FillCountRatios(const Counters& d, double hops, PerLayer* out);
// Fills the span-derived metrics (sim, kernel delivery, net, storage) and
// coverage from `tracer` over `traced_wall_ns` of measured time.
void FillSpanMetrics(const Tracer& tracer, int64_t traced_wall_ns, PerLayer* out);
void AddPerLayer(const PerLayer& layers, Report* report);

// --- Replays ----------------------------------------------------------------------
//
// Per-call costs of public layer functions, replayed on inputs a traced round
// captured at the transport seam (the (from, to) pairs and the DATA frames)
// and on the programs its journeys launched, in launch order.  `place` is a
// live place of the kernel the frames came from.
void ReplayLayers(tacoma::Kernel* kernel, tacoma::Place* place,
                  const std::vector<SentFrame>& frames,
                  const std::vector<std::string>& programs, PerLayer* out);
// Mean size of the kernel DATA frames among `frames` (0 when none).
double MeanDataFrameBytes(const std::vector<SentFrame>& frames);

// --- Simulator workloads (sim_workload.cc) ----------------------------------------

// One round's kernel.  With a tracer, every site disk is a TimingDisk, and
// Decorate routes frames through a TimingTransport; both stay inactive until
// the timed window opens.
struct SimRound {
  SimRound(tacoma::KernelOptions options, Tracer* tracer, DiskCounters* disk_counters);
  // Call once the topology is built.
  void Decorate(size_t capture_limit);

  Tracer* tracer;
  std::unique_ptr<TimingTransport> timing;  // Outlives the kernel using it.
  std::unique_ptr<tacoma::Kernel> kernel;
};

// How a journey ended up: journeys not finished exactly once, and — for a
// latency measured in simulated time — each finished journey's latency.
struct SimOutcome {
  uint64_t failed = 0;
  std::vector<double> latency_us;
};

// A sim workload.  Every round builds a fresh kernel from the same seeded
// inputs and drains its simulator: that drain is the timed work.
struct SimWorkload {
  int timed_hops = 0;  // Hops each round's drain delivers.
  int journeys = 0;    // Journeys each round checks.
  // Latency is the wall time between deliveries (one agent, closed loop);
  // otherwise it is SimOutcome::latency_us.
  bool wall_latency = false;
  std::vector<std::string> programs;  // Launched, in order, for replays.
  // Builds a round up to its first timed event (warm-up included).
  std::function<std::unique_ptr<SimRound>(Tracer*, DiskCounters*)> make_round;
  std::function<SimOutcome(tacoma::Kernel*)> check;
};

// The benchmark's round sizes: a `hop` round takes about 0.1 s, a `fleet`
// round about 2.5 s on a 4-core VM.  Fewer fleet agents per round made the
// seeded inputs, not the program, set a third of the latency spread.
constexpr int kHopTimedHops = 2000;
constexpr int kFleetAgents = 1000;
SimWorkload HopWorkload(uint64_t seed, int timed_hops);
SimWorkload FleetWorkload(uint64_t seed, int agents);
Report RunSimWorkload(const RunOptions& options, const SimWorkload& workload);

// What a sim round leaves behind that must not depend on the timing
// decorators or on the round: the registry snapshot, the journey trace and
// the DONE cabinet entries.
struct SimFingerprint {
  std::string metrics_json;
  std::string trace_json;
  std::string done;
  bool operator==(const SimFingerprint&) const = default;
};
// One round of `workload`, with or without the decorators; `forwarded` gets
// the kernel's transport_stats() as seen through its transport.
SimFingerprint FingerprintRound(const SimWorkload& workload, bool decorated,
                                tacoma::TransportStats* forwarded);
// "DONE" entries of cabinet "res" over every site, sorted.
std::vector<std::string> DoneEntries(tacoma::Kernel* kernel);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
