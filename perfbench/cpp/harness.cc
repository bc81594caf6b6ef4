#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += " " + std::to_string(v);
  }
  return out;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void ReleaseFreedHeap() { malloc_trim(0); }

namespace {

volatile uint64_t g_reference_sink = 0;

uint64_t ReferenceWork() {
  std::map<std::string, std::string> table;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table["key" + std::to_string(x % 100000)] =
        std::string(32 + x % 64, static_cast<char>('a' + i % 26));
  }
  uint64_t sum = 0;
  for (const auto& [key, value] : table) {
    sum += key.size() + static_cast<unsigned char>(value[0]);
  }
  return sum;
}

}  // namespace

double ReferenceUs() {
  std::vector<double> us;
  for (int i = 0; i < 3; ++i) {
    int64_t start = NowNs();
    g_reference_sink = g_reference_sink + ReferenceWork();
    us.push_back(NsToUs(NowNs() - start));
  }
  return Median(std::move(us));
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

uint64_t Probe(const tacoma::Kernel& kernel, const char* name) {
  return static_cast<uint64_t>(kernel.metrics().Value(name).value_or(0));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double MeanUs(const LayerTotals& t, bool self) {
  return t.calls == 0 ? 0
                      : NsToUs(self ? t.self_ns : t.total_ns) /
                            static_cast<double>(t.calls);
}

double P99Us(const LayerTotals& t) {
  std::vector<double> us;
  us.reserve(t.durations_ns.size());
  for (int64_t ns : t.durations_ns) {
    us.push_back(NsToUs(ns));
  }
  return Percentile(std::move(us), 99);
}

}  // namespace

Counters Snapshot(const std::vector<tacoma::Kernel*>& kernels) {
  Counters c;
  for (tacoma::Kernel* k : kernels) {
    const tacoma::Kernel::Stats& s = k->stats();
    c.transfers_sent += s.transfers_sent;
    c.transfers_delivered += s.transfers_delivered;
    c.retries_sent += s.retries_sent;
    c.duplicates_suppressed += s.duplicates_suppressed;
    c.acks_sent += s.acks_sent;
    c.nacks_sent += s.nacks_sent;
    const tacoma::Kernel::CodeCacheStats& cc = k->code_cache_stats();
    c.stub_sends += cc.stub_sends;
    c.full_sends += cc.full_sends;
    c.need_code_sent += cc.need_code_sent;
    c.admission_hits += k->admission_cache_stats().hits;
    c.admission_misses += k->admission_cache_stats().misses;
    // Per-place sums, through the registry's probes over live places.
    c.interp_steps += Probe(*k, "place.interp_steps");
    c.vm_compiles += Probe(*k, "vm.compiles");
    c.vm_dispatches += Probe(*k, "vm.dispatches");
    c.code_hits += Probe(*k, "code_cache.hits");
    c.code_misses += Probe(*k, "code_cache.misses");
    c.code_evictions += Probe(*k, "code_cache.evictions");
    c.unit_hits += Probe(*k, "vm.code_cache_unit_hits");
    c.unit_misses += Probe(*k, "vm.code_cache_unit_misses");
    c.link_traversals += k->net().stats().link_traversals;
    c.bytes_on_wire += k->net().stats().bytes_on_wire;
    c.events_run += k->sim().events_run();
    tacoma::TransportStats t = k->transport().transport_stats();
    c.frames_sent += t.frames_sent;
    c.transport_bytes_sent += t.bytes_sent;
    c.sends_rejected += t.sends_rejected;
    c.frames_dropped += t.frames_dropped;
  }
  return c;
}

Counters Delta(const Counters& end, const Counters& start) {
  Counters d;
#define PERFBENCH_DELTA(name) d.name = end.name - start.name;
  PERFBENCH_COUNTERS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
  return d;
}

void Accumulate(Counters* sum, const Counters& delta) {
#define PERFBENCH_ADD(name) sum->name += delta.name;
  PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
}

void FillCountRatios(const Counters& d, double hops, PerLayer* out) {
  auto per_hop = [hops](uint64_t v) { return Ratio(static_cast<double>(v), hops); };
  out->sim_links_per_hop = per_hop(d.link_traversals);
  out->sim_events_per_hop = per_hop(d.events_run);
  out->kernel_frames_per_hop =
      per_hop(d.transfers_sent + d.acks_sent + d.nacks_sent + d.need_code_sent);
  out->kernel_retries_per_hop = per_hop(d.retries_sent);
  out->kernel_dups_per_hop = per_hop(d.duplicates_suppressed);
  out->tacl_compiles_per_hop = per_hop(d.vm_compiles);
  out->tacl_steps_per_hop = per_hop(d.interp_steps);
  out->tacl_dispatches_per_hop = per_hop(d.vm_dispatches);
  out->admission_hit_ratio = Ratio(static_cast<double>(d.admission_hits),
                                   static_cast<double>(d.admission_hits + d.admission_misses));
  out->codecache_hit_ratio = Ratio(static_cast<double>(d.code_hits),
                                   static_cast<double>(d.code_hits + d.code_misses));
  out->codecache_unit_hit_ratio = Ratio(static_cast<double>(d.unit_hits),
                                        static_cast<double>(d.unit_hits + d.unit_misses));
  out->codecache_evictions_per_hop = per_hop(d.code_evictions);
  out->codecache_stub_share = Ratio(static_cast<double>(d.stub_sends),
                                    static_cast<double>(d.stub_sends + d.full_sends));
  out->codecache_need_code_per_hop = per_hop(d.need_code_sent);
}

void FillSpanMetrics(const Tracer& tracer, int64_t traced_wall_ns, PerLayer* out) {
  out->sim_send_us = MeanUs(tracer.totals(Layer::kSimSend), false);
  out->sim_event_self_us = MeanUs(tracer.totals(Layer::kSimEvent), true);
  out->kernel_deliver_self_us = MeanUs(tracer.totals(Layer::kDeliver), true);
  out->kernel_deliver_us_p99 = P99Us(tracer.totals(Layer::kDeliver));
  out->net_send_us = MeanUs(tracer.totals(Layer::kNetSend), false);
  out->storage_op_us = MeanUs(tracer.totals(Layer::kDisk), false);
  out->storage_op_us_p99 = P99Us(tracer.totals(Layer::kDisk));
  out->trace_coverage =
      Ratio(static_cast<double>(tracer.SelfNsTotal()), static_cast<double>(traced_wall_ns));
}

void AddPerLayer(const PerLayer& l, Report* r) {
  r->Add("sim.route_us", l.sim_route_us, "us");
  r->Add("sim.send_us", l.sim_send_us, "us");
  r->Add("sim.links_per_hop", l.sim_links_per_hop, "links/hop");
  r->Add("sim.events_per_hop", l.sim_events_per_hop, "events/hop");
  r->Add("sim.event_self_us", l.sim_event_self_us, "us");
  r->Add("kernel.deliver_self_us", l.kernel_deliver_self_us, "us");
  r->Add("kernel.deliver_us_p99", l.kernel_deliver_us_p99, "us");
  r->Add("kernel.frames_per_hop", l.kernel_frames_per_hop, "frames/hop");
  r->Add("kernel.retries_per_hop", l.kernel_retries_per_hop, "frames/hop");
  r->Add("kernel.dups_per_hop", l.kernel_dups_per_hop, "frames/hop");
  r->Add("tacl.interp_build_us", l.tacl_interp_build_us, "us");
  r->Add("tacl.compile_us", l.tacl_compile_us, "us");
  r->Add("tacl.compiles_per_hop", l.tacl_compiles_per_hop, "count/hop");
  r->Add("tacl.steps_per_hop", l.tacl_steps_per_hop, "steps/hop");
  r->Add("tacl.dispatches_per_hop", l.tacl_dispatches_per_hop, "ops/hop");
  r->Add("admission.check_us", l.admission_check_us, "us");
  r->Add("admission.analyze_us", l.admission_analyze_us, "us");
  r->Add("admission.hit_ratio", l.admission_hit_ratio, "ratio");
  r->Add("codecache.get_us", l.codecache_get_us, "us");
  r->Add("codecache.hit_ratio", l.codecache_hit_ratio, "ratio");
  r->Add("codecache.unit_hit_ratio", l.codecache_unit_hit_ratio, "ratio");
  r->Add("codecache.evictions_per_hop", l.codecache_evictions_per_hop, "count/hop");
  r->Add("codecache.stub_share", l.codecache_stub_share, "ratio");
  r->Add("codecache.need_code_per_hop", l.codecache_need_code_per_hop, "frames/hop");
  r->Add("crypto.sha256_us", l.crypto_sha256_us, "us");
  r->Add("serial.encode_us", l.serial_encode_us, "us");
  r->Add("serial.decode_us", l.serial_decode_us, "us");
  r->Add("serial.frame_bytes", l.serial_frame_bytes, "B");
  r->Add("net.raw_rtt_us", l.net_raw_rtt_us, "us");
  r->Add("net.send_us", l.net_send_us, "us");
  r->Add("net.poll_self_us", l.net_poll_self_us, "us");
  r->Add("net.wait_us_per_trip", l.net_wait_us_per_trip, "us/trip");
  r->Add("net.frames_per_trip", l.net_frames_per_trip, "frames/trip");
  r->Add("net.sends_rejected", l.net_sends_rejected, "count");
  r->Add("net.frames_dropped", l.net_frames_dropped, "count");
  r->Add("storage.op_us", l.storage_op_us, "us");
  r->Add("storage.op_us_p99", l.storage_op_us_p99, "us");
  r->Add("storage.ops_per_trip", l.storage_ops_per_trip, "ops/trip");
  r->Add("storage.bytes_per_trip", l.storage_bytes_per_trip, "B/trip");
  r->Add("ft.deposits_per_trip", l.ft_deposits_per_trip, "count/trip");
  r->Add("ft.pings_per_trip", l.ft_pings_per_trip, "count/trip");
  r->Add("ft.retire_waves_per_trip", l.ft_retire_waves_per_trip, "count/trip");
  r->Add("ft.relaunches", l.ft_relaunches, "count");
  r->Add("ft.quenches", l.ft_quenches, "count");
  r->Add("trace.coverage", l.trace_coverage, "ratio");
  r->Add("trace.overhead_pct", l.trace_overhead_pct, "%");
}

}  // namespace perfbench
