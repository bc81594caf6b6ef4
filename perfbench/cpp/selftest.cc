// Tracing must not change the program: `hop` and `fleet` rounds with a fixed
// seed, once with the timing decorators installed and once without, must
// leave byte-identical registry snapshots, traces and DONE entries (all are
// in simulated time), and the Transport decorator must forward
// transport_stats().  Exits non-zero on any difference.
#include <cstdio>
#include <string>

#include "harness.h"

namespace {

bool SameStats(const tacoma::TransportStats& a, const tacoma::TransportStats& b) {
  return a.frames_sent == b.frames_sent && a.frames_delivered == b.frames_delivered &&
         a.frames_dropped == b.frames_dropped && a.sends_rejected == b.sends_rejected &&
         a.bytes_sent == b.bytes_sent && a.bytes_received == b.bytes_received;
}

int Check(const char* name, const perfbench::SimFingerprint& plain,
          const tacoma::TransportStats& plain_stats,
          const perfbench::SimFingerprint& traced,
          const tacoma::TransportStats& traced_stats) {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL %s: %s\n", name, what);
      ++failures;
    }
  };
  expect(!plain.done.empty(), "no journey finished");
  expect(plain_stats.frames_sent > 0, "no frames sent");
  expect(plain.metrics_json == traced.metrics_json, "registry snapshot differs");
  expect(plain.trace_json == traced.trace_json, "trace differs");
  expect(plain.done == traced.done, "DONE entries differ");
  expect(SameStats(plain_stats, traced_stats),
         "decorator did not forward transport_stats()");
  if (failures == 0) {
    std::printf("ok %s: %zu-byte snapshot, %zu-byte trace identical\n", name,
                plain.metrics_json.size(), plain.trace_json.size());
  }
  return failures;
}

}  // namespace

int main() {
  constexpr uint64_t kSeed = 7;
  int failures = 0;
  tacoma::TransportStats plain_stats;
  tacoma::TransportStats traced_stats;

  const perfbench::SimWorkload workloads[] = {perfbench::HopWorkload(kSeed, 300),
                                              perfbench::FleetWorkload(kSeed, 60)};
  const char* names[] = {"hop", "fleet"};
  for (int i = 0; i < 2; ++i) {
    perfbench::SimFingerprint plain =
        perfbench::FingerprintRound(workloads[i], false, &plain_stats);
    perfbench::SimFingerprint traced =
        perfbench::FingerprintRound(workloads[i], true, &traced_stats);
    failures += Check(names[i], plain, plain_stats, traced, traced_stats);
  }
  return failures == 0 ? 0 : 1;
}
