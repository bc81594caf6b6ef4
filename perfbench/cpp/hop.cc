// Workload `hop`: two sites, one link, KernelOptions defaults, one walker
// ping-ponging with a hop counter and 1 KiB of DATA.  Every per-hop layer
// runs on every hop (decode, admission hit, interpreter build, compiled-unit
// hit, run, metering, encode, digest, send); routing and the cold-code paths
// barely run.  A round launches the walker, runs kWarmupHops untimed hops,
// then times the rest.
#include <memory>

#include "harness.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kWarmupHops = 200;
constexpr size_t kDataBytes = 1024;
constexpr size_t kCaptureLimit = 1000;

// HOPS counts up (the briefcase never shrinks); LIMIT hops in total, then the
// walker records that it finished and after how many activations.
constexpr char kWalker[] = R"(set n [expr {[bc_get HOPS] + 1}]
bc_set HOPS $n
if {$n <= [bc_get LIMIT]} {
  if {[site] eq "a"} { jump b } else { jump a }
} else {
  cab_append res DONE "[bc_get AGENT] $n"
}
)";

}  // namespace

SimWorkload HopWorkload(uint64_t seed, int timed_hops) {
  tacoma::Rng rng(SubSeed(seed, 1));
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string data(kDataBytes, ' ');
  for (char& c : data) {
    c = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
  }
  const int limit = kWarmupHops + timed_hops;
  auto walker = std::make_shared<tacoma::Briefcase>();
  walker->SetString("AGENT", "walker");
  walker->SetString("HOPS", "0");
  walker->SetString("LIMIT", std::to_string(limit));
  walker->folder("DATA").PushBackString(data);
  const uint64_t kernel_seed = SubSeed(seed, 2);

  SimWorkload w;
  w.timed_hops = timed_hops;
  w.journeys = 1;
  w.wall_latency = true;
  w.programs = {kWalker};
  w.make_round = [walker, kernel_seed](Tracer* tracer, DiskCounters* disk) {
    tacoma::KernelOptions options;  // The defaults are what this workload measures.
    options.seed = kernel_seed;
    auto round = std::make_unique<SimRound>(options, tracer, disk);
    tacoma::Kernel* kernel = round->kernel.get();
    tacoma::SiteId a = kernel->AddSite("a");
    kernel->net().AddLink(a, kernel->AddSite("b"));
    round->Decorate(kCaptureLimit);
    // Launch and warm-up hops are set-up; a failed launch shows as a
    // missing DONE entry.
    (void)kernel->LaunchAgent(a, kWalker, *walker);
    while (kernel->stats().transfers_delivered < kWarmupHops && kernel->sim().Step()) {
    }
    return round;
  };
  const std::string expected = "walker " + std::to_string(limit + 1);
  w.check = [expected](tacoma::Kernel* kernel) {
    std::vector<std::string> done = DoneEntries(kernel);
    SimOutcome outcome;
    outcome.failed = done.size() == 1 && done[0] == expected ? 0 : 1;
    return outcome;
  };
  return w;
}

}  // namespace perfbench
