// Workload `fleet`: an 8x8 grid of default links with 1% loss each,
// reliable transfers and CodeCache on.  Agents launch from random home sites
// as a Poisson stream (open loop in simulated time), each visiting
// kItinerary random sites.  CODE is drawn Zipf(1) from kPrograms distinct
// programs of 0.2-3 KiB, more than a place's 64-entry CodeCache holds, and
// DATA sizes are log-uniform from 64 B to 16 KiB.  This loads what `hop`
// barely runs: routing (one BFS per link crossed, per send and per wire
// charge), cold code (analysis, compiles, full-CODE sends, NeedCode), acks,
// retries, the dedup journal, and many agents in flight.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "harness.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr size_t kGridSide = 8;
constexpr int kItinerary = 8;
constexpr size_t kPrograms = 256;
constexpr double kZipfS = 1.0;
constexpr double kLaunchesPerSecond = 500;
constexpr double kLinkLoss = 0.01;
constexpr double kMinProgramBytes = 200;
constexpr double kMaxProgramBytes = 3072;
constexpr double kMinDataBytes = 64;
constexpr double kMaxDataBytes = 16384;
constexpr size_t kCaptureLimit = 2000;

// Every program ends with this walker; the lines before it are per-program
// state (distinct digests, distinct sizes, a little work per activation).
constexpr char kWalkerTail[] = R"(if {[bc_len ITINERARY] > 0} {
  jump [bc_pop ITINERARY]
} else {
  cab_append res DONE "[bc_get AGENT] [now_us]"
}
)";

std::string RandomWord(tacoma::Rng* rng, size_t n) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s(n, ' ');
  for (char& c : s) {
    c = kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
  }
  return s;
}

// The value at quantile q in [0, 1) of the log-uniform law on [lo, hi].
double LogUniform(double lo, double hi, double q) {
  return std::exp(std::log(lo) + q * (std::log(hi) - std::log(lo)));
}

// The program of Zipf rank `rank`.  Its size quantile follows the
// golden-ratio sequence, so every popularity tier mixes small and large
// programs and the hop-weighted CODE size does not hinge on the sizes a seed
// happens to give the few most popular programs.  The seed fills them in.
std::string MakeProgram(tacoma::Rng* rng, size_t rank) {
  double q = std::fmod((static_cast<double>(rank) + 0.5) * 0.6180339887498949, 1.0);
  size_t target = static_cast<size_t>(LogUniform(kMinProgramBytes, kMaxProgramBytes, q));
  std::string program = "set program p" + std::to_string(rank) + "\n";
  for (int i = 0; program.size() + sizeof(kWalkerTail) - 1 < target; ++i) {
    program += "set k" + std::to_string(i) + " " +
               RandomWord(rng, 8 + rng->Uniform(17)) + "\n";
  }
  return program + kWalkerTail;
}

struct Journey {
  tacoma::SimTime launch_us = 0;
  tacoma::SiteId home = 0;
  size_t program = 0;
  tacoma::Briefcase briefcase;  // AGENT, ITINERARY and DATA.
};

struct FleetInputs {
  uint64_t kernel_seed = 0;
  std::vector<std::string> programs;
  std::vector<Journey> journeys;
};

// Everything the program receives is generated here from the seed: the
// program pool, Zipf draws, homes, itineraries, DATA sizes and launch times.
// (The kernel seed drives the per-link loss pattern.)
FleetInputs MakeInputs(uint64_t seed, int agents) {
  FleetInputs in;
  in.kernel_seed = SubSeed(seed, 2);
  tacoma::Rng rng(SubSeed(seed, 1));
  for (size_t i = 0; i < kPrograms; ++i) {
    in.programs.push_back(MakeProgram(&rng, i));
  }
  std::vector<double> zipf_cdf;
  double total = 0;
  for (size_t k = 1; k <= kPrograms; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), kZipfS);
    zipf_cdf.push_back(total);
  }
  const size_t sites = kGridSide * kGridSide;
  // DATA sizes are stratified: agent i draws from its own 1/agents slice of
  // the quantiles, so the fleet's total DATA barely depends on the seed.
  // The Zipf draws are stratified the same way.
  std::vector<int> strata(agents);
  for (int i = 0; i < agents; ++i) {
    strata[i] = i;
  }
  std::vector<int> zipf_strata = strata;
  rng.Shuffle(strata);
  rng.Shuffle(zipf_strata);
  double t_us = 0;
  for (int i = 0; i < agents; ++i) {
    Journey j;
    t_us += rng.Exponential(1e6 / kLaunchesPerSecond);
    j.launch_us = static_cast<tacoma::SimTime>(t_us);
    j.home = static_cast<tacoma::SiteId>(rng.Uniform(sites));
    double u = (zipf_strata[i] + rng.UniformDouble()) / agents * total;
    j.program = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin());
    j.program = std::min(j.program, kPrograms - 1);
    j.briefcase.SetString("AGENT", "f" + std::to_string(i));
    tacoma::SiteId at = j.home;
    for (int h = 0; h < kItinerary; ++h) {
      tacoma::SiteId next = at;
      while (next == at) {
        next = static_cast<tacoma::SiteId>(rng.Uniform(sites));
      }
      // BuildGrid names sites "s<id>" in creation order.
      j.briefcase.folder("ITINERARY").PushBackString("s" + std::to_string(next));
      at = next;
    }
    double q = (strata[i] + rng.UniformDouble()) / agents;
    j.briefcase.folder("DATA").PushBackString(RandomWord(
        &rng, static_cast<size_t>(LogUniform(kMinDataBytes, kMaxDataBytes, q))));
    in.journeys.push_back(std::move(j));
  }
  return in;
}

// Each journey must leave exactly one "f<i> <sim-us>" DONE entry; its
// latency runs from the scheduled launch to that entry.
SimOutcome Check(const FleetInputs& inputs, tacoma::Kernel* kernel) {
  std::map<std::string, std::vector<double>> done_at;
  for (const std::string& entry : DoneEntries(kernel)) {
    size_t space = entry.find(' ');
    if (space != std::string::npos) {
      done_at[entry.substr(0, space)].push_back(std::stod(entry.substr(space + 1)));
    }
  }
  SimOutcome out;
  for (const Journey& j : inputs.journeys) {
    auto it = done_at.find(*j.briefcase.GetString("AGENT"));
    if (it == done_at.end() || it->second.size() != 1) {
      ++out.failed;
      continue;
    }
    out.latency_us.push_back(it->second[0] - static_cast<double>(j.launch_us));
  }
  return out;
}

}  // namespace

SimWorkload FleetWorkload(uint64_t seed, int agents) {
  auto inputs = std::make_shared<const FleetInputs>(MakeInputs(seed, agents));
  SimWorkload w;
  w.timed_hops = agents * kItinerary;
  w.journeys = agents;
  for (const Journey& j : inputs->journeys) {
    w.programs.push_back(inputs->programs[j.program]);
  }
  w.make_round = [inputs](Tracer* tracer, DiskCounters* disk) {
    tacoma::KernelOptions options;
    options.seed = inputs->kernel_seed;
    options.reliability.mode = tacoma::Reliability::kReliable;
    options.code_cache.enabled = true;
    auto round = std::make_unique<SimRound>(options, tracer, disk);
    tacoma::Kernel* kernel = round->kernel.get();
    tacoma::LinkParams link;
    link.loss = kLinkLoss;
    tacoma::BuildGrid(&kernel->net(), kGridSide, kGridSide, link);
    kernel->AdoptNetworkSites();
    round->Decorate(kCaptureLimit);
    for (const Journey& j : inputs->journeys) {
      const std::string& code = inputs->programs[j.program];
      kernel->sim().At(j.launch_us, [kernel, tracer, &j, &code] {
        Span span(tracer, Layer::kLaunch);
        (void)kernel->LaunchAgent(j.home, code, j.briefcase);
      });
    }
    return round;
  };
  w.check = [inputs](tacoma::Kernel* kernel) { return Check(*inputs, kernel); };
  return w;
}

}  // namespace perfbench
