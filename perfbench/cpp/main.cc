// perfbench_agent: runs one workload of the agent-hop benchmark and prints
// its result as the last line of stdout:
//
//   perfbench_agent --workload hop|fleet|daemon --seed N --seconds S
//                   --trace 0|1 [--work-dir DIR] [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md).  Human-readable notes and failed checks go to
// stderr; a failed check makes the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

// Variables that change the program being measured (CodeCache default, the
// bytecode VM) or add I/O to every hop (logging).
constexpr const char* kPinnedEnv[] = {"TACOMA_CODE_CACHE", "TACOMA_TACL_VM",
                                      "TACOMA_LOG_LEVEL"};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload hop|fleet|daemon --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans-out PATH]\n",
               argv0);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.workload.empty() || !(options.seconds > 0)) {
    return Usage(argv[0]);
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set and would change what is "
                   "measured; unset it\n",
                   name);
      return 2;
    }
  }

  perfbench::Report report;
  if (options.workload == "hop") {
    report = perfbench::RunSimWorkload(
        options, perfbench::HopWorkload(options.seed, perfbench::kHopTimedHops));
  } else if (options.workload == "fleet") {
    report = perfbench::RunSimWorkload(
        options, perfbench::FleetWorkload(options.seed, perfbench::kFleetAgents));
  } else if (options.workload == "daemon") {
    report = perfbench::RunDaemon(options);
  } else {
    return Usage(argv[0]);
  }

  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Fail("metric " + m.name + " is not a finite number");
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ",") + JsonString(m.name) +
               ":{\"value\":" + value + ",\"unit\":" + JsonString(m.unit) + "}";
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct ? 0 : 1;
}
