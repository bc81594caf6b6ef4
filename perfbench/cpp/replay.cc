// Per-call replays of public layer functions (see harness.h).  Each replay
// walks its whole input list once per repetition and reports the median over
// repetitions of the mean cost per call.
#include <algorithm>

#include "core/codecache.h"
#include "core/place.h"
#include "crypto/sha256.h"
#include "harness.h"
#include "serial/encoder.h"
#include "tacl/analyze.h"
#include "tacl/interp.h"

namespace perfbench {
namespace {

constexpr int kRepetitions = 5;
// Bounds each replay's input list so replays stay a small part of a run.
constexpr size_t kMaxInputs = 4000;

// Keeps replayed results observable so the calls are not optimised away.
volatile uint64_t g_sink = 0;

template <typename Body>
double MicrosPerCall(size_t n, Body&& body) {
  if (n == 0) {
    return 0;
  }
  std::vector<double> means;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    uint64_t sink = 0;
    int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      sink += body(i);
    }
    int64_t elapsed = NowNs() - start;
    g_sink = g_sink + sink;
    means.push_back(NsToUs(elapsed) / static_cast<double>(n));
  }
  return Median(std::move(means));
}

// Positions `dec` at the briefcase of a kernel DATA frame: kind (1), transfer
// id, flags, contact, and — for CODE-stub frames (flag bit 2) — the digest.
bool SkipDataHeader(tacoma::Decoder* dec) {
  uint8_t kind = 0;
  uint64_t id = 0;
  uint8_t flags = 0;
  std::string contact;
  if (!dec->GetU8(&kind) || kind != 1 || !dec->GetU64(&id) || !dec->GetU8(&flags) ||
      !dec->GetString(&contact)) {
    return false;
  }
  tacoma::SharedBytes digest;
  return (flags & (1 << 2)) == 0 || dec->GetSharedBytes(&digest);
}

tacoma::Folder CodeFolder(const std::string& program) {
  tacoma::Folder code;
  code.PushBackString(program);
  return code;
}

tacoma::SharedBytes Encoded(const tacoma::Folder& folder) {
  tacoma::Encoder enc;
  folder.Encode(&enc);
  return enc.TakeShared();
}

}  // namespace

double MeanDataFrameBytes(const std::vector<SentFrame>& frames) {
  double bytes = 0;
  size_t count = 0;
  for (const SentFrame& f : frames) {
    tacoma::Decoder dec(f.payload);
    if (SkipDataHeader(&dec)) {
      bytes += static_cast<double>(f.payload.size());
      ++count;
    }
  }
  return count == 0 ? 0 : bytes / static_cast<double>(count);
}

void ReplayLayers(tacoma::Kernel* kernel, tacoma::Place* place,
                  const std::vector<SentFrame>& frames,
                  const std::vector<std::string>& programs, PerLayer* out) {
  // Routing: one shortest-path query per captured send.
  size_t route_n = std::min(frames.size(), kMaxInputs);
  out->sim_route_us = MicrosPerCall(route_n, [&](size_t i) {
    return kernel->net().HopCount(frames[i].from, frames[i].to).value_or(0);
  });

  // Frame codec: decode and re-encode the captured DATA frames.
  out->serial_frame_bytes = MeanDataFrameBytes(frames);
  std::vector<tacoma::SharedBytes> data_frames;
  std::vector<tacoma::Briefcase> briefcases;
  for (const SentFrame& f : frames) {
    tacoma::Decoder dec(f.payload);
    if (briefcases.size() == kMaxInputs || !SkipDataHeader(&dec)) {
      continue;  // Enough inputs, or an ack, nack or NeedCode control frame.
    }
    auto bc = tacoma::Briefcase::Decode(&dec);
    if (bc.ok()) {
      data_frames.push_back(f.payload);
      briefcases.push_back(std::move(bc).value());
    }
  }
  out->serial_decode_us = MicrosPerCall(briefcases.size(), [&](size_t i) {
    tacoma::Decoder dec(data_frames[i]);
    SkipDataHeader(&dec);
    return static_cast<uint64_t>(tacoma::Briefcase::Decode(&dec).ok());
  });
  out->serial_encode_us = MicrosPerCall(briefcases.size(), [&](size_t i) {
    tacoma::Encoder enc;
    briefcases[i].Encode(&enc);
    return static_cast<uint64_t>(enc.size());
  });

  // Programs, in launch order (so popular CODE weighs as often as it ran).
  size_t prog_n = std::min(programs.size(), kMaxInputs);
  std::vector<tacoma::SharedBytes> encoded_code;
  for (size_t i = 0; i < prog_n; ++i) {
    encoded_code.push_back(Encoded(CodeFolder(programs[i])));
  }
  out->crypto_sha256_us = MicrosPerCall(prog_n, [&](size_t i) {
    return static_cast<uint64_t>(tacoma::Sha256::Hash(encoded_code[i])[0]);
  });

  // CodeCache hit path: the lookup re-hashes the entry to verify it.
  tacoma::CodeCache cache(prog_n + 1);
  std::vector<std::string> digests;
  for (size_t i = 0; i < prog_n; ++i) {
    digests.push_back(tacoma::DigestToHex(tacoma::Sha256::Hash(encoded_code[i])));
    cache.Put(digests[i], CodeFolder(programs[i]), encoded_code[i]);
  }
  out->codecache_get_us = MicrosPerCall(prog_n, [&](size_t i) {
    return static_cast<uint64_t>(cache.Get(digests[i]) != nullptr);
  });

  // Interpreter build as a place does it per activation (without module
  // binders, which only the place can reach).
  tacoma::Briefcase scratch_bc;
  tacoma::Activation activation;
  activation.place = place;
  activation.briefcase = &scratch_bc;
  out->tacl_interp_build_us = MicrosPerCall(200, [&](size_t) {
    tacoma::tacl::Interp interp;
    interp.set_step_limit(kernel->options().step_limit);
    interp.set_context(&activation);
    interp.set_output([](const std::string&) {});
    tacoma::BindAgentPrimitives(&interp, &activation);
    return static_cast<uint64_t>(interp.CommandNames().size());
  });

  tacoma::tacl::Interp bound;
  tacoma::BindAgentPrimitives(&bound, &activation);
  out->tacl_compile_us = MicrosPerCall(prog_n, [&](size_t i) {
    tacoma::Status error = tacoma::OkStatus();
    return static_cast<uint64_t>(bound.CompileUnit(programs[i], &error) != nullptr);
  });
  out->admission_analyze_us = MicrosPerCall(prog_n, [&](size_t i) {
    return static_cast<uint64_t>(
        tacoma::tacl::Analyze(programs[i], tacoma::AgentAnalyzerOptions(bound))
            .commands_analyzed);
  });

  // Warm admission check: the place's cached summary for each program.
  for (size_t i = 0; i < prog_n; ++i) {
    (void)place->CheckAdmission(programs[i]);
  }
  out->admission_check_us = MicrosPerCall(prog_n, [&](size_t i) {
    return static_cast<uint64_t>(place->CheckAdmission(programs[i]).violations.size());
  });
}

}  // namespace perfbench
