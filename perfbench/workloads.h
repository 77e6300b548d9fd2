// The benchmark's workloads. Each runs one episode — set-up plus a
// measured phase at a fixed amount of work — in this single host thread,
// and derives every input from `seed`.
#pragma once

#include <cstdint>

#include "harness.h"

namespace perfbench {

using WorkloadFn = Outcome (*)(std::uint64_t seed, bool traced);

struct WorkloadSpec {
  const char* name;
  WorkloadFn run;
};

Outcome RunKvSlo(std::uint64_t seed, bool traced);
Outcome RunSlmRestart(std::uint64_t seed, bool traced);
Outcome RunWideStream(std::uint64_t seed, bool traced);

inline constexpr WorkloadSpec kWorkloads[] = {
    {"kv-slo", RunKvSlo},
    {"slm-restart", RunSlmRestart},
    {"wide-stream", RunWideStream},
};

}  // namespace perfbench
