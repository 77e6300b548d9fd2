// Tunables for the simulated TCP implementation.
//
// Defaults approximate the Linux 2.4-era stack the paper used: 1460-byte
// MSS, 200 ms minimum RTO, exponential backoff, 64 KiB socket buffers.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace cruz::tcp {

struct TcpConfig {
  std::uint32_t mss = 1460;
  std::size_t send_buffer_capacity = 64 * 1024;
  std::size_t recv_buffer_capacity = 64 * 1024;

  // RFC 6298-style retransmission timeout bounds. Linux clamps the minimum
  // RTO at 200 ms, which is what produces the ~100 ms communication gap
  // after a checkpoint in the paper's Fig. 6.
  DurationNs initial_rto = 1 * kSecond;
  DurationNs min_rto = 200 * kMillisecond;
  DurationNs max_rto = 60 * kSecond;
  DurationNs rto_granularity = 1 * kMillisecond;

  int max_retransmits = 15;
  int max_syn_retransmits = 6;

  DurationNs time_wait_duration = 10 * kSecond;

  // Initial congestion window in segments (classic Linux: ~3 MSS).
  std::uint32_t initial_cwnd_segments = 3;

  // Resume-time kick (TcpConnection::Kick): when a Cruz drop point
  // discarded a connection's segment, the resume point resends the lost
  // flight and re-ACKs at once instead of waiting out min_rto. Off, the
  // stack recovers by RTO only, which is the paper's Fig. 6 behaviour.
  bool resume_kick = true;
};

}  // namespace cruz::tcp
