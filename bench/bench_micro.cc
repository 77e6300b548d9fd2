// Micro-benchmarks (google-benchmark) for the substrates the experiments
// sit on: checkpoint image codec, TCP connection machinery, sparse
// memory, CRC32, and single-node capture/restore.
#include <benchmark/benchmark.h>

#include "apps/programs.h"
#include "ckpt/engine.h"
#include "ckpt/page_codec.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "cruz/cluster.h"
#include "tcp/connection.h"

namespace {

using namespace cruz;

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

// Page contents for the codec benches: 0 = all zero, 1 = half random and
// half one repeated byte, 2 = random. Kind 2 and the slm ballast's noise
// pages are what the RLE bail-out skips; kind 1 also stores raw.
Bytes CodecPage(std::int64_t kind, Rng& rng) {
  Bytes page(os::kPageSize, 0);
  std::size_t noise = kind == 0 ? 0 : kind == 1 ? page.size() / 2
                                                : page.size();
  for (std::size_t i = 0; i < noise; ++i) {
    page[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return page;
}

void BM_EncodePage(benchmark::State& state) {
  Rng rng(5);
  Bytes page = CodecPage(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::EncodePage(page, ckpt::PageCodec::kRle));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(os::kPageSize));
}
BENCHMARK(BM_EncodePage)->ArgName("kind")->Arg(0)->Arg(1)->Arg(2);

void BM_MemorySparseWrite(benchmark::State& state) {
  Bytes chunk(4096, 0x5A);
  for (auto _ : state) {
    os::Memory mem;
    for (int i = 0; i < state.range(0); ++i) {
      mem.WriteBytes(static_cast<std::uint64_t>(i) * os::kPageSize, chunk);
    }
    benchmark::DoNotOptimize(mem.PageCount());
  }
}
BENCHMARK(BM_MemorySparseWrite)->Arg(64)->Arg(512);

// Typed accesses through the page layer's TLB. pattern 0 is one slm
// compute step: 128 ReadF64 from each of the grid's first row (page
// 0x400), its bottom row (0x407) and the halo (0x300), then 128 WriteF64
// to each grid row. pattern 1 sweeps one ReadU64 over 1,024 resident
// pages, so nearly every access misses the TLB and walks the page map.
void BM_MemoryTypedAccess(benchmark::State& state) {
  constexpr std::uint64_t kGrid = 0x400000;
  constexpr std::uint64_t kBottom = kGrid + 31 * 1024;
  constexpr std::uint64_t kHalo = 0x300000;
  constexpr std::uint64_t kSweepPages = 1024;
  const bool sweep = state.range(0) == 1;
  os::Memory mem;
  if (sweep) {
    for (std::uint64_t p = 0; p < kSweepPages; ++p) {
      mem.WriteU64(p * os::kPageSize, p);
    }
  } else {
    for (std::uint64_t addr : {kGrid, kBottom, kHalo}) {
      for (std::uint64_t c = 0; c < 128; ++c) mem.WriteF64(addr + c * 8, 1.0);
    }
  }
  std::int64_t accesses = 0;
  for (auto _ : state) {
    if (sweep) {
      std::uint64_t sum = 0;
      for (std::uint64_t p = 0; p < kSweepPages; ++p) {
        sum += mem.ReadU64(p * os::kPageSize + 8 * (p & 7));
      }
      benchmark::DoNotOptimize(sum);
      accesses += kSweepPages;
      continue;
    }
    double row0[128], bottom[128], halo[128];
    for (std::uint64_t c = 0; c < 128; ++c) {
      row0[c] = mem.ReadF64(kGrid + c * 8);
      bottom[c] = mem.ReadF64(kBottom + c * 8);
      halo[c] = mem.ReadF64(kHalo + c * 8);
    }
    for (std::uint64_t c = 0; c < 128; ++c) {
      mem.WriteF64(kGrid + c * 8, 0.5 * (row0[c] + halo[c]));
      mem.WriteF64(kBottom + c * 8, 0.5 * (bottom[c] + row0[c]));
    }
    accesses += 5 * 128;
  }
  state.SetItemsProcessed(accesses);
}
BENCHMARK(BM_MemoryTypedAccess)->ArgName("pattern")->Arg(0)->Arg(1);

void BM_TcpSegmentCodec(benchmark::State& state) {
  tcp::TcpSegment seg;
  seg.src_port = 1;
  seg.dst_port = 2;
  seg.seq = 12345;
  seg.ack = 67890;
  seg.ack_flag = true;
  seg.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    Bytes wire = seg.Encode();
    benchmark::DoNotOptimize(tcp::TcpSegment::Decode(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TcpSegmentCodec)->Arg(64)->Arg(1460);

// Simulated TCP throughput: how much simulated data the whole
// stack (program -> syscalls -> TCP -> switch) moves per wall-second.
void BM_SimulatedStreamTransfer(benchmark::State& state) {
  for (auto _ : state) {
    ClusterConfig config;
    config.num_nodes = 2;
    Cluster cluster(config);
    os::PodId rp = cluster.CreatePod(1, "r");
    net::Ipv4Address rip = cluster.pods(1).Find(rp)->ip;
    cluster.pods(1).SpawnInPod(rp, "cruz.stream_receiver",
                               apps::StreamReceiverArgs(9100));
    cluster.sim().RunFor(5 * kMillisecond);
    os::PodId sp = cluster.CreatePod(0, "s");
    cluster.pods(0).SpawnInPod(
        sp, "cruz.stream_sender",
        apps::StreamSenderArgs(
            rip, 9100, static_cast<std::uint64_t>(state.range(0))));
    cluster.sim().RunFor(30 * kSecond);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulatedStreamTransfer)->Arg(1 << 20)->Unit(
    benchmark::kMillisecond);

// Image serialize + deserialize for a pod with a grid-sized process.
// Args: pages, ballast. Ballast 0 is one constant page repeated, stored
// raw (version 1); ballast 1 is the slm workload's mix (alternate pages
// one random byte repeated or random noise), stored compressed.
void BM_CheckpointImageCodec(benchmark::State& state) {
  ClusterConfig config;
  config.num_nodes = 1;
  Cluster cluster(config);
  os::PodId pod = cluster.CreatePod(0, "job");
  cluster.pods(0).SpawnInPod(pod, "cruz.counter",
                             apps::CounterArgs(1u << 30));
  cluster.sim().RunFor(kMillisecond);
  // Give the process a multi-megabyte address space.
  os::Pid real = cluster.pods(0).ToRealPid(pod, 1);
  os::Process* proc = cluster.node(0).os().FindProcess(real);
  const bool slm_ballast = state.range(1) != 0;
  Rng rng(9);
  for (int i = 0; i < state.range(0); ++i) {
    Bytes page(os::kPageSize, 0x3C);
    if (slm_ballast) {
      page = i % 2 == 0 ? Bytes(os::kPageSize, static_cast<std::uint8_t>(
                                                   rng.NextBelow(256)))
                        : CodecPage(2, rng);
    }
    proc->memory().InstallPage(0x1000 + static_cast<std::uint64_t>(i),
                               page);
  }
  ckpt::PodCheckpoint ck =
      ckpt::CheckpointEngine::CapturePod(cluster.pods(0), pod);
  for (auto _ : state) {
    Bytes image = ck.Serialize(/*compress=*/slm_ballast);
    benchmark::DoNotOptimize(ckpt::PodCheckpoint::Deserialize(image));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * os::kPageSize);
}
BENCHMARK(BM_CheckpointImageCodec)
    ->ArgNames({"pages", "ballast"})
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// Full single-node capture+restore cycle.
void BM_CaptureRestoreCycle(benchmark::State& state) {
  for (auto _ : state) {
    ClusterConfig config;
    config.num_nodes = 1;
    Cluster cluster(config);
    os::PodId pod = cluster.CreatePod(0, "job");
    cluster.pods(0).SpawnInPod(pod, "cruz.counter",
                               apps::CounterArgs(1u << 30));
    cluster.sim().RunFor(10 * kMillisecond);
    ckpt::PodCheckpoint ck =
        ckpt::CheckpointEngine::CapturePod(cluster.pods(0), pod);
    cluster.pods(0).DestroyPod(pod);
    os::PodId restored =
        ckpt::CheckpointEngine::RestorePod(cluster.pods(0), ck);
    ckpt::CheckpointEngine::ResumePod(cluster.pods(0), restored);
    cluster.sim().RunFor(kMillisecond);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_CaptureRestoreCycle)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
