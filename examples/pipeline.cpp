// Pipeline: a shell-style `producer | filter | consumer` run through two one-page pipes, one
// 4 KB chunk at a time: each stage runs in turn, reads its input chunk and writes its output.
//
//   $ ./pipeline [chunks=<n>] [baseline]
//
// Prints per-stage progress, then the kernel's view of what the pipeline cost: context
// switches (three per chunk), syscalls (four pipe calls per chunk), and where the simulated
// time went.

#include <cstdio>
#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/check.h"

int main(int argc, char** argv) {
  using namespace ppcmm;

  uint32_t chunks = 64;
  bool baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("chunks=", 0) == 0) {
      chunks = static_cast<uint32_t>(std::stoul(arg.substr(7)));
    } else if (arg == "baseline") {
      baseline = true;
    }
  }

  System system(MachineConfig::Ppc604(133), baseline
                                                ? OptimizationConfig::Baseline()
                                                : OptimizationConfig::AllOptimizations());
  Kernel& kernel = system.kernel();
  std::printf("running `generate | transform | sink` with %u chunks of 4 KB (%s kernel)\n\n",
              chunks, baseline ? "baseline" : "optimized");

  auto spawn = [&](const char* name) {
    const TaskId id = kernel.CreateTask(name);
    kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 32, .stack_pages = 4});
    return id;
  };
  const TaskId generate = spawn("generate");
  const TaskId transform = spawn("transform");
  const TaskId sink = spawn("sink");
  const uint32_t p1 = kernel.CreatePipe();
  const uint32_t p2 = kernel.CreatePipe();

  // Each pipe holds one page, so every call moves a whole chunk: write into an empty pipe,
  // read from a full one. The stages run in turn by explicit switches, as in LmBench's pipe
  // benchmarks.
  const auto move_chunk = [](uint32_t moved, const char* what) {
    PPCMM_CHECK_MSG(moved == kPageSize, what << " moved " << moved << " of " << kPageSize);
  };
  uint64_t bytes = 0;
  for (uint32_t i = 0; i < chunks; ++i) {
    kernel.SwitchTo(generate);
    if (i == 0) {
      kernel.UserTouchRange(EffAddr(kUserDataBase), kPageSize, 32, AccessKind::kStore);
    }
    kernel.UserExecute(512);  // produce the chunk
    move_chunk(kernel.PipeWrite(p1, EffAddr(kUserDataBase), kPageSize), "generate write");

    kernel.SwitchTo(transform);
    move_chunk(kernel.PipeRead(p1, EffAddr(kUserDataBase), kPageSize), "transform read");
    kernel.UserExecute(1024);  // transform in place
    kernel.UserTouchRange(EffAddr(kUserDataBase), kPageSize, 64, AccessKind::kStore);
    move_chunk(kernel.PipeWrite(p2, EffAddr(kUserDataBase), kPageSize), "transform write");

    kernel.SwitchTo(sink);
    move_chunk(kernel.PipeRead(p2, EffAddr(kUserDataBase + 0x4000), kPageSize), "sink read");
    kernel.UserExecute(256);  // consume
    bytes += kPageSize;
  }
  std::printf("  generate: done (%u chunks)\n", chunks);
  std::printf("  transform: done\n");
  std::printf("  sink: received %llu bytes\n", static_cast<unsigned long long>(bytes));

  const HwCounters& counters = system.counters();
  const double total_us = system.ElapsedMicros();
  const double mb = static_cast<double>(chunks) * kPageSize / (1024.0 * 1024.0);
  std::printf("\npipeline moved %.2f MB in %.0f us (%.1f MB/s end to end)\n", mb, total_us,
              mb * 1e6 / total_us / 1.048576 * 1.048576);
  std::printf("context switches: %llu (three per chunk)\n",
              static_cast<unsigned long long>(counters.context_switches));
  std::printf("syscalls: %llu, page faults: %llu, dTLB misses: %llu\n",
              static_cast<unsigned long long>(counters.syscalls),
              static_cast<unsigned long long>(counters.page_faults),
              static_cast<unsigned long long>(counters.dtlb_misses));
  std::printf("\ntry `%s baseline` to feel the unoptimized kernel.\n", argv[0]);
  return 0;
}
