// Task structure: the mini-kernel's process descriptor.

#ifndef PPCMM_SRC_KERNEL_TASK_H_
#define PPCMM_SRC_KERNEL_TASK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/kernel/mm.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

// Process identifier.
struct TaskId {
  uint32_t value = 0;
  constexpr auto operator<=>(const TaskId&) const = default;
};

// Per-task observability counters: how much MMU work each address space caused. Maintained
// unconditionally (plain increments on already-taken paths); the MetricsRegistry exports
// them as task.<id>.* metrics.
struct TaskObsCounters {
  uint64_t page_faults = 0;  // demand + file-backed faults taken while this task ran
  uint64_t cow_faults = 0;   // copy-on-write breaks
  uint64_t switches_in = 0;  // times this task was switched to
};

// One process.
struct Task {
  TaskId id;
  std::string name;
  std::unique_ptr<Mm> mm;
  TaskObsCounters obs;

  // Physical address of this task's task-struct in the kernel misc area; the first load of
  // every PTE-tree walk (the PGD pointer) is charged here, and context switches touch it.
  PhysAddr task_struct_pa;

  // Simple program-behaviour state used by the workloads: the current user program counter
  // page and stack page (so instruction fetches and stack touches are realistic).
  uint32_t text_page = 0;   // effective page number of the code being "executed"
  uint32_t stack_page = 0;  // effective page number of the top of stack
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_TASK_H_
