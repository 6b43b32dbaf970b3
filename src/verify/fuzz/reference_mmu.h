// The architectural reference oracle of the differential fuzzer.
//
// A deliberately slow, obviously-correct model of what the paper's MMU tricks must
// preserve: which pages each task can reach, with what permissions, backed by what content,
// and how many faults each access architecturally takes. It shares zero code with src/mmu/
// and src/kernel/ — address spaces are per-page maps (ReferenceVmaModel), page content is a
// 32-bit token per page, and there is no TLB, no HTAB, no VSID, no flush strategy at all.
// That absence is the point: §7's zombie PTEs, deferred C bits, BAT rewrites and reload
// strategies are exactly the state the oracle says must be *invisible*.
//
// The oracle consumes the same FuzzOp stream as the real System. Plan() interprets an op
// against the current oracle state (operands are taken modulo whatever exists — see
// op_stream.h), applies it to the oracle, and returns an ExpectedStep telling the
// differential runner what to execute against the real kernel and what to assert:
// fault counts, returned start pages, translated frames, and memory tokens.
//
// See DESIGN.md §11 for the full semantics contract ("architecturally equal").

#ifndef PPCMM_SRC_VERIFY_FUZZ_REFERENCE_MMU_H_
#define PPCMM_SRC_VERIFY_FUZZ_REFERENCE_MMU_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/addr.h"
#include "src/verify/fuzz/op_stream.h"
#include "src/verify/fuzz/reference_vma.h"

namespace ppcmm {

// The only configuration the oracle is allowed to know about. Everything else in
// OptimizationConfig must be architecturally invisible.
struct RefArchConfig {
  // §5.1 extension: MapFramebuffer() also programs the user-visible DBAT.
  bool framebuffer_bat = false;
  // Eager C-bit marking, which lazy_context_flush implies: decides whether a Linux dirty
  // bit may exist without an architectural store (over-reporting, the §7 trade) or must
  // imply one.
  bool eager_dirty_marking = false;
  uint32_t num_frames = 8192;  // 32 MB
  // Simulated CPUs. The oracle has no TLBs, so all it models is per-CPU current tasks:
  // which task the spotlight finds on each CPU, and that a task never runs on two at once.
  // Everything the per-CPU TLBs cache must remain architecturally invisible.
  uint32_t ncpus = 1;
};

// Region tags stored in RefVmaAttr::kind.
enum class RefRegionKind : uint8_t { kText = 1, kData, kStack, kMmap, kFb };

// One architecturally-present page of a task.
struct RefPage {
  bool writable = false;
  bool cow = false;     // write-protected only because the frame is shared post-fork
  bool stored = false;  // an architectural store has hit this page since it was installed
  uint32_t token = 0;   // expected content of the page's first word (0 = demand-zero)
};

// One task, as the oracle sees it.
struct RefTask {
  uint32_t id = 0;
  ReferenceVmaModel vmas;
  std::map<uint32_t, RefPage> pages;  // page number -> state; == the present PTEs
  bool fb_mapped = false;             // MapFramebuffer() done (and not wiped by exec)
};

// What the differential runner must do for one op, and what it must assert afterwards.
struct ExpectedStep {
  bool skip = false;
  const char* skip_reason = "";
  FuzzOpKind kind = FuzzOpKind::kTouch;

  // kTouch / kFbTouch
  uint32_t page = 0;    // effective page number touched
  uint32_t offset = 0;  // byte offset of the touch within the page
  AccessKind access = AccessKind::kLoad;
  uint32_t expect_page_faults = 0;  // delta of the current task's obs.page_faults
  uint32_t expect_cow_faults = 0;   // delta of the current task's obs.cow_faults
  bool write_token = false;         // store: write `token` to the page's first word
  bool check_token = false;         // load: the page's first word must equal `token`
  uint32_t token = 0;
  bool expect_exact_frame = false;  // framebuffer pages translate to a fixed frame
  uint32_t expect_frame = 0;
  bool via_bat = false;  // the access resolves through the framebuffer DBAT (no PTE)

  // kMmap / kMmapFixed / kMunmap / kFbMap / kTlbie (start_page = page to invalidate)
  uint32_t start_page = 0;  // mmap/fb_map: the value the kernel call must return
  uint32_t page_count = 0;
  bool fixed = false;

  // kFork (expected child id) / kExit / kExec / kSwitch
  uint32_t target_task = 0;
  uint32_t exec_text = 0, exec_data = 0, exec_stack = 0;

  // kCpuSwitch: hop to target_cpu; when target_task != 0 the CPU was idle and the runner
  // must also switch that task in there.
  uint32_t target_cpu = 0;

  // kFbBatToggle
  bool fb_bat_after = false;

  // kIdle
  uint32_t idle_cycles = 0;

  // kTouchRun (also uses page/offset/access and the fault deltas; page_count pages)
  uint32_t run_stride = 0;           // bytes between accesses
  uint32_t run_count = 0;            // accesses in the run
  std::vector<uint32_t> run_tokens;  // per page: expected (load) / to-write (store)
};

// The oracle proper.
class ReferenceMmu {
 public:
  // Framebuffer aperture, in effective page numbers.
  static constexpr uint32_t kFbStartPage = 0x80000;
  static constexpr uint32_t kFbPages = 512;
  // Structural caps that make resource exhaustion unreachable (the fuzzer checks
  // architecture, not OOM recovery — the torture harness owns that).
  static constexpr uint32_t kMaxLiveTasks = 5;
  static constexpr uint32_t kVmaPageBudget = 2500;  // non-framebuffer VMA pages, all tasks

  explicit ReferenceMmu(const RefArchConfig& config);

  // Installs the boot task: `task_id` must be the TaskId the kernel's CreateTask returned
  // (the oracle mirrors the kernel's monotonic id counter from here on).
  void Boot(uint32_t task_id, uint32_t text_pages, uint32_t data_pages, uint32_t stack_pages);

  // Interprets `op` against the current state, applies it, and returns what the runner must
  // execute and assert. `op_index` feeds the store-token derivation.
  ExpectedStep Plan(const FuzzOp& op, uint32_t op_index);

  // ---- inspection (the runner's full cross-check) ----

  const std::map<uint32_t, RefTask>& tasks() const { return tasks_; }
  uint32_t current() const { return current_; }
  uint32_t current_cpu() const { return current_cpu_; }
  // Task id running on `cpu` (0 = idle). Mirrors Kernel::CurrentOn.
  uint32_t current_on(uint32_t cpu) const { return cpu_current_[cpu]; }
  uint32_t ncpus() const { return static_cast<uint32_t>(cpu_current_.size()); }
  bool fb_bat_on() const { return fb_bat_on_; }
  uint32_t fb_first_frame() const { return fb_first_frame_; }
  // Expected content of the first word of framebuffer page `idx` (global: the aperture's
  // frames are physically shared by every mapping and survive exec/exit).
  uint32_t fb_token(uint32_t idx) const { return fb_content_[idx]; }
  static bool IsFbPage(uint32_t page) {
    return page >= kFbStartPage && page < kFbStartPage + kFbPages;
  }
  const RefArchConfig& config() const { return config_; }

 private:
  static uint32_t TokenFor(uint32_t op_index, uint32_t task_id, uint32_t page) {
    return (op_index * 2654435761u) ^ (task_id * 97u) ^ page ^ 0x5EEDu;
  }
  RefTask& Current() { return tasks_.at(current_); }
  // True when `task_id` is current on a CPU other than current_cpu_: such a task cannot be
  // switched in, exec'd, or scheduled elsewhere. Always false at ncpus=1.
  bool RunningElsewhere(uint32_t task_id) const {
    for (uint32_t cpu = 0; cpu < cpu_current_.size(); ++cpu) {
      if (cpu != current_cpu_ && cpu_current_[cpu] == task_id) {
        return true;
      }
    }
    return false;
  }
  // Non-framebuffer VMA pages of one task / of every task (the budget metric).
  static uint32_t NonFbVmaPages(const RefTask& t);
  uint32_t TotalUserPages() const;
  void InstallImage(RefTask& t, uint32_t text, uint32_t data, uint32_t stack);

  // Per-kind planners (each both fills `step` and applies the op to the oracle).
  void PlanTouch(const FuzzOp& op, uint32_t op_index, ExpectedStep& step);
  void PlanTouchRun(const FuzzOp& op, uint32_t op_index, ExpectedStep& step);
  void PlanMmap(const FuzzOp& op, ExpectedStep& step);
  void PlanMmapFixed(const FuzzOp& op, ExpectedStep& step);
  void PlanMunmap(const FuzzOp& op, ExpectedStep& step);
  void PlanFork(ExpectedStep& step);
  void PlanExit(const FuzzOp& op, ExpectedStep& step);
  void PlanExec(const FuzzOp& op, ExpectedStep& step);
  void PlanSwitch(const FuzzOp& op, ExpectedStep& step);
  void PlanCpuSwitch(const FuzzOp& op, ExpectedStep& step);
  void PlanTlbie(const FuzzOp& op, ExpectedStep& step);
  void PlanFbMap(ExpectedStep& step);
  void PlanFbTouch(const FuzzOp& op, uint32_t op_index, ExpectedStep& step);

  RefArchConfig config_;
  std::map<uint32_t, RefTask> tasks_;
  uint32_t current_ = 0;
  uint32_t current_cpu_ = 0;
  std::vector<uint32_t> cpu_current_;  // task id per CPU (0 = idle); [current_cpu_]==current_
  uint32_t next_task_id_ = 1;  // mirrors the kernel's monotonic CreateTask counter
  bool fb_bat_on_ = false;
  uint32_t fb_first_frame_ = 0;
  std::vector<uint32_t> fb_content_;  // expected first word of each aperture page
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_FUZZ_REFERENCE_MMU_H_
