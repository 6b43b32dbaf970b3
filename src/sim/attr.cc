#include "src/sim/attr.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ppcmm {

const char* AttrCauseName(AttrCause cause) {
  switch (cause) {
    case AttrCause::kInstruction: return "instruction";
    case AttrCause::kItlbReloadHw: return "itlb_reload_hw";
    case AttrCause::kItlbReloadSwHtab: return "itlb_reload_sw_htab";
    case AttrCause::kItlbReloadSwDirect: return "itlb_reload_sw_direct";
    case AttrCause::kDtlbReloadHw: return "dtlb_reload_hw";
    case AttrCause::kDtlbReloadSwHtab: return "dtlb_reload_sw_htab";
    case AttrCause::kDtlbReloadSwDirect: return "dtlb_reload_sw_direct";
    case AttrCause::kHashSearchPrimary: return "hash_primary";
    case AttrCause::kHashSearchSecondary: return "hash_secondary";
    case AttrCause::kHashSearchMiss: return "hash_miss";
    case AttrCause::kDirtyBitUpdate: return "dirty_bit_update";
    case AttrCause::kFaultAnon: return "fault_anon";
    case AttrCause::kFaultFile: return "fault_file";
    case AttrCause::kFaultShm: return "fault_shm";
    case AttrCause::kFaultIo: return "fault_io";
    case AttrCause::kCowFault: return "cow_fault";
    case AttrCause::kCowCopy: return "cow_copy";
    case AttrCause::kRangeFlushEager: return "range_flush_eager";
    case AttrCause::kContextFlushLazy: return "context_flush_lazy";
    case AttrCause::kVsidRollover: return "vsid_rollover";
    case AttrCause::kIdleLoop: return "idle_loop";
    case AttrCause::kIdleReclaim: return "idle_reclaim";
    case AttrCause::kIdleZero: return "idle_zero";
    case AttrCause::kContextSwitch: return "context_switch";
    case AttrCause::kSyscall: return "syscall";
    case AttrCause::kFileIo: return "file_io";
    case AttrCause::kPipe: return "pipe";
    case AttrCause::kFork: return "fork";
    case AttrCause::kExec: return "exec";
    case AttrCause::kExit: return "exit";
    case AttrCause::kTlbShootdown: return "tlb_shootdown";
    case AttrCause::kNumCauses: break;
  }
  return "invalid";
}

const char* AttrEventName(const AttrEvent& event) {
  switch (event.kind) {
    case AttrEventKind::kScope: return AttrCauseName(event.cause);
    case AttrEventKind::kFaultInjected: return "fault_injected";
    case AttrEventKind::kOomRollback: return "oom_rollback";
  }
  return "invalid";
}

void CycleLedger::SetEnabled(bool enabled) {
  if (enabled == enabled_) {
    return;
  }
  if (enabled) {
    if (recorder_ == nullptr) {
      recorder_ = std::make_unique<Recorder>();
    }
    // (Re)anchor the cached iterators: Clear() or first enable may have invalidated them.
    CellKey base;
    base.task = task_;
    base_cell_ = cells_.try_emplace(base, 0).first;
    if (depth_ == 0) {
      current_ = base_cell_;
    } else {
      CellKey key;
      key.path = path_;
      key.task = task_;
      current_ = cells_.try_emplace(key, 0).first;
    }
  }
  enabled_ = enabled;
}

void CycleLedger::Clear() {
  cells_.clear();
  total_ = 0;
  events_recorded_ = 0;
  if (recorder_ != nullptr) {
    recorder_->latency = {};
  }
  // Scope stack survives (open CycleScopes still reference it); re-anchor if live.
  if (enabled_) {
    enabled_ = false;
    SetEnabled(true);
  }
}

void CycleLedger::Push(AttrCause cause) {
  PPCMM_CHECK_MSG(depth_ < kMaxDepth, "attribution scope stack overflow");
  path_[depth_] = static_cast<uint8_t>(static_cast<uint8_t>(cause) + 1u);
  CellKey key;
  key.path = path_;
  key.task = task_;
  Frame& frame = frames_[depth_];
  frame.cause = cause;
  frame.cell = cells_.try_emplace(key, 0).first;
  frame.entry_cycles = frame.cell->second;
  current_ = frame.cell;
  ++depth_;
}

void CycleLedger::Pop(uint64_t end_cycle, uint64_t elapsed_cycles) {
  if (depth_ == 0) {
    return;  // scope outlived an enable/disable toggle; nothing to unwind
  }
  --depth_;
  const Frame& frame = frames_[depth_];
  recorder_->latency[static_cast<uint8_t>(frame.cause)].Record(elapsed_cycles);
  NextEvent() = AttrEvent{.end_cycle = end_cycle,
                          .cycles = elapsed_cycles,
                          .task = task_,
                          .cause = frame.cause,
                          .depth = static_cast<uint8_t>(depth_ + 1),
                          .cpu = static_cast<uint8_t>(cpu_)};
  path_[depth_] = 0;
  // The parent frame's cell iterator is still valid (map nodes are stable), but the task
  // may have changed inside the scope; charges belong to the task that is current *now*.
  if (depth_ == 0) {
    current_ = base_cell_;
  } else if (frames_[depth_ - 1].cell->first.task == task_) {
    current_ = frames_[depth_ - 1].cell;
  } else {
    CellKey key;
    key.path = path_;
    key.task = task_;
    current_ = cells_.try_emplace(key, 0).first;
  }
}

void CycleLedger::Rebind(AttrCause cause) {
  if (depth_ == 0) {
    return;
  }
  Frame& frame = frames_[depth_ - 1];
  if (frame.cause == cause) {
    return;
  }
  const uint64_t moved = frame.cell->second - frame.entry_cycles;
  frame.cell->second = frame.entry_cycles;
  path_[depth_ - 1] = static_cast<uint8_t>(static_cast<uint8_t>(cause) + 1u);
  CellKey key;
  key.path = path_;
  key.task = task_;
  frame.cause = cause;
  frame.cell = cells_.try_emplace(key, 0).first;
  frame.entry_cycles = frame.cell->second;
  frame.cell->second += moved;
  current_ = frame.cell;
}

void CycleLedger::RecordInstant(AttrEventKind kind, uint64_t cycle) {
  if (!enabled_) {
    return;
  }
  NextEvent() = AttrEvent{
      .end_cycle = cycle, .task = task_, .cpu = static_cast<uint8_t>(cpu_), .kind = kind};
}

void CycleLedger::SetCurrentTask(uint32_t task) {
  if (task == task_) {
    return;
  }
  task_ = task;
  if (!enabled_) {
    return;  // SetEnabled re-anchors the cached cells against the new task
  }
  CellKey base;
  base.task = task_;
  base_cell_ = cells_.try_emplace(base, 0).first;
  if (depth_ == 0) {
    current_ = base_cell_;
  } else {
    // Re-key the innermost cell so charges after the switch land on the new task.
    CellKey key;
    key.path = path_;
    key.task = task_;
    current_ = cells_.try_emplace(key, 0).first;
  }
}

std::vector<CycleLedger::Cell> CycleLedger::Cells() const {
  std::vector<Cell> out;
  out.reserve(cells_.size());
  for (const auto& [key, cycles] : cells_) {
    Cell cell;
    cell.task = key.task;
    cell.cycles = cycles;
    for (uint8_t byte : key.path) {
      if (byte == 0) {
        break;
      }
      cell.path.push_back(static_cast<AttrCause>(byte - 1u));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

const LatencyHistogram& CycleLedger::Latency(AttrCause cause) const {
  static const LatencyHistogram kEmpty;
  return recorder_ == nullptr ? kEmpty : recorder_->latency[static_cast<uint8_t>(cause)];
}

std::vector<AttrEvent> CycleLedger::RecentEvents() const {
  std::vector<AttrEvent> out;
  const uint64_t count = std::min<uint64_t>(events_recorded_, kRingCapacity);
  out.reserve(static_cast<size_t>(count));
  const uint64_t start = events_recorded_ - count;
  for (uint64_t i = 0; i < count; ++i) {
    out.push_back(recorder_->ring[(start + i) & (kRingCapacity - 1)]);
  }
  return out;
}

}  // namespace ppcmm
