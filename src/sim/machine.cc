#include "src/sim/machine.h"

namespace ppcmm {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(config.ram_bytes),
      icache_("icache", config.icache, config.memory),
      dcache_("dcache", config.dcache, config.memory) {
  config_.ncpus = std::max(1u, config_.ncpus);
  for (uint32_t cpu = 1; cpu < config_.ncpus; ++cpu) {
    extra_cores_.push_back(std::make_unique<ExtraCore>(config_));
  }
  cpu_cycles_.assign(config_.ncpus, 0);
  cpu_cycles_cur_ = &cpu_cycles_[0];
  if (config.has_l2) {
    l2_ = std::make_unique<Cache>("l2", config.l2, config.memory);
  }
}

Cycles Machine::L2MissCost(PhysAddr pa, bool is_write, bool l1_evicted_dirty) {
  const CacheAccessOutcome l2 = l2_->AccessLine(pa, is_write);
  Cycles cost = l2.hit ? Cycles(config_.l2_hit_cycles) : Cycles(config_.memory.line_fill_cycles);
  if (l2.evicted_dirty) {
    cost += Cycles(config_.memory.writeback_cycles);
  }
  if (l1_evicted_dirty) {
    cost += Cycles(2);  // castout absorbed by the L2
  }
  return cost;
}

}  // namespace ppcmm
