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
}

}  // namespace ppcmm
