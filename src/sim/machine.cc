#include "src/sim/machine.h"

#include <algorithm>

namespace ppcmm {

Machine::Machine(const MachineConfig& config) : config_(config), memory_(config.ram_bytes) {
  config_.ncpus = std::max(1u, config_.ncpus);
  cores_.reserve(config_.ncpus);
  for (uint32_t cpu = 0; cpu < config_.ncpus; ++cpu) {
    cores_.emplace_back(config_);
  }
  icache_cur_ = &cores_[0].icache;
  dcache_cur_ = &cores_[0].dcache;
  cpu_cycles_.assign(config_.ncpus, 0);
  cpu_cycles_cur_ = &cpu_cycles_[0];
}

}  // namespace ppcmm
