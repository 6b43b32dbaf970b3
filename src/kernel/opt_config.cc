#include "src/kernel/opt_config.h"

#include <sstream>

#include "src/kernel/vsid_space.h"

namespace ppcmm {

OptimizationConfig OptimizationConfig::Baseline() { return OptimizationConfig{}; }

OptimizationConfig OptimizationConfig::AllOptimizations() {
  OptimizationConfig config;
  config.kernel_bat_mapping = true;
  config.vsid_scatter = kDefaultVsidScatter;
  config.optimized_handlers = true;
  config.no_htab_direct_reload = true;
  config.lazy_context_flush = true;
  config.range_flush_cutoff = 20;
  config.idle_zombie_reclaim = true;
  config.idle_zero = IdleZeroPolicy::kUncachedWithList;
  return config;
}

OptimizationConfig OptimizationConfig::AllPlusUncachedPageTables() {
  OptimizationConfig config = AllOptimizations();
  config.uncached_page_tables = true;
  return config;
}

OptimizationConfig OptimizationConfig::AllButLazyFlush() {
  OptimizationConfig config = AllOptimizations();
  config.lazy_context_flush = false;
  config.range_flush_cutoff = 0;
  config.idle_zombie_reclaim = false;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyBatMapping() {
  OptimizationConfig config = Baseline();
  config.kernel_bat_mapping = true;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyTunedScatter() {
  OptimizationConfig config = Baseline();
  config.vsid_scatter = kDefaultVsidScatter;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyFastHandlers() {
  OptimizationConfig config = Baseline();
  config.optimized_handlers = true;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyDirectReload() {
  OptimizationConfig config = Baseline();
  config.no_htab_direct_reload = true;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyLazyFlush(uint32_t cutoff) {
  OptimizationConfig config = Baseline();
  config.lazy_context_flush = true;
  config.range_flush_cutoff = cutoff;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyIdleReclaim() {
  // Reclaim only makes sense once lazy flushing creates zombies.
  OptimizationConfig config = OnlyLazyFlush();
  config.idle_zombie_reclaim = true;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyUncachedPageTables() {
  OptimizationConfig config = Baseline();
  config.uncached_page_tables = true;
  return config;
}

OptimizationConfig OptimizationConfig::OnlyIdleZero(IdleZeroPolicy policy) {
  OptimizationConfig config = Baseline();
  config.idle_zero = policy;
  return config;
}

std::string OptimizationConfig::Describe() const {
  std::ostringstream oss;
  oss << "bat=" << kernel_bat_mapping << " scatter=" << vsid_scatter
      << " fast_handlers=" << optimized_handlers << " no_htab=" << no_htab_direct_reload
      << " lazy_flush=" << lazy_context_flush << " cutoff=" << range_flush_cutoff
      << " idle_reclaim=" << idle_zombie_reclaim << " uncached_pt=" << uncached_page_tables
      << " idle_zero=" << static_cast<int>(idle_zero)
      << " uncached_idle=" << uncached_idle_task;
  return oss.str();
}

}  // namespace ppcmm
