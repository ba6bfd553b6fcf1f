#include "sim/run_cache.h"

#include <bit>

namespace contender::sim {

namespace {
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t MixByte(uint64_t state, uint8_t byte) {
  return (state ^ byte) * kFnvPrime;
}
}  // namespace

void RunHasher::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ = MixByte(state_, static_cast<uint8_t>(v >> (8 * i)));
  }
}

void RunHasher::Add(double v) {
  // +0.0 and -0.0 compare equal but have distinct bit patterns; normalize
  // so equal inputs always hash equal.
  if (v == 0.0) v = 0.0;
  Add(std::bit_cast<uint64_t>(v));
}

void RunHasher::Add(std::string_view s) {
  Add(static_cast<uint64_t>(s.size()));
  for (char c : s) state_ = MixByte(state_, static_cast<uint8_t>(c));
}

void RunHasher::Add(const Phase& phase) {
  Add(phase.seq_io_bytes);
  Add(phase.rnd_io_bytes);
  Add(phase.cpu_seconds);
  Add(phase.table);
  Add(phase.table_bytes);
  Add(phase.cacheable);
  Add(phase.mem_demand_bytes);
  Add(phase.spillable);
}

void RunHasher::Add(const QuerySpec& spec) {
  Add(std::string_view(spec.name));
  Add(spec.template_id);
  Add(spec.immortal);
  Add(spec.pinned_memory_bytes);
  Add(static_cast<uint64_t>(spec.phases.size()));
  for (const Phase& phase : spec.phases) Add(phase);
}

void RunHasher::Add(const SimConfig& config) {
  Add(config.seq_bandwidth);
  Add(config.random_bandwidth);
  Add(config.spill_bandwidth);
  Add(config.seek_overhead);
  Add(config.ram_bytes);
  Add(config.os_reserved_bytes);
  Add(config.buffer_pool_fraction);
  Add(config.cores);
  Add(config.spill_amplification);
  Add(config.random_io_sigma);
  Add(config.spill_io_sigma);
  Add(config.cpu_jitter);
  Add(config.startup_cpu_seconds);
}

}  // namespace contender::sim
