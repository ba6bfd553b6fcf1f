// Content hashing of the simulator's input types (RunHasher), used for
// determinism digests, and the run-memo counters perfbench reads.

#ifndef CONTENDER_SIM_RUN_CACHE_H_
#define CONTENDER_SIM_RUN_CACHE_H_

#include <cstdint>
#include <string_view>

#include "sim/config.h"
#include "sim/query_spec.h"

namespace contender::sim {

/// Incremental FNV-1a (64-bit) content hasher over the simulator's input
/// types. Doubles are hashed through their IEEE-754 bit pattern, so the
/// digest is stable across platforms and process restarts.
class RunHasher {
 public:
  void Add(uint64_t v);
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(static_cast<uint64_t>(v ? 1 : 0)); }
  void Add(double v);
  void Add(std::string_view s);
  void Add(const Phase& phase);
  void Add(const QuerySpec& spec);
  void Add(const SimConfig& config);

  uint64_t Digest() const { return state_; }

 private:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  uint64_t state_ = kOffsetBasis;
};

/// Run-memo counters. Training simulates every run exactly once through
/// sim::RunEngine, with no memo, so both counters always read 0. The only
/// reader is perfbench's check that a timed cold set-up replayed nothing.
class RunCache {
 public:
  static RunCache& Global() {
    static RunCache cache;
    return cache;
  }
  void Clear() {}
  uint64_t hits() const { return 0; }
  uint64_t misses() const { return 0; }
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_RUN_CACHE_H_
