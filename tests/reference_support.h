// Shared by the exhaustive reference tests: the CQI equations over
// profiles, kept verbatim in arithmetic from the map-based path that the
// dense CqiTable replaced, and the multiset enumeration the sweeps use.

#ifndef CONTENDER_TESTS_REFERENCE_SUPPORT_H_
#define CONTENDER_TESTS_REFERENCE_SUPPORT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cqi.h"
#include "core/template_profile.h"

namespace contender::testing {

inline units::Seconds RefScanTime(const ScanTimes& scan_times,
                                  sim::TableId f) {
  auto it = scan_times.find(f);
  return it == scan_times.end() ? units::Seconds() : it->second;
}

inline int RefCountScanners(
    const std::vector<const TemplateProfile*>& concurrent, sim::TableId f) {
  int h = 0;
  for (const TemplateProfile* c : concurrent) {
    if (c->ScansFactTable(f)) ++h;
  }
  return h;
}

/// Eqs. 2-5 over profiles, summed in the order given; false on an empty
/// mix or a non-positive partner latency.
inline bool RefCqi(const TemplateProfile& primary,
                   const std::vector<const TemplateProfile*>& concurrent,
                   const ScanTimes& scan_times, CqiVariant variant,
                   double* cqi) {
  if (concurrent.empty()) return false;
  double sum = 0.0;
  for (const TemplateProfile* cp : concurrent) {
    const TemplateProfile& c = *cp;
    units::Seconds total_io = c.isolated_latency * c.io_fraction;
    units::Seconds omega;
    units::Seconds tau;
    if (variant != CqiVariant::kBaselineIo) {
      for (sim::TableId f : c.fact_tables) {
        if (primary.ScansFactTable(f)) omega += RefScanTime(scan_times, f);
      }
    }
    if (variant == CqiVariant::kFull) {
      for (sim::TableId f : c.fact_tables) {
        if (primary.ScansFactTable(f)) continue;
        const int h = RefCountScanners(concurrent, f);
        if (h > 1) {
          tau += (1.0 - 1.0 / static_cast<double>(h)) *
                 RefScanTime(scan_times, f);
        }
      }
    }
    if (c.isolated_latency.value() <= 0.0) return false;
    sum += std::max(0.0, (total_io - omega - tau) / c.isolated_latency);
  }
  *cqi = sum / static_cast<double>(concurrent.size());
  return true;
}

/// Calls `visit` on every nondecreasing sequence of `size` values in
/// [0, n): each multiset of that size exactly once.
template <typename Visit>
void ForEachMultiset(int n, int size, const Visit& visit) {
  std::vector<int> mix(static_cast<size_t>(size), 0);
  while (true) {
    visit(mix);
    int i = size - 1;
    while (i >= 0 && mix[static_cast<size_t>(i)] == n - 1) --i;
    if (i < 0) return;
    const int next = mix[static_cast<size_t>(i)] + 1;
    for (int j = i; j < size; ++j) mix[static_cast<size_t>(j)] = next;
  }
}

inline uint64_t Binomial(uint64_t n, uint64_t k) {
  uint64_t r = 1;
  for (uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// Multisets of 1..max_partners partners over n templates, times n
/// primaries: the case count of a sweep at MPL 2..max_partners + 1.
inline uint64_t SweepCases(uint64_t n, uint64_t max_partners) {
  uint64_t cases = 0;
  for (uint64_t k = 1; k <= max_partners; ++k) {
    cases += n * Binomial(n + k - 1, k);
  }
  return cases;
}

}  // namespace contender::testing

#endif  // CONTENDER_TESTS_REFERENCE_SUPPORT_H_
