// Concurrent Query Intensity (paper §4.1, Eqs. 2–5): for a primary template
// in a mix, the average fraction of each concurrent query's isolated I/O
// time that directly competes with the primary for the I/O bus, after
// crediting positive interactions (shared fact-table scans with the primary
// and among the concurrent queries themselves).

#ifndef CONTENDER_CORE_CQI_H_
#define CONTENDER_CORE_CQI_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/template_profile.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender {

/// The metric variants compared in Table 2.
enum class CqiVariant {
  /// Average of the concurrent queries' isolated I/O fractions p_c.
  kBaselineIo,
  /// Baseline minus shared scans with the primary (ω only).
  kPositiveIo,
  /// Full CQI: also credits shared scans among non-primaries (ω and τ).
  kFull,
};

/// Per-concurrent-query breakdown (CqiTable::Terms).
struct CqiTerms {
  units::Seconds total_io_seconds;  ///< l_min(c) * p_c
  units::Seconds omega;  ///< shared-with-primary scan seconds (Eq. 2)
  units::Seconds tau;    ///< shared-among-concurrent credit (Eq. 3)
  double r = 0.0;        ///< Eq. 4, truncated at zero (a ratio)
};

/// The CQI inputs of a set of primaries and a set of partners (each
/// addressed by its position in its own set), resolved once: per (primary
/// p, partner c) pair, ω_c (Eq. 2) and c's fact tables p does not scan
/// (the τ_c candidates of Eq. 3, with s_f); per partner, l_min, I/O
/// seconds and the fact tables it scans.
class CqiTable {
 public:
  CqiTable() = default;
  /// Memory is O(primaries.size() * partners.size()).
  CqiTable(std::span<const TemplateProfile* const> primaries,
           std::span<const TemplateProfile* const> partners,
           const ScanTimes& scan_times);

  /// The kernel's preconditions on a mix: at least one partner, each a
  /// valid partner position (InvalidArgument), and a positive l_min for
  /// every partner, since Eq. 4 divides by it (FailedPrecondition).
  [[nodiscard]] Status CheckPartners(std::span<const int> partners) const;

  /// The CQI kernel, Eqs. 2–4 for the partner at `position`: τ summed in
  /// the partner's fact-table order, then r = ((io - ω) - τ) / l_min
  /// truncated at zero. Requires a valid primary position and CheckPartners
  /// to accept the partner at `position`.
  [[nodiscard]] CqiTerms Terms(int primary, std::span<const int> partners,
                               size_t position, CqiVariant variant) const;

  /// Eq. 5 over the kernel: the mean of r across `partners`, summed in the
  /// order given. Requires CheckPartners(partners) to be OK.
  [[nodiscard]] units::Cqi Cqi(int primary, std::span<const int> partners,
                               CqiVariant variant) const;

 private:
  struct Partner {
    units::Seconds isolated_latency;  // l_min
    units::Seconds io_seconds;        // l_min * p
  };
  /// A fact table of c that the primary does not scan: its index among
  /// the set's distinct fact tables and its scan time (zero when unknown).
  struct Candidate {
    size_t table = 0;
    units::Seconds seconds;
  };
  /// Concurrent template c against primary p.
  struct Pair {
    units::Seconds omega;
    size_t first_candidate = 0;  // c's run in candidates_
    size_t num_candidates = 0;
  };

  [[nodiscard]] bool Scans(int c, size_t table) const {
    return scans_[static_cast<size_t>(c) * num_tables_ + table] != 0;
  }

  std::vector<Partner> partners_;
  std::vector<Pair> pairs_;  // [primary * partners_.size() + partner]
  std::vector<Candidate> candidates_;
  size_t num_tables_ = 0;       // distinct fact tables of the partners
  std::vector<uint8_t> scans_;  // [partner * num_tables_ + table]
};

/// Computes r_{t,m} for `primary` against `concurrent` (both are workload
/// indices into `profiles`; repeats allowed). `scan_times` maps fact-table
/// id to its isolated scan time s_f. Negative per-query I/O estimates are
/// truncated to zero (paper §4.1). Builds a CqiTable per call.
StatusOr<units::Cqi> ComputeCqi(const std::vector<TemplateProfile>& profiles,
                                const ScanTimes& scan_times,
                                int primary_index,
                                const std::vector<int>& concurrent_indices,
                                CqiVariant variant);

}  // namespace contender

#endif  // CONTENDER_CORE_CQI_H_
