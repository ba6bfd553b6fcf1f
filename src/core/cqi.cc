#include "core/cqi.h"

#include <algorithm>
#include <numeric>

namespace contender {

CqiTable::CqiTable(std::span<const TemplateProfile* const> primaries,
                   std::span<const TemplateProfile* const> partners,
                   const ScanTimes& scan_times) {
  size_t num_facts = 0;
  for (const TemplateProfile* c : partners) {
    num_facts += c->fact_tables.size();
  }
  std::vector<sim::TableId> tables;  // distinct fact tables, first seen first
  tables.reserve(num_facts);
  auto dense = [&tables](sim::TableId f) {
    auto it = std::find(tables.begin(), tables.end(), f);
    if (it == tables.end()) it = tables.insert(it, f);
    return static_cast<size_t>(it - tables.begin());
  };
  partners_.reserve(partners.size());
  for (const TemplateProfile* c : partners) {
    partners_.push_back({c->isolated_latency, c->io_seconds()});
    for (sim::TableId f : c->fact_tables) dense(f);
  }
  num_tables_ = tables.size();
  scans_.assign(partners.size() * num_tables_, 0);
  for (size_t c = 0; c < partners.size(); ++c) {
    for (sim::TableId f : partners[c]->fact_tables) {
      scans_[c * num_tables_ + dense(f)] = 1;
    }
  }
  pairs_.reserve(primaries.size() * partners.size());
  candidates_.reserve(primaries.size() * num_facts);
  for (const TemplateProfile* p : primaries) {
    for (const TemplateProfile* c : partners) {
      Pair pair{units::Seconds(), candidates_.size(), 0};
      for (sim::TableId f : c->fact_tables) {
        auto scan = scan_times.find(f);
        const units::Seconds s_f =
            scan == scan_times.end() ? units::Seconds() : scan->second;
        if (p->ScansFactTable(f)) {
          pair.omega += s_f;  // ω_c (Eq. 2): scans shared with the primary
        } else {
          candidates_.push_back({dense(f), s_f});
        }
      }
      pair.num_candidates = candidates_.size() - pair.first_candidate;
      pairs_.push_back(pair);
    }
  }
}

Status CqiTable::CheckPartners(std::span<const int> partners) const {
  if (partners.empty()) {
    return Status::InvalidArgument("CQI: empty concurrent set");
  }
  for (int c : partners) {
    if (c < 0 || static_cast<size_t>(c) >= partners_.size()) {
      return Status::InvalidArgument("CQI: bad partner index");
    }
    if (partners_[static_cast<size_t>(c)].isolated_latency.value() <= 0.0) {
      return Status::FailedPrecondition("CQI: non-positive isolated latency");
    }
  }
  return Status::OK();
}

CqiTerms CqiTable::Terms(int primary, std::span<const int> partners,
                         size_t position, CqiVariant variant) const {
  const size_t c = static_cast<size_t>(partners[position]);
  const Pair& pair =
      pairs_[static_cast<size_t>(primary) * partners_.size() + c];

  CqiTerms terms;
  terms.total_io_seconds = partners_[c].io_seconds;
  if (variant != CqiVariant::kBaselineIo) terms.omega = pair.omega;
  if (variant == CqiVariant::kFull) {
    // τ_c (Eq. 3): scans shared among the non-primary queries only; h_f
    // counts the concurrent queries scanning f, c included.
    for (size_t k = pair.first_candidate;
         k < pair.first_candidate + pair.num_candidates; ++k) {
      const Candidate& f = candidates_[k];
      int h = 0;
      for (int q : partners) h += Scans(q, f.table) ? 1 : 0;
      if (h > 1) {
        terms.tau += (1.0 - 1.0 / static_cast<double>(h)) * f.seconds;
      }
    }
  }

  // Eq. 4, truncated at zero.
  terms.r =
      std::max(0.0, (terms.total_io_seconds - terms.omega - terms.tau) /
                        partners_[c].isolated_latency);  // a ratio
  return terms;
}

units::Cqi CqiTable::Cqi(int primary, std::span<const int> partners,
                         CqiVariant variant) const {
  double sum = 0.0;
  for (size_t i = 0; i < partners.size(); ++i) {
    sum += Terms(primary, partners, i, variant).r;
  }
  // Eq. 5: average competing fraction across the concurrent queries.
  return units::Cqi(sum / static_cast<double>(partners.size()));
}

StatusOr<units::Cqi> ComputeCqi(const std::vector<TemplateProfile>& profiles,
                                const ScanTimes& scan_times,
                                int primary_index,
                                const std::vector<int>& concurrent_indices,
                                CqiVariant variant) {
  const int n = static_cast<int>(profiles.size());
  if (primary_index < 0 || primary_index >= n) {
    return Status::InvalidArgument("CQI: bad primary index");
  }
  std::vector<const TemplateProfile*> concurrent;
  concurrent.reserve(concurrent_indices.size());
  for (int c : concurrent_indices) {
    if (c < 0 || c >= n) {
      return Status::InvalidArgument("CQI: bad concurrent index");
    }
    concurrent.push_back(&profiles[static_cast<size_t>(c)]);
  }
  // A one-primary table over the mix: partner k is the mix's k-th query.
  const TemplateProfile* primary =
      &profiles[static_cast<size_t>(primary_index)];
  const CqiTable table({&primary, 1}, concurrent, scan_times);
  std::vector<int> partners(concurrent.size());
  std::iota(partners.begin(), partners.end(), 0);
  CONTENDER_RETURN_IF_ERROR(table.CheckPartners(partners));
  return table.Cqi(0, partners, variant);
}

}  // namespace contender
