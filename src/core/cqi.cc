#include "core/cqi.h"

#include <algorithm>
#include <numeric>

namespace contender {

CqiTable::CqiTable(std::span<const TemplateProfile* const> templates,
                   const ScanTimes& scan_times, size_t num_primaries) {
  size_t num_facts = 0;
  for (const TemplateProfile* t : templates) {
    num_facts += t->fact_tables.size();
  }
  std::vector<sim::TableId> tables;  // distinct fact tables, first seen first
  tables.reserve(num_facts);
  auto dense = [&tables](sim::TableId f) {
    auto it = std::find(tables.begin(), tables.end(), f);
    if (it == tables.end()) it = tables.insert(it, f);
    return static_cast<size_t>(it - tables.begin());
  };
  templates_.reserve(templates.size());
  for (const TemplateProfile* t : templates) {
    templates_.push_back({t->isolated_latency, t->io_seconds()});
    for (sim::TableId f : t->fact_tables) dense(f);
  }
  num_tables_ = tables.size();
  scans_.assign(templates.size() * num_tables_, 0);
  for (size_t t = 0; t < templates.size(); ++t) {
    for (sim::TableId f : templates[t]->fact_tables) {
      scans_[t * num_tables_ + dense(f)] = 1;
    }
  }
  pairs_.reserve(num_primaries * templates.size());
  candidates_.reserve(num_primaries * num_facts);
  for (const TemplateProfile* p : templates.first(num_primaries)) {
    for (const TemplateProfile* c : templates) {
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
    if (templates_[static_cast<size_t>(c)].isolated_latency.value() <= 0.0) {
      return Status::FailedPrecondition("CQI: non-positive isolated latency");
    }
  }
  return Status::OK();
}

CqiTerms CqiTable::Terms(int primary, std::span<const int> partners,
                         size_t position, CqiVariant variant) const {
  const size_t c = static_cast<size_t>(partners[position]);
  const Pair& pair =
      pairs_[static_cast<size_t>(primary) * templates_.size() + c];

  CqiTerms terms;
  terms.total_io_seconds = templates_[c].io_seconds;
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
                        templates_[c].isolated_latency);  // a ratio
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

StatusOr<units::Cqi> ComputeCqiFor(
    const TemplateProfile& primary,
    const std::vector<const TemplateProfile*>& concurrent,
    const ScanTimes& scan_times, CqiVariant variant) {
  // The primary at position 0, the concurrent queries at 1..n.
  std::vector<const TemplateProfile*> mix = {&primary};
  mix.insert(mix.end(), concurrent.begin(), concurrent.end());
  std::vector<int> partners(concurrent.size());
  std::iota(partners.begin(), partners.end(), 1);
  const CqiTable table(mix, scan_times, /*num_primaries=*/1);
  CONTENDER_RETURN_IF_ERROR(table.CheckPartners(partners));
  return table.Cqi(0, partners, variant);
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
  return ComputeCqiFor(profiles[static_cast<size_t>(primary_index)],
                       concurrent, scan_times, variant);
}

}  // namespace contender
