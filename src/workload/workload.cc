#include "workload/workload.h"

#include <algorithm>

namespace contender {

Workload::Workload(Catalog catalog, std::vector<QueryTemplate> templates)
    : catalog_(std::move(catalog)), templates_(std::move(templates)) {}

Workload Workload::Paper() {
  return Workload(Catalog::TpcDs100(), MakePaperTemplates());
}

int Workload::IndexOfId(int template_id) const {
  for (size_t i = 0; i < templates_.size(); ++i) {
    if (templates_[i].id == template_id) return static_cast<int>(i);
  }
  return -1;
}

PlanNode Workload::NominalPlan(int index) const {
  return templates_[static_cast<size_t>(index)].build(catalog_);
}

InstanceParams Workload::DrawParams(Rng* rng) {
  InstanceParams p;
  // Predicate parameters move selectivity-driven work by up to ±10%.
  p.selectivity = rng->Uniform(0.9, 1.1);
  // Scan volumes vary slightly between instances (bloat, hint bits).
  p.io_scale = std::clamp(rng->Normal(1.0, 0.03), 0.9, 1.1);
  return p;
}

sim::QuerySpec Workload::Instantiate(int index,
                                     const InstanceParams& params) const {
  const QueryTemplate& t = templates_[static_cast<size_t>(index)];
  return CompilePlan(t.build(catalog_), catalog_, params, t.name, t.id);
}

}  // namespace contender
