// The workload: a catalog plus an ordered set of query templates, with
// per-instance parameter variation.

#ifndef CONTENDER_WORKLOAD_WORKLOAD_H_
#define CONTENDER_WORKLOAD_WORKLOAD_H_

#include <vector>

#include "catalog/catalog.h"
#include "sim/query_spec.h"
#include "util/random.h"
#include "workload/plan_compiler.h"
#include "workload/templates.h"

namespace contender {

/// Immutable workload facade used by the sampler, the experiments and the
/// examples. Template positions ("indices") are stable; paper ids are
/// available through tmpl(i).id.
class Workload {
 public:
  Workload(Catalog catalog, std::vector<QueryTemplate> templates);

  /// The paper's setup: TPC-DS SF=100 with the 25 moderate templates.
  static Workload Paper();

  const Catalog& catalog() const { return catalog_; }
  int size() const { return static_cast<int>(templates_.size()); }
  const QueryTemplate& tmpl(int index) const {
    return templates_[static_cast<size_t>(index)];
  }

  /// Index of the template with the given paper id; -1 when absent.
  int IndexOfId(int template_id) const;

  /// The nominal (optimizer-estimate) plan for a template.
  PlanNode NominalPlan(int index) const;

  /// Compiles an instance of a template with the given predicate
  /// parameters; the one path from a template to an executable plan.
  sim::QuerySpec Instantiate(int index, const InstanceParams& params) const;

  /// Compiles an instance with randomly drawn predicate parameters:
  /// Instantiate(index, DrawParams(rng)).
  sim::QuerySpec Instantiate(int index, Rng* rng) const {
    return Instantiate(index, DrawParams(rng));
  }

  /// Compiles the nominal instance (parameters at their expected values).
  sim::QuerySpec InstantiateNominal(int index) const {
    return Instantiate(index, InstanceParams{});
  }

  /// Draws the per-instance parameters. Drawing them apart from the
  /// compile lets a caller fix an instance early (16 bytes) and compile
  /// its plan only when it runs.
  static InstanceParams DrawParams(Rng* rng);

 private:
  Catalog catalog_;
  std::vector<QueryTemplate> templates_;
};

}  // namespace contender

#endif  // CONTENDER_WORKLOAD_WORKLOAD_H_
