#include "api/objective_registry.h"

#include <stdexcept>
#include <utility>

#include "core/coverage_kernel.h"
#include "core/facility_location_kernel.h"

namespace subsel::api {
namespace {

void register_builtins(ObjectiveRegistry& registry) {
  // Caps literals mirror each kernel class's caps() — asserted equal by the
  // tests/api conformance suite so the metadata cannot drift from the code.
  registry.register_objective(
      {"pairwise",
       "The paper's Section 3 objective: utility sum minus similarity"
       " penalties over selected neighbor pairs; alpha/beta set the balance",
       "f(S) = alpha*sum_{v in S} u(v) - beta*sum_{{v1,v2} in E, v1,v2 in S}"
       " s(v1,v2)",
       {/*linear_priority_updates=*/true, /*utility_bounds=*/true,
        /*distributed_scoring=*/true, /*monotone=*/false}},
      [](const SelectionRequest& request) {
        return std::make_unique<core::PairwiseKernel>(*request.ground_set,
                                                      request.objective);
      });

  registry.register_objective(
      {"facility-location",
       "Max-based coverage: every point is scored by its best selected"
       " representative on the similarity graph (exemplar selection)",
       "f(S) = sum_{v in V} w(v) * max_{s in S} sigma(v,s)",
       {/*linear_priority_updates=*/false, /*utility_bounds=*/false,
        /*distributed_scoring=*/false, /*monotone=*/true}},
      [](const SelectionRequest& request) {
        core::FacilityLocationParams params;
        params.self_similarity = request.facility_location.self_similarity;
        params.utility_weighted = request.facility_location.utility_weighted;
        return std::make_unique<core::FacilityLocationKernel>(*request.ground_set,
                                                              params);
      });

  registry.register_objective(
      {"saturated-coverage",
       "Truncated-sum coverage: points accumulate similarity mass from"
       " selected neighbors, saturating at the threshold tau",
       "f(S) = sum_{v in V} w(v) * min(tau, sum_{s in S cap N(v)} s(v,s)"
       " + sigma_self*[v in S])",
       {/*linear_priority_updates=*/false, /*utility_bounds=*/false,
        /*distributed_scoring=*/false, /*monotone=*/true}},
      [](const SelectionRequest& request) {
        core::SaturatedCoverageParams params;
        params.saturation = request.coverage.saturation;
        params.self_similarity = request.coverage.self_similarity;
        params.utility_weighted = request.coverage.utility_weighted;
        return std::make_unique<core::SaturatedCoverageKernel>(*request.ground_set,
                                                               params);
      });
}

}  // namespace

ObjectiveRegistry& ObjectiveRegistry::instance() {
  static ObjectiveRegistry registry = [] {
    ObjectiveRegistry built;
    register_builtins(built);
    return built;
  }();
  return registry;
}

void ObjectiveRegistry::register_objective(ObjectiveInfo info,
                                           KernelFactory factory) {
  const std::string name = info.name;
  entries_[name] = Entry{std::move(info), std::move(factory)};
}

bool ObjectiveRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

const ObjectiveInfo* ObjectiveRegistry::info(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second.info;
}

std::vector<ObjectiveInfo> ObjectiveRegistry::list() const {
  std::vector<ObjectiveInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) infos.push_back(entry.info);
  return infos;
}

std::unique_ptr<core::ObjectiveKernel> ObjectiveRegistry::make(
    const SelectionRequest& request) const {
  if (request.ground_set == nullptr) {
    throw std::invalid_argument("SelectionRequest: ground_set is null");
  }
  const auto it = entries_.find(request.objective_name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [name, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw std::invalid_argument("unknown objective \"" + request.objective_name +
                                "\" (known: " + known + ")");
  }
  return it->second.factory(request);
}

}  // namespace subsel::api
