// Adapters wrapping each concrete imputation framework behind the unified
// api::ImputationModel interface, plus the registration hook that installs
// them into a ModelRegistry under their string keys:
//
//   "habit"        HabitFramework        r, p, t, cost, expand, snap,
//                                        threads, save, load
//   "habit_typed"  TypedHabitFramework   habit params + min_trips
//   "gti"          GtiModel              rm, rd, resample, save, load
//   "palmto"       PalmtoModel           r, n, timeout, max_tokens, seed,
//                                        save, load
//   "sli"          StraightLineImpute    points
//
// save=<path> writes a binary model snapshot after the build; load=<path>
// cold-starts the model from one in O(read) — MakeModel(spec, {}) with an
// empty trips vector serves a persisted model without retraining.
//
// Most callers never name these classes — they go through MakeModel. The
// HABIT adapters are exposed because persistence tooling (habit_cli) and
// trip-level helpers need the underlying framework.
#pragma once

#include <memory>

#include "api/registry.h"
#include "baselines/gti.h"
#include "baselines/palmto.h"
#include "habit/framework.h"
#include "habit/typed_framework.h"

namespace habit::api {

/// Installs every built-in method into `registry` (called once by
/// ModelRegistry::Global(); call it manually only on private registries).
void RegisterBuiltinModels(ModelRegistry& registry);

/// \brief "habit": adapter over core::HabitFramework.
///
/// Batches are claimed in ascending H3-cell order of the gap start at the
/// model's resolution: H3 indices order hierarchically (a child shares its
/// parent's bit prefix), so consecutive claims land in one geographic
/// neighborhood and the workers' searches keep revisiting the same CSR
/// rows. Each worker reuses one flat search scratch, whose generation
/// stamps make per-query reuse free; `threads` (default 1) sets the
/// in-process worker count.
class HabitModel : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips);

  std::string Name() const override { return "HABIT"; }
  std::string Configuration() const override;
  size_t SizeBytes() const override { return framework_->SizeBytes(); }
  size_t SerializedSizeBytes() const override {
    return framework_->SerializedSizeBytes();
  }

  /// The wrapped framework (graph access for persistence / trip helpers).
  const core::HabitFramework& framework() const { return *framework_; }

 protected:
  Result<ImputeResponse> ImputeValidated(
      const ImputeRequest& request,
      graph::SearchScratch* scratch) const override;
  uint64_t ClaimKey(const ImputeRequest& request) const override;

 private:
  HabitModel(std::unique_ptr<core::HabitFramework> framework, int threads)
      : framework_(std::move(framework)) {
    batch_threads_ = threads;
  }

  std::unique_ptr<core::HabitFramework> framework_;
};

/// \brief "habit_typed": adapter over core::TypedHabitFramework.
///
/// Requests carrying a vessel_type are routed to the matching per-type
/// graph (with transparent fallback to the combined graph); requests
/// without one query the combined graph directly. Batches are claimed in
/// H3 order at the combined graph's resolution, as for "habit".
class TypedHabitModel : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips);

  std::string Name() const override { return "HABIT-T"; }
  std::string Configuration() const override;
  size_t SizeBytes() const override;
  size_t SerializedSizeBytes() const override {
    return framework_->SerializedSizeBytes();
  }

  const core::TypedHabitFramework& framework() const { return *framework_; }

 protected:
  Result<ImputeResponse> ImputeValidated(
      const ImputeRequest& request,
      graph::SearchScratch* scratch) const override;
  uint64_t ClaimKey(const ImputeRequest& request) const override;

 private:
  TypedHabitModel(std::unique_ptr<core::TypedHabitFramework> framework,
                  std::string configuration, int threads)
      : framework_(std::move(framework)),
        configuration_(std::move(configuration)) {
    batch_threads_ = threads;
  }

  std::unique_ptr<core::TypedHabitFramework> framework_;
  std::string configuration_;
};

}  // namespace habit::api
