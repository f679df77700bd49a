// The one generator of global tasks: Poisson arrivals of task trees whose
// deadline is
//
//   dl(T) = ar(T) + critical_path_ex(T) + slack
//
// (critical path = sum over serial children, max over parallel ones).  For
// the flat parallel tasks of §5 that is the paper's Equation 2,
// ar + max_i ex(T_i) + slack, so a global's slack distribution matches the
// locals' even though its subtasks end up with slightly more slack each
// (Equation 3).  The §8 serial-parallel graphs use the same rule with the
// slack range scaled by the stage count ([6.25, 25] = 5 x [1.25, 5]).
//
// GlobalSource owns the arrival loop; only the *shape* of the tree differs
// between workloads, and each shape is a small config with a draw function:
//
//   FlatShape    n ~ U[n_min, n_max] parallel subtasks at n distinct nodes
//                (n = 4 is the baseline, U[2..6] the non-homogeneous
//                experiment of §7.4); reports under global_class(n).
//   StagedShape  a serial pipeline of stages, width 1 = a simple stage,
//                width w > 1 = w parallel subtasks at distinct nodes; the
//                paper's Figure 14 stock-trading task is {1, 4, 1, 4, 1}.
//                Optional message legs run on link nodes between stages.
//   RandomShape  a fresh random serial-parallel tree per arrival (bounded
//                depth and fan-out), asking whether the heuristics are
//                shape-robust or tuned to flat tasks
//                (bench/ablation_random_shapes).
//
// Each draw consumes the arrival stream in a fixed order, so a shape and a
// seed reproduce the same task sequence bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "src/core/admission.hpp"
#include "src/core/process_manager.hpp"
#include "src/util/rng.hpp"
#include "src/workload/arrivals.hpp"
#include "src/workload/exec_dist.hpp"
#include "src/workload/pex_model.hpp"
#include "src/workload/placement.hpp"

namespace sda::workload {

/// Flat parallel tasks (paper §5, §7.4).
struct FlatShape {
  int k = 6;      ///< nodes to draw execution sites from
  int n_min = 4;  ///< subtasks per global (n_min == n_max: fixed n)
  int n_max = 4;
  /// Subtask service distribution (the paper: exponential, mean 1/mu).
  ExecDistribution exec = ExecDistribution::exponential(1.0);
  /// §7.4 extension (heterogeneous execution distributions): each
  /// subtask's demand is scaled by s^U[-1,1].  1.0 (the default)
  /// reproduces the paper's homogeneous subtasks.
  double exec_spread = 1.0;
  PexModel pex = PexModel::exact();
  /// Defaults to the paper's uniform-distinct model.
  std::shared_ptr<Placement> placement = std::make_shared<UniformPlacement>();
};

/// Serial-parallel pipelines (paper §8).
struct StagedShape {
  int k = 6;  ///< computation nodes [0, k)
  std::vector<int> stage_widths = {1, 4, 1, 4, 1};  ///< Figure 14 default
  /// Computation-stage service distribution; message legs stay exponential.
  ExecDistribution exec = ExecDistribution::exponential(1.0);
  PexModel pex = PexModel::exact();
  /// Places each parallel stage (and each simple one) independently.
  std::shared_ptr<Placement> placement = std::make_shared<UniformPlacement>();
  /// Communication modeling (§3.2: "even the communication network is
  /// considered as one or more of the resources").  When non-empty, a
  /// message-transfer subtask (exponential, mean mean_msg_time) precedes
  /// every stage after the first, at a uniformly chosen link node.  Link
  /// nodes must lie outside [0, k): placement never uses them.
  std::vector<int> link_nodes{};
  double mean_msg_time = 0.25;
};

/// Random serial-parallel trees.  Parallel siblings that are leaves run at
/// distinct nodes; every root is a composite, so every global is global.
struct RandomShape {
  int k = 6;
  int max_depth = 3;     ///< composite nesting bound (leaf = depth 0)
  int min_children = 2;  ///< composite fan-out range
  int max_children = 4;  ///< parallel fan-out additionally capped at k
  double leaf_probability = 0.45;     ///< chance a position becomes a leaf
  double parallel_probability = 0.5;  ///< composite kind choice
  ExecDistribution exec = ExecDistribution::exponential(1.0);
  PexModel pex = PexModel::exact();
};

using Shape = std::variant<FlatShape, StagedShape, RandomShape>;

struct DrawnTask {
  task::TreePtr tree;
  int metrics_class;  ///< the global task's reporting class
};

/// Draws one task of @p shape from @p rng.  The shape must be valid (as
/// GlobalSource's constructor checks).
DrawnTask draw(const Shape& shape, util::Rng& rng);

/// Mean total execution demand of @p shape's trees, estimated from 2000
/// draws.  A random shape's expected work has no tidy closed form, so the
/// load equations use this; draw it from a stream of its own so the
/// arrival sequence is not perturbed.
double mean_total_ex(const RandomShape& shape, util::Rng& rng);

class GlobalSource {
 public:
  struct Config {
    double lambda = 0.0;  ///< system-wide arrival rate; 0 disables
    double slack_min = 1.25;
    double slack_max = 5.0;
    /// Arrival burstiness (interrupted Poisson, like LocalSource's).
    /// burst_factor 1 draws exactly the plain-Poisson random sequence, so
    /// the default changes nothing.
    double burst_factor = 1.0;
    double burst_cycle = 50.0;
    /// Optional admission gate: when set, every drawn task is offered to
    /// the controller and only admitted (possibly with a degraded
    /// deadline) tasks reach the process manager.  The gate draws no RNG,
    /// so a null gate reproduces the ungated run bit for bit.
    core::AdmissionController* admission = nullptr;
  };

  GlobalSource(sim::Engine& engine, core::ProcessManager& pm, util::Rng rng,
               Config config, Shape shape);
  // Scheduled arrivals capture `this`.
  GlobalSource(const GlobalSource&) = delete;
  GlobalSource& operator=(const GlobalSource&) = delete;

  /// Schedules the first arrival. No tasks are generated before start().
  void start();

  std::uint64_t generated() const noexcept { return generated_; }
  /// Tasks turned away by the admission gate (0 without a gate).
  std::uint64_t not_admitted() const noexcept { return not_admitted_; }

 private:
  void arrival();

  sim::Engine& engine_;
  core::ProcessManager& pm_;
  util::Rng rng_;
  Config config_;
  Shape shape_;
  InterarrivalSampler interarrival_;
  std::uint64_t generated_ = 0;
  std::uint64_t not_admitted_ = 0;
};

}  // namespace sda::workload
