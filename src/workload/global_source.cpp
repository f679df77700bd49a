#include "src/workload/global_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/metrics/task_class.hpp"

namespace sda::workload {

namespace {

[[noreturn]] void bad(const char* what) {
  throw std::invalid_argument(std::string("GlobalSource: ") + what);
}

void check(const FlatShape& s) {
  if (s.n_min < 1 || s.n_min > s.n_max) bad("bad [n_min, n_max]");
  if (s.n_max > s.k) {
    bad("n_max exceeds node count (subtasks must run at distinct nodes)");
  }
  if (s.exec_spread < 1.0) bad("exec_spread must be >= 1");
  if (!s.placement) bad("no placement");
}

void check(const StagedShape& s) {
  if (s.stage_widths.empty()) bad("no stages");
  for (int w : s.stage_widths) {
    if (w < 1 || w > s.k) bad("every stage width must be in [1, k]");
  }
  for (int link : s.link_nodes) {
    if (link >= 0 && link < s.k) {
      bad("link nodes must be outside the computation range [0, k)");
    }
  }
  if (!s.link_nodes.empty() && s.mean_msg_time <= 0.0) {
    bad("mean_msg_time must be positive");
  }
  if (!s.placement) bad("no placement");
}

void check(const RandomShape& s) {
  if (s.k < 2) bad("need k >= 2");
  if (s.max_depth < 1) bad("max_depth must be >= 1");
  if (s.min_children < 2 || s.min_children > s.max_children) {
    bad("need 2 <= min_children <= max_children");
  }
  if (s.leaf_probability < 0.0 || s.leaf_probability >= 1.0) {
    bad("leaf_probability must be in [0, 1)");
  }
}

DrawnTask draw_one(const FlatShape& s, util::Rng& rng) {
  const int n = static_cast<int>(rng.uniform_int(s.n_min, s.n_max));
  std::vector<int> sites(static_cast<std::size_t>(n));
  s.placement->choose(s.k, n, rng, sites.data());

  std::vector<task::TreePtr> leaves;
  leaves.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double scale = 1.0;
    if (s.exec_spread > 1.0) {
      scale = std::pow(s.exec_spread, rng.uniform(-1.0, 1.0));
    }
    const double ex = s.exec.sample(rng) * scale;
    const double pex = s.pex.predict(ex, rng);
    leaves.push_back(
        task::make_leaf(sites[static_cast<std::size_t>(i)], ex, pex));
  }
  task::TreePtr tree = n == 1 ? std::move(leaves.front())
                              : task::make_parallel(std::move(leaves));
  return {std::move(tree), metrics::global_class(n)};
}

DrawnTask draw_one(const StagedShape& s, util::Rng& rng) {
  std::vector<task::TreePtr> stages;
  stages.reserve(2 * s.stage_widths.size());
  std::vector<int> sites(static_cast<std::size_t>(s.k));
  bool first_stage = true;
  for (int width : s.stage_widths) {
    // A message transfer precedes every stage after the first when links
    // are modeled: the process manager ships the previous stage's result
    // over a uniformly chosen link resource.
    if (!first_stage && !s.link_nodes.empty()) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(s.link_nodes.size()) - 1));
      const double ex = rng.exponential(s.mean_msg_time);
      stages.push_back(task::make_leaf(s.link_nodes[pick], ex,
                                       s.pex.predict(ex, rng), "msg"));
    }
    first_stage = false;
    s.placement->choose(s.k, width, rng, sites.data());
    if (width == 1) {
      const double ex = s.exec.sample(rng);
      stages.push_back(task::make_leaf(sites[0], ex, s.pex.predict(ex, rng)));
      continue;
    }
    std::vector<task::TreePtr> branch;
    branch.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      const double ex = s.exec.sample(rng);
      branch.push_back(task::make_leaf(sites[static_cast<std::size_t>(i)], ex,
                                       s.pex.predict(ex, rng)));
    }
    stages.push_back(task::make_parallel(std::move(branch)));
  }
  task::TreePtr tree = stages.size() == 1 ? std::move(stages.front())
                                          : task::make_serial(std::move(stages));
  return {std::move(tree), metrics::global_class(0)};
}

task::TreePtr draw_random_node(const RandomShape& s, util::Rng& rng,
                               int depth_left) {
  if (depth_left == 0 || rng.uniform01() < s.leaf_probability) {
    const double ex = s.exec.sample(rng);
    return task::make_leaf(static_cast<int>(rng.uniform_int(0, s.k - 1)), ex,
                           s.pex.predict(ex, rng));
  }
  const bool parallel = rng.bernoulli(s.parallel_probability);
  int hi = s.max_children;
  if (parallel) hi = std::min(hi, s.k);
  const int lo = std::min(s.min_children, hi);
  const int kids = static_cast<int>(rng.uniform_int(lo, hi));
  std::vector<task::TreePtr> children;
  children.reserve(static_cast<std::size_t>(kids));
  for (int i = 0; i < kids; ++i) {
    children.push_back(draw_random_node(s, rng, depth_left - 1));
  }
  if (!parallel) return task::make_serial(std::move(children));
  // Parallel siblings run at distinct nodes: re-place their *leaf roots*
  // distinctly; nested composites keep their own placement.
  std::vector<int> sites(static_cast<std::size_t>(kids));
  rng.sample_distinct(s.k, kids, sites.data());
  for (int i = 0; i < kids; ++i) {
    task::TreeNode& child = *children[static_cast<std::size_t>(i)];
    if (child.is_leaf()) child.exec_node = sites[static_cast<std::size_t>(i)];
  }
  return task::make_parallel(std::move(children));
}

DrawnTask draw_one(const RandomShape& s, util::Rng& rng) {
  task::TreePtr tree;
  do {
    tree = draw_random_node(s, rng, s.max_depth);
  } while (tree->is_leaf());
  return {std::move(tree), metrics::global_class(0)};
}

}  // namespace

DrawnTask draw(const Shape& shape, util::Rng& rng) {
  return std::visit([&rng](const auto& s) { return draw_one(s, rng); },
                    shape);
}

double mean_total_ex(const RandomShape& shape, util::Rng& rng) {
  constexpr int kSamples = 2000;
  check(shape);
  double total = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    total += task::total_ex(*draw_one(shape, rng).tree);
  }
  return total / kSamples;
}

GlobalSource::GlobalSource(sim::Engine& engine, core::ProcessManager& pm,
                           util::Rng rng, Config config, Shape shape)
    : engine_(engine),
      pm_(pm),
      rng_(rng),
      config_(config),
      shape_(std::move(shape)),
      interarrival_(config.lambda > 0.0 ? config.lambda : 1.0,
                    config.burst_factor, config.burst_cycle) {
  if (config_.lambda < 0.0) bad("negative arrival rate");
  if (config_.slack_min > config_.slack_max) bad("slack_min > slack_max");
  std::visit([](const auto& s) { check(s); }, shape_);
}

void GlobalSource::start() {
  if (config_.lambda <= 0.0) return;
  engine_.in(interarrival_.next(rng_), [this] { arrival(); });
}

void GlobalSource::arrival() {
  const sim::Time now = engine_.now();
  DrawnTask drawn = draw(shape_, rng_);
  const double slack = rng_.uniform(config_.slack_min, config_.slack_max);
  const sim::Time deadline = now + task::critical_path_ex(*drawn.tree) + slack;

  ++generated_;
  // The admission gate sits strictly after every RNG draw, so gated and
  // ungated runs consume identical random sequences.
  bool admit = true;
  sim::Time effective_deadline = deadline;
  if (config_.admission != nullptr) {
    const core::AdmissionOutcome outcome = config_.admission->decide(
        *drawn.tree, now, deadline, pm_.next_run_id());
    admit = outcome.decision == core::AdmissionDecision::kAdmit ||
            outcome.decision == core::AdmissionDecision::kAdmitDegraded;
    effective_deadline = outcome.deadline;
  }
  if (admit) {
    pm_.submit(std::move(drawn.tree), effective_deadline, drawn.metrics_class,
               metrics::kSubtaskClass);
  } else {
    ++not_admitted_;
  }
  engine_.in(interarrival_.next(rng_), [this] { arrival(); });
}

}  // namespace sda::workload
