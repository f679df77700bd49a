#include "src/metrics/collector.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sda::metrics {

std::string default_class_name(int cls) {
  if (cls == kLocalClass) return "local";
  if (cls == kSubtaskClass) return "subtask";
  if (cls == kGlobalClassBase) return "global(graph)";  // scenario tasks
  if (is_global_class(cls)) {
    std::ostringstream os;
    os << "global(n=" << cls - kGlobalClassBase << ")";
    return os.str();
  }
  return "class-" + std::to_string(cls);
}

void Collector::record_simple(const task::SimpleTask& t) {
  // A fault-killed task counts exactly like an aborted one: it missed its
  // deadline and never completed.
  const bool aborted = t.state == task::TaskState::kAborted ||
                       t.state == task::TaskState::kFailed;
  if (!aborted && t.state != task::TaskState::kCompleted) {
    throw std::logic_error("Collector::record_simple: task not terminal");
  }
  const bool missed = aborted || t.finished_at > t.attrs.real_deadline;
  const double response = aborted ? -1.0 : t.finished_at - t.attrs.arrival;
  const double tardiness =
      std::max(0.0, t.finished_at - t.attrs.real_deadline);
  record(t.metrics_class, t.attrs.arrival, missed, aborted, t.attrs.exec_time,
         response, tardiness, t.exec_node);
}

void Collector::record_global(const core::GlobalTaskRecord& rec) {
  const double response = rec.aborted ? -1.0 : rec.finished_at - rec.arrival;
  const double tardiness =
      std::max(0.0, rec.finished_at - rec.real_deadline);
  if (rec.arrival >= warmup_) {
    global_retries_ += static_cast<std::uint64_t>(rec.retries);
    if (rec.shed) ++shed_runs_;
  }
  record(rec.metrics_class, rec.arrival, rec.missed, rec.aborted,
         rec.total_work, response, tardiness);
}

void Collector::record(int cls, double arrival, bool missed, bool aborted,
                       double work, double response, double tardiness,
                       int node) {
  if (arrival < warmup_) return;
  ClassCounts& c = by_class_[cls];
  ++c.finished;
  c.work_total += work;
  if (missed) {
    ++c.missed;
    c.work_missed += work;
  }
  if (aborted) ++c.aborted;
  ClassTimings& t = timings_[cls];
  if (response >= 0.0) t.response.add(response);
  t.tardiness.add(tardiness);
  if (distributions_on_) {
    auto observe = [&](DistributionSet& d) {
      if (response >= 0.0) d.response.add(response);
      d.tardiness.add(tardiness);
    };
    observe(class_dists_[cls]);
    if (node >= 0) observe(node_dists_[node]);
  }
}

void Collector::enable_distributions() { distributions_on_ = true; }

namespace {
template <typename Map>
std::vector<int> sorted_keys(const Map& m) {
  std::vector<int> out;
  out.reserve(m.size());
  for (const auto& [key, value] : m) out.push_back(key);
  return out;
}

template <typename Map>
const DistributionSet* find_in(const Map& m, int key) {
  auto it = m.find(key);
  return it == m.end() ? nullptr : &it->second;
}
}  // namespace

std::vector<int> Collector::distribution_classes() const {
  return sorted_keys(class_dists_);
}

std::vector<int> Collector::distribution_nodes() const {
  return sorted_keys(node_dists_);
}

const DistributionSet* Collector::class_distributions(int cls) const {
  return find_in(class_dists_, cls);
}

const DistributionSet* Collector::node_distributions(int node) const {
  return find_in(node_dists_, node);
}

void Collector::merge_distributions(const Collector& other) {
  if (!distributions_on_ || !other.distributions_on_) {
    throw std::logic_error(
        "Collector::merge_distributions: distributions not enabled");
  }
  for (const auto& [cls, d] : other.class_dists_) class_dists_[cls].merge(d);
  for (const auto& [node, d] : other.node_dists_) node_dists_[node].merge(d);
}

ClassCounts Collector::counts(int cls) const {
  auto it = by_class_.find(cls);
  return it == by_class_.end() ? ClassCounts{} : it->second;
}

ClassTimings Collector::timings(int cls) const {
  auto it = timings_.find(cls);
  return it == timings_.end() ? ClassTimings{} : it->second;
}

std::vector<int> Collector::classes() const {
  std::vector<int> out;
  out.reserve(by_class_.size());
  for (const auto& [cls, counts] : by_class_) out.push_back(cls);
  return out;
}

double Collector::overall_missed_work_rate() const noexcept {
  double total = 0.0, missed = 0.0;
  for (const auto& [cls, c] : by_class_) {
    total += c.work_total;
    missed += c.work_missed;
  }
  return total > 0.0 ? missed / total : 0.0;
}

std::uint64_t Collector::total_missed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [cls, c] : by_class_) n += c.missed;
  return n;
}

std::uint64_t Collector::total_finished() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [cls, c] : by_class_) n += c.finished;
  return n;
}

}  // namespace sda::metrics
