// ExperimentConfig::set/get/to_kv — the textual field registry behind the
// sda_run front door.
//
// Every public field of ExperimentConfig appears exactly once in fields()
// below; set() and get() are inverse by construction, and the round-trip
// golden test (tests/test_config_kv.cpp) fails when a newly added config
// field is missing here.  Doubles are rendered with std::to_chars shortest
// round-trip form, so to_kv() -> set() reproduces bit-identical values.
#include <charconv>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/validate.hpp"
#include "src/util/env.hpp"

namespace sda::exp {

namespace {

std::string render_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double parse_double(const std::string& key, const std::string& value) {
  double out = 0.0;
  const auto res = std::from_chars(value.data(), value.data() + value.size(), out);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size()) {
    throw std::invalid_argument("config key '" + key +
                                "': cannot parse '" + value + "' as a number");
  }
  return out;
}

long long parse_int(const std::string& key, const std::string& value) {
  long long out = 0;
  const auto res = std::from_chars(value.data(), value.data() + value.size(), out);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size()) {
    throw std::invalid_argument("config key '" + key +
                                "': cannot parse '" + value + "' as an integer");
  }
  return out;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument("config key '" + key + "': cannot parse '" +
                              value + "' as a bool (use true/false)");
}

/// Splits "a,b,c" (empty string = empty list).
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  if (value.empty()) return out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = value.find(',', start);
    out.push_back(value.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

struct Field {
  const char* key;
  std::string (*get)(const ExperimentConfig&);
  void (*set)(ExperimentConfig&, const std::string&);
};

// Macro per scalar kind: each expands to one Field with inverse get/set.
#define SDA_KV_DOUBLE(member)                                            \
  Field{#member,                                                         \
        [](const ExperimentConfig& c) { return render_double(c.member); }, \
        [](ExperimentConfig& c, const std::string& v) {                  \
          c.member = parse_double(#member, v);                           \
        }}
#define SDA_KV_INT(member)                                               \
  Field{#member,                                                         \
        [](const ExperimentConfig& c) { return std::to_string(c.member); }, \
        [](ExperimentConfig& c, const std::string& v) {                  \
          c.member = static_cast<int>(parse_int(#member, v));            \
        }}
#define SDA_KV_BOOL(member)                                              \
  Field{#member,                                                         \
        [](const ExperimentConfig& c) {                                  \
          return std::string(c.member ? "true" : "false");               \
        },                                                               \
        [](ExperimentConfig& c, const std::string& v) {                  \
          c.member = parse_bool(#member, v);                             \
        }}
#define SDA_KV_STRING(member)                                            \
  Field{#member, [](const ExperimentConfig& c) { return c.member; },     \
        [](ExperimentConfig& c, const std::string& v) { c.member = v; }}

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = {
      // --- system ---------------------------------------------------------
      SDA_KV_INT(k),
      SDA_KV_STRING(scheduler_policy),
      Field{"local_abort",
            [](const ExperimentConfig& c) {
              return std::string(sched::to_string(c.local_abort));
            },
            [](ExperimentConfig& c, const std::string& v) {
              if (v == "none") {
                c.local_abort = sched::LocalAbortPolicy::kNone;
              } else if (v == "virtual-deadline") {
                c.local_abort =
                    sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
              } else {
                throw std::invalid_argument(
                    "config key 'local_abort': expected none or "
                    "virtual-deadline, got '" + v + "'");
              }
            }},
      SDA_KV_BOOL(preemptive),
      Field{"node_speeds",
            [](const ExperimentConfig& c) {
              std::string out;
              for (std::size_t i = 0; i < c.node_speeds.size(); ++i) {
                if (i) out += ',';
                out += render_double(c.node_speeds[i]);
              }
              return out;
            },
            [](ExperimentConfig& c, const std::string& v) {
              std::vector<double> speeds;
              for (const std::string& part : split_csv(v)) {
                speeds.push_back(parse_double("node_speeds", part));
              }
              c.node_speeds = std::move(speeds);
            }},
      // --- deadline assignment --------------------------------------------
      SDA_KV_STRING(psp),
      SDA_KV_STRING(ssp),
      Field{"pm_abort",
            [](const ExperimentConfig& c) {
              return std::string(c.pm_abort == core::PmAbortMode::kRealDeadline
                                     ? "real-deadline"
                                     : "none");
            },
            [](ExperimentConfig& c, const std::string& v) {
              if (v == "none") {
                c.pm_abort = core::PmAbortMode::kNone;
              } else if (v == "real-deadline") {
                c.pm_abort = core::PmAbortMode::kRealDeadline;
              } else {
                throw std::invalid_argument(
                    "config key 'pm_abort': expected none or real-deadline, "
                    "got '" + v + "'");
              }
            }},
      SDA_KV_BOOL(subtasks_non_abortable),
      // --- workload -------------------------------------------------------
      SDA_KV_DOUBLE(load),
      SDA_KV_DOUBLE(frac_local),
      SDA_KV_DOUBLE(mu_local),
      SDA_KV_DOUBLE(mu_subtask),
      SDA_KV_DOUBLE(local_burst_factor),
      SDA_KV_DOUBLE(local_burst_cycle),
      SDA_KV_STRING(service_dist),
      SDA_KV_DOUBLE(service_cv),
      SDA_KV_DOUBLE(slack_min),
      SDA_KV_DOUBLE(slack_max),
      Field{"global_kind",
            [](const ExperimentConfig& c) {
              return std::string(
                  c.global_kind == GlobalKind::kGraph ? "graph" : "parallel");
            },
            [](ExperimentConfig& c, const std::string& v) {
              if (v == "parallel") {
                c.global_kind = GlobalKind::kParallel;
              } else if (v == "graph") {
                c.global_kind = GlobalKind::kGraph;
              } else {
                throw std::invalid_argument(
                    "config key 'global_kind': expected parallel or graph, "
                    "got '" + v + "'");
              }
            }},
      SDA_KV_INT(n_min),
      SDA_KV_INT(n_max),
      Field{"stage_widths",
            [](const ExperimentConfig& c) {
              std::string out;
              for (std::size_t i = 0; i < c.stage_widths.size(); ++i) {
                if (i) out += ',';
                out += std::to_string(c.stage_widths[i]);
              }
              return out;
            },
            [](ExperimentConfig& c, const std::string& v) {
              std::vector<int> widths;
              for (const std::string& part : split_csv(v)) {
                widths.push_back(
                    static_cast<int>(parse_int("stage_widths", part)));
              }
              c.stage_widths = std::move(widths);
            }},
      SDA_KV_INT(link_count),
      SDA_KV_DOUBLE(mean_msg_time),
      SDA_KV_DOUBLE(global_slack_min),
      SDA_KV_DOUBLE(global_slack_max),
      Field{"pex",
            [](const ExperimentConfig& c) {
              switch (c.pex.kind()) {
                case workload::PexKind::kExact: return std::string("exact");
                case workload::PexKind::kLogUniformNoise:
                  return "noise-" + render_double(c.pex.parameter());
                case workload::PexKind::kDistributionMean:
                  return "mean-" + render_double(c.pex.parameter());
              }
              return std::string("exact");
            },
            [](ExperimentConfig& c, const std::string& v) {
              if (v == "exact") {
                c.pex = workload::PexModel::exact();
              } else if (v.rfind("noise-", 0) == 0) {
                c.pex = workload::PexModel::log_uniform(
                    parse_double("pex", v.substr(6)));
              } else if (v.rfind("mean-", 0) == 0) {
                c.pex = workload::PexModel::distribution_mean(
                    parse_double("pex", v.substr(5)));
              } else {
                throw std::invalid_argument(
                    "config key 'pex': expected exact, noise-<factor>, or "
                    "mean-<value>, got '" + v + "'");
              }
            }},
      SDA_KV_DOUBLE(subtask_exec_spread),
      SDA_KV_STRING(placement),
      SDA_KV_BOOL(tardiness_histograms),
      SDA_KV_BOOL(distributions),
      // --- faults ---------------------------------------------------------
      SDA_KV_DOUBLE(fault_rate),
      SDA_KV_DOUBLE(crash_mean_uptime),
      SDA_KV_DOUBLE(crash_mean_downtime),
      SDA_KV_BOOL(crash_discards_queue),
      SDA_KV_DOUBLE(msg_loss_rate),
      SDA_KV_DOUBLE(msg_extra_delay_mean),
      // --- recovery -------------------------------------------------------
      SDA_KV_INT(max_retries_per_run),
      SDA_KV_DOUBLE(retry_backoff_base),
      SDA_KV_DOUBLE(retry_backoff_factor),
      SDA_KV_BOOL(retry_failover),
      SDA_KV_STRING(retry_deadline),
      SDA_KV_BOOL(shed_negative_slack),
      // --- online admission control ---------------------------------------
      SDA_KV_BOOL(admission),
      SDA_KV_DOUBLE(admission_util_bound),
      SDA_KV_DOUBLE(admission_enter_degraded),
      SDA_KV_DOUBLE(admission_exit_degraded),
      SDA_KV_DOUBLE(admission_enter_shedding),
      SDA_KV_DOUBLE(admission_exit_shedding),
      SDA_KV_DOUBLE(admission_pressure_alpha),
      SDA_KV_DOUBLE(admission_degrade_stretch),
      SDA_KV_DOUBLE(admission_shed_headroom),
      SDA_KV_DOUBLE(global_burst_factor),
      SDA_KV_DOUBLE(global_burst_cycle),
      // --- parallel execution ---------------------------------------------
      SDA_KV_INT(shards),
      SDA_KV_DOUBLE(net_latency),
      // --- run control ----------------------------------------------------
      SDA_KV_DOUBLE(sim_time),
      SDA_KV_DOUBLE(warmup_fraction),
      SDA_KV_INT(replications),
      Field{"seed",
            [](const ExperimentConfig& c) { return std::to_string(c.seed); },
            [](ExperimentConfig& c, const std::string& v) {
              c.seed = static_cast<std::uint64_t>(parse_int("seed", v));
            }},
  };
  return kFields;
}

#undef SDA_KV_DOUBLE
#undef SDA_KV_INT
#undef SDA_KV_BOOL
#undef SDA_KV_STRING

const Field* find_field(const std::string& key) {
  for (const Field& f : fields()) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

[[noreturn]] void unknown_key(const std::string& key) {
  std::ostringstream os;
  os << "unknown config key '" << key << "'";
  const std::string suggestion =
      util::closest_match(key, ExperimentConfig::known_keys());
  if (!suggestion.empty()) os << " — did you mean '" << suggestion << "'?";
  os << " (sda_run --list-keys prints all keys)";
  throw std::invalid_argument(os.str());
}

}  // namespace

void ExperimentConfig::set(const std::string& key, const std::string& value) {
  const Field* f = find_field(key);
  if (f == nullptr) unknown_key(key);
  f->set(*this, value);
}

std::string ExperimentConfig::get(const std::string& key) const {
  const Field* f = find_field(key);
  if (f == nullptr) unknown_key(key);
  return f->get(*this);
}

std::vector<std::pair<std::string, std::string>> ExperimentConfig::to_kv()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(fields().size());
  for (const Field& f : fields()) out.emplace_back(f.key, f.get(*this));
  return out;
}

std::vector<std::string> ExperimentConfig::known_keys() {
  std::vector<std::string> out;
  out.reserve(fields().size());
  for (const Field& f : fields()) out.emplace_back(f.key);
  return out;
}

std::vector<std::string> ExperimentConfig::validate() const {
  return exp::validate(*this);
}

void ExperimentConfig::validate_or_throw() const {
  exp::validate_or_throw(*this);
}

}  // namespace sda::exp
