// ExperimentConfig key=value API: golden round trip over every public
// field, typo suggestions, value parsing, and config validation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"

namespace {

using namespace sda;
using exp::ExperimentConfig;

/// Applies to_kv() output to a fresh baseline and expects an identical
/// to_kv() back — the round-trip contract set() and get() must keep.
void expect_round_trip(const ExperimentConfig& original) {
  ExperimentConfig rebuilt = exp::baseline_config();
  for (const auto& [key, value] : original.to_kv()) rebuilt.set(key, value);
  const auto a = original.to_kv();
  const auto b = rebuilt.to_kv();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second) << "key " << a[i].first;
  }
}

TEST(ConfigKv, RoundTripBaseline) { expect_round_trip(exp::baseline_config()); }

TEST(ConfigKv, RoundTripGraphConfig) { expect_round_trip(exp::graph_config()); }

// The golden: every public field moved off its default, including every
// enum/list/custom codec, survives to_kv -> set exactly.
TEST(ConfigKv, RoundTripEveryFieldNonDefault) {
  ExperimentConfig c = exp::baseline_config();
  c.k = 9;
  c.scheduler_policy = "llf";
  c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  c.preemptive = true;
  c.node_speeds = {1.25, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.3333333333333333};
  c.psp = "div-2.5";
  c.ssp = "eqf";
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  c.subtasks_non_abortable = true;
  c.load = 0.7123456789;
  c.frac_local = 0.6;
  c.mu_local = 1.5;
  c.mu_subtask = 0.75;
  c.local_burst_factor = 3.0;
  c.local_burst_cycle = 42.0;
  c.service_dist = "hyperexp";
  c.service_cv = 2.5;
  c.slack_min = 1.0;
  c.slack_max = 9.5;
  c.global_kind = exp::GlobalKind::kGraph;
  c.n_min = 2;
  c.n_max = 8;
  c.stage_widths = {2, 3, 1};
  c.link_count = 2;
  c.mean_msg_time = 0.125;
  c.global_slack_min = 3.0;
  c.global_slack_max = 30.0;
  c.pex = workload::PexModel::log_uniform(1.7);
  c.subtask_exec_spread = 2.0;
  c.placement = "least-queued";
  c.distributions = true;
  c.fault_rate = 0.01;
  c.crash_mean_uptime = 5000.0;
  c.crash_mean_downtime = 50.0;
  c.crash_discards_queue = false;
  c.msg_loss_rate = 0.001;
  c.msg_extra_delay_mean = 0.1;
  c.max_retries_per_run = 3;
  c.retry_backoff_base = 0.5;
  c.retry_backoff_factor = 3.0;
  c.retry_failover = false;
  c.retry_deadline = "stale";
  c.shed_negative_slack = false;
  c.admission = true;
  c.admission_util_bound = 0.95;
  c.admission_enter_degraded = 0.65;
  c.admission_exit_degraded = 0.5;
  c.admission_enter_shedding = 0.85;
  c.admission_exit_shedding = 0.75;
  c.admission_pressure_alpha = 0.45;
  c.admission_degrade_stretch = 2.0;
  c.admission_shed_headroom = 0.2;
  c.global_burst_factor = 4.0;
  c.global_burst_cycle = 99.0;
  c.shards = 3;
  c.net_latency = 0.25;
  c.sim_time = 12345.6789;
  c.warmup_fraction = 0.1;
  c.replications = 7;
  c.seed = 0xdeadbeefcafeULL;
  expect_round_trip(c);

  // And none of those values still matches the baseline rendering: the
  // round trip above exercised a real change for every key.
  const ExperimentConfig base = exp::baseline_config();
  for (const auto& [key, value] : c.to_kv()) {
    EXPECT_NE(value, base.get(key)) << "field '" << key
                                    << "' was not moved off its default";
  }
}

TEST(ConfigKv, GetReturnsWhatSetStored) {
  ExperimentConfig c = exp::baseline_config();
  c.set("psp", "gf-0.25");
  EXPECT_EQ(c.get("psp"), "gf-0.25");
  c.set("node_speeds", "2,1,0.5");
  EXPECT_EQ(c.get("node_speeds"), "2,1,0.5");
  c.set("pex", "noise-1.5");
  EXPECT_EQ(c.get("pex"), "noise-1.5");
  c.set("pex", "exact");
  EXPECT_EQ(c.get("pex"), "exact");
  c.set("stage_widths", "1,2,3,4");
  ASSERT_EQ(c.stage_widths.size(), 4u);
  EXPECT_EQ(c.stage_widths[3], 4);
}

TEST(ConfigKv, DoubleRenderingRoundTripsExactly) {
  ExperimentConfig c = exp::baseline_config();
  c.load = 0.1 + 0.2;  // 0.30000000000000004 — shortest form must keep it
  ExperimentConfig d = exp::baseline_config();
  d.set("load", c.get("load"));
  EXPECT_EQ(d.load, c.load);  // sda-lint: allow(FLOAT_EQ)
}

TEST(ConfigKv, UnknownKeySuggests) {
  ExperimentConfig c = exp::baseline_config();
  try {
    c.set("sched_policy", "edf");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown config key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scheduler_policy"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
  }
  EXPECT_THROW(c.get("loda"), std::invalid_argument);
}

TEST(ConfigKv, BadValuesThrow) {
  ExperimentConfig c = exp::baseline_config();
  EXPECT_THROW(c.set("load", "fast"), std::invalid_argument);
  EXPECT_THROW(c.set("k", "6.5"), std::invalid_argument);
  EXPECT_THROW(c.set("preemptive", "maybe"), std::invalid_argument);
  EXPECT_THROW(c.set("global_kind", "serial"), std::invalid_argument);
  EXPECT_THROW(c.set("pex", "noisy-1"), std::invalid_argument);
  EXPECT_THROW(c.set("local_abort", "sometimes"), std::invalid_argument);
  EXPECT_THROW(c.set("node_speeds", "1,,2"), std::invalid_argument);
}

TEST(ConfigKv, IntegersOutOfRangeAreRefusedNotWrapped) {
  ExperimentConfig c = exp::baseline_config();
  // 4294967302 = 2^32 + 6 and 4294967297 = 2^32 + 1 would wrap to 6 and 1.
  EXPECT_THROW(c.set("k", "4294967302"), std::invalid_argument);
  EXPECT_THROW(c.set("replications", "4294967297"), std::invalid_argument);
  EXPECT_THROW(c.set("stage_widths", "1,4294967297"), std::invalid_argument);
  EXPECT_THROW(c.set("k", "-2147483649"), std::invalid_argument);
  EXPECT_EQ(c.k, 6);
  EXPECT_EQ(c.replications, exp::baseline_config().replications);
  c.set("k", "2147483647");
  EXPECT_EQ(c.k, 2147483647);
  c.set("k", "-2147483648");
  EXPECT_EQ(c.k, -2147483647 - 1);
}

TEST(ConfigKv, SeedIsUnsigned64Bit) {
  ExperimentConfig c = exp::baseline_config();
  EXPECT_THROW(c.set("seed", "-1"), std::invalid_argument);
  EXPECT_THROW(c.set("seed", "18446744073709551616"), std::invalid_argument);
  c.set("seed", "18446744073709551615");
  EXPECT_EQ(c.seed, 0xffffffffffffffffULL);
  // to_kv() -> set() round-trips seeds at and above 2^63.
  c.seed = 0x8000000000000005ULL;
  ExperimentConfig d = exp::baseline_config();
  d.set("seed", c.get("seed"));
  EXPECT_EQ(d.seed, c.seed);
}

TEST(ConfigKv, BoolSpellings) {
  ExperimentConfig c = exp::baseline_config();
  for (const char* t : {"1", "true", "yes", "on"}) {
    c.set("preemptive", t);
    EXPECT_TRUE(c.preemptive) << t;
  }
  for (const char* f : {"0", "false", "no", "off"}) {
    c.set("preemptive", f);
    EXPECT_FALSE(c.preemptive) << f;
  }
}

TEST(ConfigKv, KnownKeysMatchToKv) {
  const auto keys = ExperimentConfig::known_keys();
  const auto kv = exp::baseline_config().to_kv();
  ASSERT_EQ(keys.size(), kv.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], kv[i].first);
  }
}

// --- validation ------------------------------------------------------------

TEST(ConfigValidate, BaselineIsValid) {
  EXPECT_TRUE(exp::baseline_config().validate().empty());
  EXPECT_NO_THROW(exp::baseline_config().validate_or_throw());
  EXPECT_TRUE(exp::graph_config().validate().empty());
}

TEST(ConfigValidate, ProblemsAreCollectedNotFirstOnly) {
  ExperimentConfig c = exp::baseline_config();
  c.k = 0;
  c.load = -0.5;
  c.slack_min = 10.0;  // > slack_max
  const auto problems = c.validate();
  EXPECT_GE(problems.size(), 3u);
}

TEST(ConfigValidate, RunOnceRejectsInvalidConfigs) {
  ExperimentConfig c = exp::baseline_config();
  c.node_speeds = {1.0, 2.0};  // wrong length for k=6
  EXPECT_THROW(exp::run_once(c, 1), std::invalid_argument);
  EXPECT_THROW(c.validate_or_throw(), std::invalid_argument);
}

TEST(ConfigValidate, ShardBoundsAreChecked) {
  ExperimentConfig c = exp::baseline_config();
  c.shards = 0;
  EXPECT_FALSE(c.validate().empty());
  c.shards = c.k + 1;  // more shards than lanes to put them on
  EXPECT_FALSE(c.validate().empty());
  c.shards = c.k;
  EXPECT_TRUE(c.validate().empty());
  c.net_latency = -0.5;
  EXPECT_FALSE(c.validate().empty());
  c.net_latency = 0.0;
  c.placement = "least-queued";  // reads live node state across shards
  EXPECT_FALSE(c.validate().empty());
  c.shards = 1;
  EXPECT_TRUE(c.validate().empty());
}

TEST(ConfigValidate, GraphShardsMayUseLinkLanes) {
  ExperimentConfig c = exp::graph_config();
  c.link_count = 2;
  c.shards = c.k + 2;  // compute lanes + link lanes
  EXPECT_TRUE(c.validate().empty());
  c.shards = c.k + 3;
  EXPECT_FALSE(c.validate().empty());
}

TEST(ConfigValidate, TimerQueueMustBeRegistered) {
  // Not a config key — code that registers a backend sets the field —
  // but validate() still catches a name nothing registered.
  ExperimentConfig c = exp::baseline_config();
  EXPECT_THROW(c.set("timer_queue", "heap"), std::invalid_argument);
  c.timer_queue = "wheel";
  EXPECT_FALSE(c.validate().empty());
}

TEST(ConfigValidate, SetThenValidateCatchesCrossFieldInconsistency) {
  ExperimentConfig c = exp::baseline_config();
  c.set("global_kind", "graph");
  c.set("stage_widths", "");
  EXPECT_FALSE(c.validate().empty());
}

}  // namespace
