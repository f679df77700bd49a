// Golden serial fingerprints: the replication fingerprints of a handful of
// short-horizon configurations on the serial engine (shards=1), pinned to
// absolute values.  test_pdes checks that shard counts agree with each
// other; this file checks that the serial simulator itself does not drift.
// Together the configurations cover the Table-1 baseline, the §8 graph
// system, link nodes with message faults, local aborts under DIV-x/EQS and
// under preemption, GF with process-manager and local aborts, crashes with
// and without queue discard, the admission gate under overload, the
// FIFO, SPT and LLF ready-queue orders at a load where queues form, and
// the flat-task generator's knobs: non-homogeneous n, execution spread,
// least-queued placement and bursty global arrivals.
//
// A change that moves any of these values changes simulated behaviour.
// Such a change must say so in CHANGES.md, name each moved config with its
// old and new values, and update the table below in the same change.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace sda;

struct Golden {
  const char* label;
  const char* kv;  ///< space-separated key=value overrides of Table 1
  std::uint64_t rep0;
  std::uint64_t rep1;
};

// sim_time=2000 reps=2 at the default seed, on top of each config's keys.
const Golden kGolden[] = {
    {"table1", "", 0xa6ba16baeaf9cca5ull, 0x0b363734e8acab2dull},
    {"sec8_graph",
     "global_kind=graph psp=gf ssp=eqf k=6 load=0.8 frac_local=0.5",
     0xa37a22c1a01043efull, 0x48070fa92e92339dull},
    {"graph_links_msg_faults",
     "global_kind=graph link_count=3 msg_loss_rate=0.05 "
     "msg_extra_delay_mean=0.1",
     0x3413af7b9e2952e9ull, 0xd9ff516480f89204ull},
    {"div2_eqs_local_abort", "psp=div-2 ssp=eqs local_abort=virtual-deadline",
     0x25c62921c8ce4ef0ull, 0x38f2b1519300c527ull},
    {"gf_pm_and_local_aborts",
     "psp=gf ssp=eqf pm_abort=real-deadline local_abort=virtual-deadline",
     0x39d5d40a5edc2532ull, 0x602bc0f513cfff15ull},
    {"crash_discard",
     "fault_rate=0.05 crash_mean_uptime=120 crash_mean_downtime=15",
     0x6d2576068966153cull, 0xe9d6f015c6bad12cull},
    {"crash_freeze",
     "fault_rate=0.05 crash_mean_uptime=120 crash_mean_downtime=15 "
     "crash_discards_queue=0",
     0xd622848d2bc659fbull, 0x6db6a1b2b7b59d30ull},
    {"preemptive_local_abort", "preemptive=1 local_abort=virtual-deadline",
     0xad068f9af3ef4f1full, 0x1f26f08640634076ull},
    {"admission_overload", "admission=1 load=2.5", 0xced078eb46429100ull,
     0x49e043f6c2dab79aull},
    {"fifo_load_0.9", "scheduler_policy=fifo load=0.9", 0x5307bed096e9a3e1ull,
     0x89892aeb3f0f6387ull},
    {"spt_load_0.9", "scheduler_policy=spt load=0.9", 0xc35df203b72fc613ull,
     0xf35a721e1ffc3f08ull},
    {"llf_load_0.9", "scheduler_policy=llf load=0.9", 0x04632490d1a15285ull,
     0xa98994d6f6393f9cull},
    {"nonhomogeneous_n", "n_min=2 n_max=6", 0xf816086e175f2961ull,
     0xc869265ccf13e8b0ull},
    {"exec_spread_3", "subtask_exec_spread=3", 0xb70c6e972b008f76ull,
     0x2514e82f3e6af8deull},
    {"least_queued_gf", "placement=least-queued psp=gf", 0x066853ce29078504ull,
     0x0d1708a35bce9ad3ull},
    {"global_burst_4", "global_burst_factor=4 load=0.8", 0x624b4cfb7f58901eull,
     0x42f1408f8bdd2652ull},
};

exp::ExperimentConfig config_of(const Golden& g) {
  exp::ExperimentConfig c;
  c.sim_time = 2000.0;
  c.replications = 2;
  std::istringstream in(g.kv);
  for (std::string kv; in >> kv;) {
    const auto eq = kv.find('=');
    c.set(kv.substr(0, eq), kv.substr(eq + 1));
  }
  return c;
}

TEST(GoldenFingerprints, SerialEngineMatchesThePinnedValues) {
  for (const Golden& g : kGolden) {
    std::vector<std::uint64_t> fps;
    (void)exp::run_experiment(config_of(g), util::ThreadPool::shared(), &fps);
    ASSERT_EQ(fps.size(), 2u) << g.label;
    EXPECT_EQ(fps[0], g.rep0) << g.label << " rep 0: got 0x" << std::hex
                              << fps[0];
    EXPECT_EQ(fps[1], g.rep1) << g.label << " rep 1: got 0x" << std::hex
                              << fps[1];
  }
}

// Every global kind shares one arrival loop and one placement call, so a
// graph workload honours global_burst_factor and placement like a flat one.
TEST(GoldenFingerprints, GraphWorkloadsHonourBurstAndPlacement) {
  const auto first_fp = [](const char* kv) {
    std::vector<std::uint64_t> fps;
    (void)exp::run_experiment(config_of({"graph", kv, 0, 0}),
                              util::ThreadPool::shared(), &fps);
    return fps.at(0);
  };
  const std::uint64_t plain = first_fp("global_kind=graph");
  EXPECT_NE(first_fp("global_kind=graph global_burst_factor=4"), plain);
  EXPECT_NE(first_fp("global_kind=graph placement=least-queued"), plain);
}

}  // namespace
