// The benchmark's workloads.  Every frozen setting lives here; README.md
// explains why each was chosen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/exp/config.hpp"
#include "src/exp/serve.hpp"
#include "src/gen.hpp"
#include "src/report.hpp"

namespace perfbench {

/// Simulated time of one replication.  Long enough that the simulated miss
/// percentages vary by only a few percent of their value from seed to seed.
inline constexpr double kPaperSimTime = 100000.0;
inline constexpr double kScaleSimTime = 200.0;
/// Set-up samples taken before every untraced replication.
inline constexpr int kSetupsPerStep = 16;

/// sim-paper: the paper's section 8 serial-parallel system, serial engine.
sda::exp::ExperimentConfig paper_config();
/// sim-scale: 4096 nodes on the conservative time-window fabric, 2 shards.
sda::exp::ExperimentConfig scale_config();

/// serve traffic: independent segments of this many subs, each generated
/// from the workload seed and the segment index.  Rounds are one segment
/// long (~0.15 s of open loop) so that host stalls, which last longer,
/// move whole rounds rather than every round's percentiles; eight segments
/// keep the traffic mix, and with it the verdict shares and the capacity,
/// within a few percent across seeds (with four, capacity spread by ~0.25).
inline constexpr std::uint64_t kServeSegmentSubs = 1000;
inline constexpr int kServeSegments = 8;
/// Open-loop offered rate (protocol lines per second): about a third of
/// the closed-loop capacity measured on a 4-CPU Xeon host (~23k
/// decisions/s, ~47k lines/s), frozen so the offered load never follows
/// the program's speed.
inline constexpr double kOpenLoopLinesPerSecond = 14000.0;
/// Closed-loop window: protocol lines in flight on the one connection,
/// enough to keep the server busy between the client's reads.
inline constexpr std::size_t kClosedLoopWindow = 1024;

/// The admission front door as `sda_run --serve k=16` ships it: default
/// strategies (UD/UD), feasibility tests, overload thresholds, retry
/// queue, plan cache and journal batching.  (GF's virtual deadlines sit
/// before the arrival by design, so no admission test can pass them.)
sda::exp::ServeOptions serve_options();

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch files (journals) live here
};

/// One measured part of a run, measured as a sequence of steps so that a
/// run can interleave the steps of its phases (see main.cpp).
class Phase {
 public:
  virtual ~Phase() = default;
  /// One unit of measurement (a replication; a segment's serve rounds).
  virtual void step(Report& report) = 0;
  /// Fewest steps after which finish() can report every metric.
  virtual int min_steps() const = 0;
  /// Adds the phase's metrics: end-to-end ones, or in a traced run the
  /// per-layer ones.
  virtual void finish(Report& report) = 0;
};

// A workload's @p home phase is its own: it alone measures set-up (and, in
// a traced run, the tracing overhead); the other phase a run carries
// reports the rest of its metrics.

/// Replications of @p c with the workload seed.
std::unique_ptr<Phase> make_sim_phase(const std::string& workload,
                                      const sda::exp::ExperimentConfig& c,
                                      const RunSpec& spec, bool home,
                                      Report& report);

/// Rounds of serve traffic over TCP loopback with the journal on.
std::unique_ptr<Phase> make_serve_phase(int segments, const RunSpec& spec,
                                        bool home, Report& report);

/// The serve layers' per-layer metrics, reported as 0 by traced runs
/// that do not serve.
void add_zero_serve_layers(Report& report);

}  // namespace perfbench
