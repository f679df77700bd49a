// Per-layer probes for the traced run, all from outside the program:
// decorators registered through the library's own extension points
// (sim::register_timer_queue, core::register_psp / register_ssp) that
// forward every call to the shipped implementation and count or time it.
//
// The decorators change no decision: they forward to the backend or
// strategy of the same name, so a traced run's fingerprint must equal the
// untraced one (the benchmark checks this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Counters of one decorated timer queue (one per engine; the sharded
/// fabric builds one engine per shard, each driven by its own thread).
struct QueueCounters {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t cancels = 0;
  std::size_t pending_max = 0;
  double self_s = 0.0;     ///< wall time inside queue calls
  double handler_s = 0.0;  ///< pop return -> next queue call
  /// Wall span from the first pop to the end of the last queue call, and
  /// the queue time inside that span.
  double run_span_s = 0.0;
  double run_self_s = 0.0;
};

/// Registers the decorators once per process.  Returns the names to put
/// in ExperimentConfig::timer_queue / psp / ssp for the traced run.
struct TracedNames {
  std::string timer_queue;
  std::string psp;
  std::string ssp;
};
TracedNames register_decorators(const std::string& queue,
                                 const std::string& psp,
                                 const std::string& ssp);

/// Counters of every decorated queue built since the last reset, in
/// construction order.
std::vector<QueueCounters> queue_counters();
void reset_layer_counters();

std::uint64_t psp_assigns();
std::uint64_t ssp_assigns();

}  // namespace perfbench
