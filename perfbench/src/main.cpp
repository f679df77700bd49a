// sda_perfbench — one benchmark run.
//
//   sda_perfbench --workload <sim-scale|serve-journal>
//                 --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a log, a host-shape stamp line, and as its last line the JSON
// result.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones.  Every run reports every metric of its kind: a
// workload's own (home) phase measures its metrics, and the other phase
// it carries measures the rest: sim-scale carries a serve phase in
// untraced runs, serve-journal carries a sim-paper phase in every run.
// Per-layer metrics of layers a run does not exercise are reported as 0.
//
// A run is a fixed-work prefix (every phase's minimum steps, in a fixed
// order; peak memory is read after it) followed by timed steps until
// --seconds have passed.
#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/report.hpp"
#include "src/workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Restricts the calling thread, and the threads it starts, to the @p k-th
// pair of neighbouring CPUs in @p cpus (cyclically).  A phase's steps walk
// through every pair: on a shared host each CPU alternates between an
// uncontended and a contended speed every few seconds, independently of
// the others, and a thread left on one CPU can see only its slow stretch
// for a whole run.  A pair leaves room for a step's second thread (the
// serve loop, the second shard).
void pin_pair(const std::vector<int>& cpus, int k) {
  if (cpus.size() < 2) return;
  const std::size_t n = cpus.size();
  const std::size_t i = static_cast<std::size_t>(k) % n;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i], &set);
  CPU_SET(cpus[(i + 1) % n], &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

struct Slot {
  std::unique_ptr<perfbench::Phase> phase;
  double share = 1.0;  ///< of the run's time
  double used = 0.0;   ///< seconds spent in its steps
  int steps = 0;
};

void step(Slot& slot, perfbench::Report& report) {
  static const std::vector<int> cpus = allowed_cpus();
  pin_pair(cpus, slot.steps);
  const Clock::time_point t0 = Clock::now();
  slot.phase->step(report);
  slot.used += std::chrono::duration<double>(Clock::now() - t0).count();
  ++slot.steps;
}

// The fixed-work prefix: every phase's minimum steps, round robin, in the
// same order on every run.
void prefix(std::vector<Slot*>& slots, perfbench::Report& report) {
  for (bool more = true; more;) {
    more = false;
    for (Slot* s : slots) {
      if (s->steps < s->phase->min_steps()) {
        step(*s, report);
        more = true;
      }
    }
  }
}

// Runs the phases' steps interleaved for @p seconds, always stepping the
// phase furthest behind its share of the time used so far, so that every
// phase samples the whole stretch: on a shared host the machine's speed
// drifts over seconds, and a phase run as one block sees only its own
// part of it.
void interleave(std::vector<Slot*> slots, double seconds,
                perfbench::Report& report) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    Slot* next = slots.front();
    for (Slot* s : slots) {
      if (s->used / s->share < next->used / next->share) next = s;
    }
    const double expected = next->steps ? next->used / next->steps : 0.0;
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (expected > left) return;
    step(*next, report);
  }
}

int usage(const char* why) {
  std::cerr << "sda_perfbench: " << why
            << "\nusage: sda_perfbench --workload <sim-scale|serve-journal> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunSpec spec;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      spec.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      spec.trace = value == "1";
    } else if (key == "--workdir") {
      spec.workdir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (spec.seconds <= 0.0 || spec.workdir.empty()) {
    return usage("--seconds and --workdir are required");
  }

  Report report;
  try {
    std::vector<Slot> slots;
    // A sharded replication (two threads, ~70 MB) leaves the process
    // slower for the serve rounds right after it, so next to one the
    // phases run as blocks.
    const bool interleaved = workload == "serve-journal";
    if (workload == "sim-scale") {
      if (!spec.trace) {
        slots.push_back({make_serve_phase(kServeSegments, spec, false, report), 0.5});
      }
      slots.push_back({make_sim_phase(workload, scale_config(), spec, true, report), 0.5});
    } else if (workload == "serve-journal") {
      slots.push_back({make_serve_phase(kServeSegments, spec, true, report), 0.6});
      slots.push_back(
          {make_sim_phase("sim-paper", paper_config(), spec, false, report), 0.4});
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
    // A traced serve run spends its last fifth on the layer split.
    const double seconds =
        spec.trace && workload == "serve-journal" ? 0.8 * spec.seconds
                                                  : spec.seconds;
    const Clock::time_point start = Clock::now();
    std::vector<Slot*> all;
    for (Slot& s : slots) all.push_back(&s);
    prefix(all, report);
    // Peak memory after a fixed amount of work, so that it does not
    // follow how many steps the host's speed allows: every serve round and
    // every sharded replication starts threads, and the task pool keeps
    // the chunks an exited thread allocated reserved.
    if (!spec.trace) {
      report.add("peak_rss_mb", peak_rss_mb(), "MB", 1,
                 "after the fixed-work prefix");
    }
    if (interleaved) {
      interleave(all, seconds - std::chrono::duration<double>(
                                    Clock::now() - start).count(),
                 report);
    } else {
      for (Slot* s : all) interleave({s}, s->share * seconds - s->used, report);
    }
    for (Slot& s : slots) s.phase->finish(report);
    if (!spec.trace) {
      report.note("peak resident set over the whole run: " +
                  json_number(peak_rss_mb()) + " MB");
    } else if (workload == "sim-scale") {
      add_zero_serve_layers(report);
    }
  } catch (const std::exception& e) {
    std::cerr << "sda_perfbench: " << e.what() << "\n";
    return 1;
  }
  report.print(std::cout, workload, spec.seed, spec.trace);
  return 0;
}
