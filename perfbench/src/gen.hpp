// Seeded generator of admission-protocol traffic for the serve workloads.
//
// The generator is part of the benchmark, not of the program: it has its
// own random source (SplitMix64) and formats every time and demand from
// integer ticks, so one seed yields the same bytes at every commit.  The
// program under test only ever sees the lines it produces.
//
// The mix (see README.md for why):
//   * ~3/4 submissions are small parallel trees drawn from a few dozen
//     fixed templates, with a fixed relative deadline per template, so
//     the plan cache hits after each template's first use;
//   * ~1/4 are unique 5-stage serial-parallel trees with fresh demands
//     and deadlines, which miss the cache and cost longer parses, plan
//     walks and journal records;
//   * submissions arrive in logical-time bursts (on/off periods around
//     the 16 nodes' capacity), which drives the overload state machine
//     through degraded and shedding and parks work in the retry queue;
//   * most submissions are followed by a whole-run `done`, some first by
//     a `leaf=` partial retirement.  A `done` for a submission that was
//     not admitted is answered with an unknown-id error: the generator
//     cannot know the verdict without asking the program;
//   * the stream ends with a `done` for an id no submission uses, whose
//     error reply tells a client that the server has read every line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct GenParams {
  int nodes = 16;
  std::uint64_t subs = 10000;
  int templates = 32;
};

struct ServeTraffic {
  std::vector<std::string> lines;  ///< protocol lines, no trailing newline
  std::uint64_t subs = 0;
  std::uint64_t unique_trees = 0;  ///< subs outside the template set
};

ServeTraffic generate_serve_traffic(std::uint64_t seed, const GenParams& p);

}  // namespace perfbench
