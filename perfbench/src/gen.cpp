#include "src/gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <tuple>

namespace perfbench {

namespace {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1) with 53 bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// All times and demands are fixed-point: 1 tick = 1e-4 time units, so
// lines format identically everywhere and the stream clock stays exactly
// monotonic after formatting.
constexpr std::uint64_t kTicksPerUnit = 10000;

std::string fixed(std::uint64_t ticks) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%04llu",
                static_cast<unsigned long long>(ticks / kTicksPerUnit),
                static_cast<unsigned long long>(ticks % kTicksPerUnit));
  return buf;
}

std::uint64_t to_ticks(double units) {
  return static_cast<std::uint64_t>(std::llround(units * kTicksPerUnit));
}

struct Tree {
  std::string text;
  std::uint64_t critical_ticks = 0;  ///< longest serial path of demands
  int leaves = 0;
};

std::string leaf(int index, int node, std::uint64_t ex_ticks) {
  return "t" + std::to_string(index) + "@" + std::to_string(node) + ":" +
         fixed(ex_ticks);
}

// A parallel group of @p width leaves; width 1 is the bare leaf.
std::string parallel(SplitMix64& rng, int width, int nodes, int& next_leaf,
                     std::uint64_t ex_lo, std::uint64_t ex_span,
                     std::uint64_t& longest) {
  std::string out = width > 1 ? "[" : "";
  longest = 0;
  for (int i = 0; i < width; ++i) {
    const std::uint64_t ex = ex_lo + rng.below(ex_span);
    longest = std::max(longest, ex);
    if (i > 0) out += " || ";
    out += leaf(next_leaf++, static_cast<int>(rng.below(nodes)), ex);
  }
  if (width > 1) out += "]";
  return out;
}

Tree template_tree(SplitMix64& rng, int nodes) {
  Tree t;
  const int width = 2 + static_cast<int>(rng.below(3));
  int next_leaf = 0;
  // Demands on a 0.25 grid in [0.5, 2.0].
  std::string body = "[";
  for (int i = 0; i < width; ++i) {
    const std::uint64_t ex = (2 + rng.below(7)) * (kTicksPerUnit / 4);
    t.critical_ticks = std::max(t.critical_ticks, ex);
    if (i > 0) body += " || ";
    body += leaf(next_leaf++, static_cast<int>(rng.below(nodes)), ex);
  }
  t.text = body + "]";
  t.leaves = width;
  return t;
}

Tree unique_tree(SplitMix64& rng, int nodes) {
  Tree t;
  int next_leaf = 0;
  std::string body = "[";
  for (int stage = 0; stage < 5; ++stage) {
    const int width = 1 + static_cast<int>(rng.below(3));
    std::uint64_t longest = 0;
    if (stage > 0) body += " ";
    // Demands in [0.2, 2.0) at tick resolution: fresh every time.
    body += parallel(rng, width, nodes, next_leaf, 2000, 18000, longest);
    t.critical_ticks += longest;
  }
  t.text = body + "]";
  t.leaves = next_leaf;
  return t;
}

}  // namespace

ServeTraffic generate_serve_traffic(std::uint64_t seed, const GenParams& p) {
  // The template set is the same for every seed (a service sees the same
  // shapes whatever the day), so seeds differ only in arrivals, choices
  // and unique trees — which keeps the verdict shares close across seeds.
  SplitMix64 shapes(0x7e3b1a7e5ULL);
  std::vector<Tree> templates;
  std::vector<std::uint64_t> template_deadline;
  for (int i = 0; i < p.templates; ++i) {
    templates.push_back(template_tree(shapes, p.nodes));
    // Relative deadline: 2.0x .. 5.0x the critical path, on a 0.5 grid.
    const std::uint64_t factor_halves = 4 + shapes.below(7);
    template_deadline.push_back(templates.back().critical_ticks *
                                factor_halves / 2);
  }
  SplitMix64 rng(seed ^ 0x5e87e5e8d5a1ULL);

  // Bursty logical arrivals: a 40-unit cycle of 12 units "on" at ~2.4x the
  // nodes' capacity and 28 units "off" at ~0.4x (capacity ~ nodes / mean
  // work per submission ~ 16 / 5.5).
  const double capacity = p.nodes / 5.5;
  const double on_rate = 1.6 * capacity;
  const double off_rate = 0.2 * capacity;
  constexpr double kCycle = 40.0;
  constexpr double kOn = 12.0;

  // Pending `done` lines ordered by (time, sequence).
  using Due = std::tuple<std::uint64_t, std::uint64_t, std::string>;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> dones;
  std::uint64_t done_seq = 0;

  ServeTraffic out;
  out.lines.reserve(static_cast<std::size_t>(p.subs) * 2);
  double now = 0.0;
  for (std::uint64_t id = 1; id <= p.subs; ++id) {
    const double phase = std::fmod(now, kCycle);
    const double rate = phase < kOn ? on_rate : off_rate;
    now += -std::log(1.0 - rng.unit()) / rate;
    const std::uint64_t at = to_ticks(now);

    Tree tree;
    std::uint64_t rel = 0;
    if (rng.below(4) == 0) {
      tree = unique_tree(rng, p.nodes);
      // 1.5x .. 4.0x the critical path, at tick resolution.
      rel = tree.critical_ticks * (15 + rng.below(26)) / 10;
      ++out.unique_trees;
    } else {
      const std::size_t k = rng.below(templates.size());
      tree = templates[k];
      rel = template_deadline[k];
    }

    while (!dones.empty() && std::get<0>(dones.top()) <= at) {
      out.lines.push_back(std::get<2>(dones.top()));
      dones.pop();
    }
    out.lines.push_back("sub id=" + std::to_string(id) + " at=" + fixed(at) +
                        " deadline=" + fixed(rel) + " tree=" + tree.text);
    ++out.subs;

    const std::string ids = std::to_string(id);
    const std::uint64_t r = rng.below(20);
    if (r < 11) {  // 55%: whole-run done inside the deadline
      const std::uint64_t t = at + rel * (3 + rng.below(8)) / 10;
      dones.emplace(t, done_seq++, "done id=" + ids + " at=" + fixed(t));
    } else if (r < 16) {  // 25%: one leaf retires, then the whole run
      const std::uint64_t t1 = at + rel * 3 / 10;
      const std::uint64_t t2 = at + rel * (6 + rng.below(5)) / 10;
      const std::uint64_t leaf_index = rng.below(tree.leaves);
      dones.emplace(t1, done_seq++,
                    "done id=" + ids + " at=" + fixed(t1) +
                        " leaf=" + std::to_string(leaf_index));
      dones.emplace(t2, done_seq++, "done id=" + ids + " at=" + fixed(t2));
    }
    // 20%: no done; the reservation expires at its deadline.
  }
  while (!dones.empty()) {
    out.lines.push_back(std::get<2>(dones.top()));
    dones.pop();
  }
  // Last, a done for an id no sub uses: it changes nothing and is answered
  // with an unknown-id error, so a client holding that reply knows the
  // server has read every line (the lines before it may need no reply).
  out.lines.push_back("done id=" + std::to_string(p.subs + 1));
  return out;
}

}  // namespace perfbench
