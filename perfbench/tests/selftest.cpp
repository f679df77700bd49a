// Self-tests for the benchmark's own code: the traffic generator, the
// percentile and ratio math, and metric-name legality.
//
//   perfbench_selftest        (exit code = failed checks)
#include <cstdio>
#include <string>
#include <vector>

#include "src/gen.hpp"
#include "src/stats.hpp"
#include "src/util/feq.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::string joined(const perfbench::ServeTraffic& t) {
  std::string out;
  for (const std::string& l : t.lines) out += l + "\n";
  return out;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Generator: byte-identical for a seed, different across seeds.
  GenParams p;
  p.subs = 2000;
  const ServeTraffic a = generate_serve_traffic(7, p);
  const ServeTraffic b = generate_serve_traffic(7, p);
  const ServeTraffic c = generate_serve_traffic(8, p);
  expect(joined(a) == joined(b), "generator is byte-identical for a seed");
  expect(joined(a) != joined(c), "generator differs across seeds");
  expect(a.subs == 2000, "generator emits the requested subs");
  const double unique_share =
      static_cast<double>(a.unique_trees) / static_cast<double>(a.subs);
  expect(unique_share > 0.2 && unique_share < 0.3,
         "about a quarter of the trees are unique");
  bool monotonic = true;
  double prev = 0.0;
  for (const std::string& l : a.lines) {
    const std::size_t at = l.find(" at=");
    if (at == std::string::npos) continue;
    const double t = std::stod(l.substr(at + 4));
    if (t < prev) monotonic = false;
    prev = t;
  }
  expect(monotonic, "stream clock never goes backwards");
  expect(a.lines.back() == "done id=2001",
         "the stream ends with a done for an id no sub uses");

  // Nearest-rank percentiles.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(sda::util::feq(percentile_sorted(v, 50.0), 50.0), "p50 of 1..100 is 50");
  expect(sda::util::feq(percentile_sorted(v, 99.0), 99.0), "p99 of 1..100 is 99");
  expect(sda::util::feq(percentile_sorted(v, 100.0), 100.0),
         "p100 is the maximum");
  expect(sda::util::feq(percentile_sorted({}, 50.0), 0.0),
         "empty percentile is 0");
  expect(samples_beyond(100, 90.0) == 10, "10 of 100 samples beyond p90");
  expect(samples_beyond(10000, 99.9) == 10, "10 of 10000 samples beyond p99.9");
  expect(sda::util::feq(median({3.0, 1.0, 2.0}), 2.0),
         "median of unsorted input");

  // The reporting rule: the highest ladder percentile with >= 10 beyond.
  std::vector<double> w;
  for (int i = 0; i < 1000; ++i) w.push_back(i);
  const Summary s = summarize(w);
  expect(s.n == 1000 && sda::util::feq(s.tail_pct, 99.0) &&
             sda::util::feq(s.tail, 989.0),
         "1000 samples report p99 (10 beyond), not p99.9");
  const Summary few = summarize({1.0, 2.0, 3.0});
  expect(sda::util::feq(few.tail_pct, 0.0) && sda::util::feq(few.median, 2.0),
         "3 samples report only the median");
  std::vector<double> big(100000, 1.0);
  expect(sda::util::feq(summarize(big).tail_pct, 99.99),
         "100000 samples report p99.99");

  // Ratio math.
  expect(sda::util::feq(pct(1.0, 4.0), 25.0), "pct(1, 4) = 25");
  expect(sda::util::feq(pct(1.0, 0.0), 0.0), "pct over zero is 0");
  expect(sda::util::feq(ratio(3.0, 2.0), 1.5), "ratio(3, 2) = 1.5");
  expect(sda::util::feq(ratio(3.0, 0.0), 0.0), "ratio over zero is 0");

  // Metric names.
  for (const char* ok : {"setup_s", "sim.timer_queue.pops", "core.plan_cache.hit_ratio",
                         "bench.gen_late_p99_us", "serve-journal", "9lives"}) {
    expect(valid_metric_name(ok), std::string("legal name ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "p99%", "µs"}) {
    expect(!valid_metric_name(bad), std::string("illegal name '") + bad + "'");
  }
  expect(!valid_metric_name(std::string(65, 'a')), "65-character name is illegal");

  std::printf("%d failure(s)\n", failures);
  return failures;
}
