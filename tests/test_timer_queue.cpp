// The timer-queue seam (src/sim/timer_queue.*): the "heap" backend must
// pop in exactly (time, insertion-sequence) order under any
// push/cancel/reschedule/pop sequence, and a backend registered through
// sim::register_timer_queue — a forwarding decorator, the way a profiler
// wraps the heap — must leave run fingerprints bit-identical, serially and
// sharded.  The differential tests drive the heap and a small ordered
// reference model with one op stream and compare everything the Engine
// could observe.
//
// This test runs under ThreadSanitizer in scripts/check_sanitizers.sh
// (the tsan ctest preset includes it), so keep the horizons short.
#include "src/sim/timer_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/trace.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace sda;
using sim::EventId;
using sim::Time;
using sim::TimerQueue;

std::unique_ptr<TimerQueue> make(const std::string& name) {
  return sim::make_timer_queue(name);
}

// --- differential: heap vs an ordered reference model ----------------------

/// Drives the heap and a reference model — an ordered (time, sequence)
/// map, the determinism contract written down directly — with one
/// operation stream, and asserts every observable matches: pending(),
/// cancel results, peek and pop times, pop order (via tokens), sizes.
class Differential {
 public:
  Differential() : heap_(make("heap")) {}

  void push(Time t) {
    const int token = next_token_++;
    const EventId id =
        heap_->push(t, [this, token] { fired_.push_back(token); });
    const Key key{t, next_seq_++};
    model_.emplace(key, token);
    handles_.emplace_back(id, key);
  }

  /// Cancels a random handle ever pushed — possibly one already fired or
  /// cancelled, which both sides must report as not pending.
  void cancel_random(util::Rng& rng) {
    if (handles_.empty()) return;
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(handles_.size()) - 1));
    const auto [id, key] = handles_[i];
    const bool live = model_.erase(key) == 1;
    EXPECT_EQ(heap_->pending(id), live);
    EXPECT_EQ(heap_->cancel(id), live);
    EXPECT_FALSE(heap_->pending(id));
    handles_.erase(handles_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  /// Reschedule = cancel + push at a new time (the Engine's idiom).
  void reschedule_random(util::Rng& rng, Time new_time) {
    cancel_random(rng);
    push(new_time);
  }

  /// Pops one event from both sides; false when both are empty or they
  /// disagree on emptiness.
  bool pop_one() {
    EXPECT_EQ(heap_->empty(), model_.empty());
    if (heap_->empty() || model_.empty()) return false;
    const auto expected = model_.begin();
    EXPECT_EQ(heap_->peek_time(), expected->first.first);
    auto [t, fn] = heap_->pop();
    EXPECT_EQ(t, expected->first.first);
    fn();
    EXPECT_FALSE(fired_.empty());
    if (!fired_.empty()) {
      EXPECT_EQ(fired_.back(), expected->second);
    }
    model_.erase(expected);
    return true;
  }

  void drain() {
    while (pop_one()) {
    }
    check_sizes();
  }

  void check_sizes() const {
    EXPECT_EQ(heap_->size(), model_.size());
    EXPECT_EQ(heap_->empty(), model_.empty());
  }

 private:
  using Key = std::pair<Time, std::uint64_t>;  ///< (time, insertion seq)

  std::unique_ptr<TimerQueue> heap_;
  std::map<Key, int> model_;  ///< live events -> token
  std::vector<std::pair<EventId, Key>> handles_;
  std::vector<int> fired_;
  std::uint64_t next_seq_ = 0;
  int next_token_ = 0;
};

/// Clustered deadlines: bursts of near-equal times (the admission front
/// door's retry storms) stress the FIFO-on-tie path.
TEST(TimerQueueDifferential, ClusteredDeadlines) {
  util::Rng rng(0xc1a5ULL);
  Differential d;
  double now = 0.0;
  for (int round = 0; round < 60; ++round) {
    const double center = now + rng.exponential(5.0);
    const int burst = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < burst; ++i) {
      // Half the burst lands on the exact same double.
      const double jitter = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 1e-3);
      d.push(center + jitter);
    }
    if (rng.bernoulli(0.3)) d.cancel_random(rng);
    if (rng.bernoulli(0.2)) d.reschedule_random(rng, center + rng.uniform01());
    const int pops = static_cast<int>(rng.uniform_int(0, burst));
    for (int i = 0; i < pops; ++i) d.pop_one();
    d.check_sizes();
    now = center;
  }
  d.drain();
}

/// Heavy-tailed deadlines: most events near now, occasional events orders
/// of magnitude out.
TEST(TimerQueueDifferential, HeavyTailedDeadlines) {
  util::Rng rng(0x7a11ULL);
  Differential d;
  double now = 0.0;
  for (int round = 0; round < 50; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < n; ++i) {
      // Pareto-ish: u^-2 spans ~[1, 1e6).
      const double u = rng.uniform(1e-3, 1.0);
      d.push(now + 0.01 / (u * u));
    }
    if (rng.bernoulli(0.4)) d.cancel_random(rng);
    if (rng.bernoulli(0.25)) {
      const double u = rng.uniform(1e-3, 1.0);
      d.reschedule_random(rng, now + 0.01 / (u * u));
    }
    const int pops = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < pops; ++i) d.pop_one();
    d.check_sizes();
    now += rng.exponential(1.0);
  }
  d.drain();
}

/// Full random soak with all operations mixed, including complete drains
/// mid-sequence (the slot free list then recycles every slot).
TEST(TimerQueueDifferential, RandomSoakWithDrains) {
  util::Rng rng(0x5eedULL);
  Differential d;
  double now = 0.0;
  for (int op = 0; op < 2500; ++op) {
    const double r = rng.uniform01();
    if (r < 0.45) {
      d.push(now + rng.exponential(3.0));
    } else if (r < 0.6) {
      d.cancel_random(rng);
    } else if (r < 0.7) {
      d.reschedule_random(rng, now + rng.exponential(3.0));
    } else if (r < 0.98) {
      d.pop_one();
    } else {
      d.drain();  // occasional full drain
      now += rng.exponential(100.0);
    }
    d.check_sizes();
  }
  d.drain();
}

// --- registry ---------------------------------------------------------------

TEST(TimerQueueRegistry, CaseInsensitive) {
  EXPECT_STREQ(make("HEAP")->backend_name(), "heap");
}

TEST(TimerQueueRegistry, UnknownNameListsBackendsAndSuggests) {
  try {
    make("haep");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("heap"), std::string::npos) << what;
  }
}

// --- end-to-end fingerprint identity ----------------------------------------

/// Pops forwarded by every Forwarding queue; relaxed, since shard engines
/// run on their own threads.
std::atomic<std::uint64_t> g_forwarded_pops{0};

/// Forwards every call to the heap, counting pops — the shape of a
/// profiling decorator registered through sim::register_timer_queue.
class Forwarding final : public TimerQueue {
 public:
  Forwarding() : inner_(make("heap")) {}
  EventId push(Time t, sim::EventFn fn) override {
    return inner_->push(t, std::move(fn));
  }
  bool cancel(EventId id) override { return inner_->cancel(id); }
  bool pending(EventId id) const noexcept override {
    return inner_->pending(id);
  }
  bool empty() const noexcept override { return inner_->empty(); }
  std::size_t size() const noexcept override { return inner_->size(); }
  Time peek_time() const override { return inner_->peek_time(); }
  Popped pop_slot() override {
    g_forwarded_pops.fetch_add(1, std::memory_order_relaxed);
    return inner_->pop_slot();
  }
  void validate() const override { inner_->validate(); }
  const char* backend_name() const noexcept override { return "forwarding"; }

 private:
  std::unique_ptr<TimerQueue> inner_;
};

const std::string& forwarding_backend() {
  static const std::string name = [] {
    sim::register_timer_queue("forwarding", [](const std::string&) {
      return std::unique_ptr<TimerQueue>(std::make_unique<Forwarding>());
    });
    return std::string("forwarding");
  }();
  return name;
}

std::uint64_t fingerprint_of(exp::ExperimentConfig c, const std::string& tq,
                             int shards, std::uint64_t seed) {
  c.timer_queue = tq;
  c.shards = shards;
  metrics::Tracer tracer(1);  // rolling fingerprint only
  (void)exp::run_once(c, seed, &tracer);
  return tracer.fingerprint();
}

/// A registered decorator is a pure observer: a run's trace fingerprint
/// must be bit-identical through it and through the bare heap, serially
/// and sharded — and the decorator must actually have been driven.
TEST(TimerQueueFingerprint, ForwardingDecoratorIdentical) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 60.0;  // short horizon: this also runs under TSan
  c.k = 8;
  c.replications = 1;
  const std::string& forwarding = forwarding_backend();
  EXPECT_STREQ(make(forwarding)->backend_name(), "forwarding");
  for (const std::uint64_t seed : {1ULL, 42ULL}) {
    const std::uint64_t heap_serial = fingerprint_of(c, "heap", 1, seed);
    g_forwarded_pops.store(0);
    const std::uint64_t fwd_serial = fingerprint_of(c, forwarding, 1, seed);
    EXPECT_GT(g_forwarded_pops.load(), 0u) << "serial, seed=" << seed;
    EXPECT_EQ(heap_serial, fwd_serial) << "serial, seed=" << seed;
    const std::uint64_t heap_sharded = fingerprint_of(c, "heap", 4, seed);
    g_forwarded_pops.store(0);
    const std::uint64_t fwd_sharded = fingerprint_of(c, forwarding, 4, seed);
    EXPECT_GT(g_forwarded_pops.load(), 0u) << "shards=4, seed=" << seed;
    EXPECT_EQ(heap_sharded, fwd_sharded) << "shards=4, seed=" << seed;
    EXPECT_EQ(heap_serial, heap_sharded) << "heap serial vs sharded, seed=" << seed;
  }
}

}  // namespace
