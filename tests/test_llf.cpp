// Unit tests for the ready queue under least-laxity-first.
#include "src/sched/ready_queue.hpp"

#include <gtest/gtest.h>

#include "src/task/task.hpp"

namespace {

using namespace sda;
using sched::Policy;
using sched::ReadyQueue;
using task::TaskPtr;

TaskPtr with(std::uint64_t id, double dl, double pex) {
  TaskPtr t = task::make_local_task(id, 0, 0.0, pex, dl);
  t->attrs.pred_exec = pex;
  return t;
}

TEST(Llf, OrdersByDeadlineMinusDemand) {
  ReadyQueue llf(Policy::kLlf);
  llf.push(with(1, 10.0, 1.0));  // laxity key 9
  llf.push(with(2, 10.0, 8.0));  // laxity key 2 — long task is urgent
  llf.push(with(3, 4.0, 1.0));   // laxity key 3
  EXPECT_EQ(llf.pop()->id, 2u);
  EXPECT_EQ(llf.pop()->id, 3u);
  EXPECT_EQ(llf.pop()->id, 1u);
  EXPECT_EQ(llf.pop(), nullptr);
}

TEST(Llf, DisagreesWithEdfWhenDemandDominates) {
  // EDF would serve id=1 first (earlier deadline); LLF serves id=2 (less
  // laxity) — the defining difference between the policies.
  ReadyQueue llf(Policy::kLlf);
  llf.push(with(1, 5.0, 0.1));  // key 4.9
  llf.push(with(2, 6.0, 5.0));  // key 1.0
  EXPECT_EQ(llf.peek()->id, 2u);
}

TEST(Llf, TiesAreFifo) {
  ReadyQueue llf(Policy::kLlf);
  for (std::uint64_t id = 1; id <= 4; ++id) llf.push(with(id, 10.0, 2.0));
  for (std::uint64_t id = 1; id <= 4; ++id) EXPECT_EQ(llf.pop()->id, id);
}

TEST(Llf, RemoveSpecific) {
  ReadyQueue llf(Policy::kLlf);
  TaskPtr a = with(1, 10.0, 1.0);
  TaskPtr b = with(2, 10.0, 1.0);
  llf.push(a);
  llf.push(b);
  EXPECT_EQ(llf.remove(*a).get(), a.get());
  EXPECT_EQ(llf.remove(*a), nullptr);
  EXPECT_EQ(llf.size(), 1u);
  EXPECT_EQ(llf.pop()->id, 2u);
}

TEST(Llf, LaxityKeyHelper) {
  const TaskPtr t = with(9, 12.0, 3.0);
  EXPECT_DOUBLE_EQ(ReadyQueue::key_of(Policy::kLlf, *t), 9.0);
}

TEST(Llf, FactorySupport) {
  EXPECT_EQ(sched::parse_policy("llf"), Policy::kLlf);
  EXPECT_EQ(sched::parse_policy("LLF"), Policy::kLlf);
  EXPECT_STREQ(sched::to_string(Policy::kLlf), "LLF");
}

}  // namespace
