// Unit tests for the ready queue under the FIFO and SPT ablation
// policies, and for policy-name parsing.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sched/ready_queue.hpp"
#include "src/task/task.hpp"

namespace {

using namespace sda;
using task::make_local_task;
using task::TaskPtr;

TEST(Fifo, ArrivalOrder) {
  sched::ReadyQueue q(sched::Policy::kFifo);
  q.push(make_local_task(1, 0, 0.0, 1.0, 100.0));
  q.push(make_local_task(2, 0, 0.0, 1.0, 1.0));  // earlier deadline, later pop
  q.push(make_local_task(3, 0, 0.0, 1.0, 50.0));
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 3u);
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(Fifo, PeekAndRemove) {
  sched::ReadyQueue q(sched::Policy::kFifo);
  TaskPtr a = make_local_task(1, 0, 0.0, 1.0, 1.0);
  TaskPtr b = make_local_task(2, 0, 0.0, 1.0, 2.0);
  q.push(a);
  q.push(b);
  EXPECT_EQ(q.peek()->id, 1u);
  EXPECT_EQ(q.remove(*a).get(), a.get());
  EXPECT_EQ(q.peek()->id, 2u);
  EXPECT_EQ(q.remove(*a), nullptr);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Spt, ShortestPredictedFirst) {
  sched::ReadyQueue q(sched::Policy::kSpt);
  TaskPtr slow = make_local_task(1, 0, 0.0, 5.0, 100.0);
  TaskPtr fast = make_local_task(2, 0, 0.0, 0.5, 100.0);
  TaskPtr mid = make_local_task(3, 0, 0.0, 2.0, 100.0);
  q.push(slow);
  q.push(fast);
  q.push(mid);
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 3u);
  EXPECT_EQ(q.pop()->id, 1u);
}

TEST(Spt, TiesFifoAndRemove) {
  sched::ReadyQueue q(sched::Policy::kSpt);
  TaskPtr a = make_local_task(1, 0, 0.0, 1.0, 10.0);
  TaskPtr b = make_local_task(2, 0, 0.0, 1.0, 20.0);
  q.push(a);
  q.push(b);
  EXPECT_EQ(q.peek()->id, 1u);
  EXPECT_EQ(q.remove(*a).get(), a.get());
  EXPECT_EQ(q.pop()->id, 2u);
}

TEST(Factory, KnownPolicies) {
  EXPECT_EQ(sched::parse_policy("edf"), sched::Policy::kEdf);
  EXPECT_EQ(sched::parse_policy("EDF"), sched::Policy::kEdf);
  EXPECT_EQ(sched::parse_policy("fifo"), sched::Policy::kFifo);
  EXPECT_EQ(sched::parse_policy("spt"), sched::Policy::kSpt);
  EXPECT_STREQ(sched::to_string(sched::Policy::kFifo), "FIFO");
  EXPECT_STREQ(sched::to_string(sched::Policy::kSpt), "SPT");
}

TEST(Factory, UnknownPolicyThrows) {
  EXPECT_THROW(sched::parse_policy("lifo"), std::invalid_argument);
  EXPECT_THROW(sched::parse_policy(""), std::invalid_argument);
}

}  // namespace
