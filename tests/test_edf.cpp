// Unit tests for the ready queue under its default policy,
// earliest-deadline-first.
#include "src/sched/ready_queue.hpp"

#include <gtest/gtest.h>

#include "src/task/task.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace sda;
using sched::ReadyQueue;
using task::make_local_task;
using task::TaskPtr;

TaskPtr with_deadline(std::uint64_t id, double dl) {
  return make_local_task(id, 0, 0.0, 1.0, dl);
}

TEST(Edf, EmptyBehaviour) {
  ReadyQueue edf;
  EXPECT_EQ(edf.size(), 0u);
  EXPECT_TRUE(edf.empty());
  EXPECT_EQ(edf.pop(), nullptr);
  EXPECT_EQ(edf.peek(), nullptr);
}

TEST(Edf, PopsEarliestDeadlineFirst) {
  ReadyQueue edf;
  edf.push(with_deadline(1, 9.0));
  edf.push(with_deadline(2, 3.0));
  edf.push(with_deadline(3, 6.0));
  EXPECT_EQ(edf.pop()->id, 2u);
  EXPECT_EQ(edf.pop()->id, 3u);
  EXPECT_EQ(edf.pop()->id, 1u);
}

TEST(Edf, OrdersByVirtualNotRealDeadline) {
  ReadyQueue edf;
  TaskPtr a = with_deadline(1, 10.0);
  a->attrs.virtual_deadline = 2.0;  // promoted (DIV-x style)
  TaskPtr b = with_deadline(2, 5.0);
  edf.push(a);
  edf.push(b);
  EXPECT_EQ(edf.pop()->id, 1u);
}

TEST(Edf, TiesAreFifo) {
  ReadyQueue edf;
  for (std::uint64_t id = 1; id <= 5; ++id) edf.push(with_deadline(id, 4.0));
  for (std::uint64_t id = 1; id <= 5; ++id) EXPECT_EQ(edf.pop()->id, id);
}

TEST(Edf, PeekMatchesPop) {
  ReadyQueue edf;
  edf.push(with_deadline(1, 9.0));
  edf.push(with_deadline(2, 3.0));
  EXPECT_EQ(edf.peek()->id, 2u);
  EXPECT_EQ(edf.pop()->id, 2u);
  EXPECT_EQ(edf.peek()->id, 1u);
}

TEST(Edf, RemoveSpecificTask) {
  ReadyQueue edf;
  TaskPtr a = with_deadline(1, 3.0);
  TaskPtr b = with_deadline(2, 3.0);  // same deadline as a
  TaskPtr c = with_deadline(3, 7.0);
  edf.push(a);
  edf.push(b);
  edf.push(c);
  const TaskPtr removed = edf.remove(*b);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed.get(), b.get());
  EXPECT_EQ(edf.size(), 2u);
  EXPECT_EQ(edf.pop()->id, 1u);
  EXPECT_EQ(edf.pop()->id, 3u);
}

TEST(Edf, RemoveAbsentTaskReturnsNull) {
  ReadyQueue edf;
  TaskPtr queued = with_deadline(1, 3.0);
  TaskPtr other = with_deadline(2, 3.0);
  edf.push(queued);
  EXPECT_EQ(edf.remove(*other), nullptr);
  EXPECT_EQ(edf.size(), 1u);
  // Removing twice fails the second time.
  EXPECT_NE(edf.remove(*queued), nullptr);
  EXPECT_EQ(edf.remove(*queued), nullptr);
}

TEST(Edf, NegativeDeadlinesSortFirst) {
  // GF sets virtual deadlines hugely negative; they must win.
  ReadyQueue edf;
  TaskPtr gf = with_deadline(1, 5.0);
  gf->attrs.virtual_deadline = 5.0 - 1e9;
  edf.push(with_deadline(2, 0.1));
  edf.push(gf);
  EXPECT_EQ(edf.pop()->id, 1u);
}

TEST(Edf, Name) {
  EXPECT_STREQ(sched::to_string(sched::Policy::kEdf), "EDF");
}

TEST(Edf, LargeMixedWorkloadStaysSorted) {
  ReadyQueue edf;
  std::uint64_t state = 5;
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    const double dl =
        static_cast<double>(sda::util::splitmix64_next(state) % 1000);
    edf.push(with_deadline(id, dl));
  }
  double last = -1.0;
  while (edf.size() > 0) {
    const TaskPtr t = edf.pop();
    EXPECT_GE(t->attrs.virtual_deadline, last);
    last = t->attrs.virtual_deadline;
  }
}

}  // namespace
