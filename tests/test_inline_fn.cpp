// InlineFn (util::UniqueFn<void()>): the small-buffer-optimized
// move-only callable behind EventFn.
#include "src/sim/timer_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

namespace sda::sim {
namespace {

TEST(InlineFn, DefaultConstructedIsEmpty) {
  InlineFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  InlineFn null_fn(nullptr);
  EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(InlineFn, InvokesSmallCapture) {
  int hits = 0;
  InlineFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, SmallCaptureIsStoredInline) {
  int x = 0;
  auto lambda = [&x] { ++x; };
  EXPECT_TRUE(InlineFn::stores_inline<decltype(lambda)>());
}

TEST(InlineFn, LargeCaptureFallsBackToHeapAndStillWorks) {
  std::array<double, 32> big{};  // 256 bytes — well past kBufferSize.
  big[31] = 7.5;
  double sink = 0;
  auto lambda = [big, &sink] { sink = big[31]; };
  EXPECT_FALSE(InlineFn::stores_inline<decltype(lambda)>());
  InlineFn fn(std::move(lambda));
  fn();
  EXPECT_DOUBLE_EQ(sink, 7.5);
}

TEST(InlineFn, OverAlignedCaptureFallsBackToHeapAndStillWorks) {
  // The inline buffer is pointer-aligned, which keeps an InlineFn at 56
  // bytes; a capture that needs 16-byte alignment takes the heap cell.
  struct alignas(16) Wide {
    double v[2];
  };
  static_assert(sizeof(InlineFn) == 56);
  double sink = 0.0;
  auto lambda = [w = Wide{{1.0, 2.0}}, &sink] { sink = w.v[0] + w.v[1]; };
  EXPECT_FALSE(InlineFn::stores_inline<decltype(lambda)>());
  InlineFn fn(std::move(lambda));
  fn();
  EXPECT_DOUBLE_EQ(sink, 3.0);
}

TEST(InlineFn, MoveOnlyCaptureIsAccepted) {
  // std::function would reject this capture (it requires copyability).
  auto owned = std::make_unique<int>(41);
  int result = 0;
  InlineFn fn([p = std::move(owned), &result] { result = *p + 1; });
  fn();
  EXPECT_EQ(result, 42);
}

TEST(InlineFn, MoveTransfersOwnership) {
  int hits = 0;
  InlineFn a([&hits] { ++hits; });
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineFn c;
  c = std::move(b);
  ASSERT_TRUE(static_cast<bool>(c));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, MoveAssignDestroysPreviousPayload) {
  auto tracked = std::make_shared<int>(0);
  InlineFn fn([keep = tracked] { (void)keep; });
  EXPECT_EQ(tracked.use_count(), 2);
  fn = InlineFn([] {});
  EXPECT_EQ(tracked.use_count(), 1);  // old capture destroyed on assignment
}

TEST(InlineFn, ResetReleasesCaptures) {
  auto tracked = std::make_shared<int>(0);
  InlineFn fn([keep = tracked] { (void)keep; });
  EXPECT_EQ(tracked.use_count(), 2);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(tracked.use_count(), 1);
  fn.reset();  // idempotent
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(InlineFn, DestructorReleasesHeapCapture) {
  auto tracked = std::make_shared<int>(0);
  {
    std::array<char, 128> pad{};
    InlineFn fn([keep = tracked, pad] { (void)keep, (void)pad; });
    EXPECT_FALSE((InlineFn::stores_inline<
                  std::decay_t<decltype([keep = tracked, pad] {
                    (void)keep, (void)pad;
                  })>>()));
    EXPECT_EQ(tracked.use_count(), 2);
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(InlineFn, MovedLargeCaptureInvokesAtNewHome) {
  std::array<double, 32> big{};
  big[0] = 3.25;
  double sink = 0;
  InlineFn a([big, &sink] { sink = big[0]; });
  InlineFn b(std::move(a));
  b();
  EXPECT_DOUBLE_EQ(sink, 3.25);
}

}  // namespace
}  // namespace sda::sim
