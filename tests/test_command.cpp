#include "delta/command.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace ipd {
namespace {

TEST(CopyCommand, Intervals) {
  const CopyCommand c{100, 200, 50};
  EXPECT_EQ(c.read_interval(), Interval::of(100, 50));
  EXPECT_EQ(c.write_interval(), Interval::of(200, 50));
}

TEST(CopyCommand, SelfOverlapDetection) {
  // Disjoint read/write.
  EXPECT_FALSE((CopyCommand{0, 100, 50}.self_overlaps()));
  // Forward-overlapping (f < t).
  EXPECT_TRUE((CopyCommand{0, 25, 50}.self_overlaps()));
  // Backward-overlapping (f > t).
  EXPECT_TRUE((CopyCommand{25, 0, 50}.self_overlaps()));
  // Identity copy.
  EXPECT_TRUE((CopyCommand{10, 10, 5}.self_overlaps()));
  // Exactly adjacent intervals do not overlap.
  EXPECT_FALSE((CopyCommand{0, 50, 50}.self_overlaps()));
}

TEST(CommandRef, AddLengthAndInterval) {
  const Bytes data = to_bytes("abcde");
  const CommandRef a{10, data.size(), 0, data.data()};
  EXPECT_EQ(a.length, 5u);
  EXPECT_EQ(a.write_interval(), Interval::of(10, 5));
  EXPECT_EQ(a.bytes().data(), data.data());
  EXPECT_EQ(a.bytes().size(), 5u);
}

TEST(CommandRef, Accessors) {
  const Bytes xy = to_bytes("xy");
  const CommandRef copy{2, 3, 1};
  const CommandRef add{7, 2, 0, xy.data()};

  EXPECT_FALSE(copy.is_add());
  EXPECT_TRUE(add.is_add());

  EXPECT_EQ(copy.to, 2u);
  EXPECT_EQ(add.to, 7u);
  EXPECT_EQ(copy.length, 3u);
  EXPECT_EQ(add.length, 2u);
  EXPECT_EQ(copy.write_interval(), Interval::of(2, 3));
  EXPECT_EQ(add.write_interval(), Interval::of(7, 2));
  EXPECT_EQ(copy.copy(), (CopyCommand{1, 2, 3}));
}

TEST(CommandRef, StreamFormatting) {
  const Bytes nines{9, 9};
  std::ostringstream os;
  os << CommandRef{2, 3, 1} << " " << CommandRef{4, 2, 0, nines.data()};
  EXPECT_EQ(os.str(), "copy<f=1, t=2, l=3> add<t=4, l=2>");
}

TEST(CommandRef, EqualityInAScript) {
  using test::A;
  using test::C;
  using test::script_of;
  EXPECT_EQ(script_of({C(1, 2, 3)}), script_of({C(1, 2, 3)}));
  EXPECT_NE(script_of({C(1, 2, 3)}), script_of({C(1, 2, 4)}));
  EXPECT_NE(script_of({C(1, 2, 3)}), script_of({A(2, Bytes{0, 0, 0})}));
}

}  // namespace
}  // namespace ipd
