// Unit tests for the serial-parallel text notation.
#include "src/task/notation.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace sda::task;

TEST(Notation, BareLeaf) {
  const TreePtr t = parse_notation("T1");
  EXPECT_TRUE(t->is_leaf());
  EXPECT_EQ(t->name, "T1");
  EXPECT_EQ(t->exec_node, -1);
}

TEST(Notation, SerialChain) {
  const TreePtr t = parse_notation("[A B C]");
  ASSERT_TRUE(t->is_serial());
  ASSERT_EQ(t->children.size(), 3u);
  EXPECT_EQ(t->children[0]->name, "A");
  EXPECT_EQ(t->children[2]->name, "C");
}

TEST(Notation, ParallelGroup) {
  const TreePtr t = parse_notation("[A || B || C]");
  ASSERT_TRUE(t->is_parallel());
  ASSERT_EQ(t->children.size(), 3u);
}

TEST(Notation, Figure1Example) {
  const TreePtr t =
      parse_notation("[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]");
  ASSERT_TRUE(t->is_serial());
  ASSERT_EQ(t->children.size(), 4u);
  EXPECT_TRUE(t->children[1]->is_parallel());
  EXPECT_TRUE(t->children[1]->children[1]->is_serial());
  EXPECT_EQ(leaf_count(*t), 8);
}

TEST(Notation, LeafAttributes) {
  const TreePtr t = parse_notation("T3@2:1.5/1.2");
  EXPECT_EQ(t->exec_node, 2);
  EXPECT_DOUBLE_EQ(t->exec_time, 1.5);
  EXPECT_DOUBLE_EQ(t->pred_exec, 1.2);
}

TEST(Notation, LeafAttributesPexDefaultsToEx) {
  const TreePtr t = parse_notation("T@0:2.5");
  EXPECT_DOUBLE_EQ(t->exec_time, 2.5);
  EXPECT_DOUBLE_EQ(t->pred_exec, 2.5);
}

TEST(Notation, SingletonBracketsCollapse) {
  const TreePtr t = parse_notation("[A]");
  EXPECT_TRUE(t->is_leaf());
  EXPECT_EQ(t->name, "A");
}

TEST(Notation, WhitespaceIsFlexible) {
  const TreePtr t = parse_notation("  [ A||B ]  ");
  ASSERT_TRUE(t->is_parallel());
  EXPECT_EQ(t->children.size(), 2u);
}

TEST(Notation, MixedSeparatorsRejected) {
  EXPECT_THROW(parse_notation("[A || B C]"), NotationError);
  EXPECT_THROW(parse_notation("[A B || C]"), NotationError);
}

TEST(Notation, MalformedInputsRejected) {
  EXPECT_THROW(parse_notation(""), NotationError);
  EXPECT_THROW(parse_notation("[A B"), NotationError);
  EXPECT_THROW(parse_notation("A B"), NotationError);     // trailing input
  EXPECT_THROW(parse_notation("[]"), NotationError);
  EXPECT_THROW(parse_notation("[A |] B]"), NotationError);
  EXPECT_THROW(parse_notation("T@x"), NotationError);     // malformed node
  EXPECT_THROW(parse_notation("T@0:"), NotationError);    // malformed ex
}

TEST(Notation, ErrorCarriesPosition) {
  try {
    parse_notation("[A B");
    FAIL() << "expected NotationError";
  } catch (const NotationError& e) {
    EXPECT_EQ(e.position(), 0u);  // points at the unclosed '['
  }
}

// The number grammar, pinned: one optional leading sign ('+' skipped, '-'
// kept), digits, '.', and an exponent whose sign may only be '+' (a '-'
// after the first character ends the number).  Anything else is
// "malformed <field>" at the number's first character.
TEST(Notation, NumberSpellings) {
  struct Accepted {
    const char* text;
    double ex;
  };
  for (const Accepted& a : {Accepted{"A:+1.5", 1.5}, Accepted{"A:1e+2", 100.0},
                            Accepted{"A:.5", 0.5}, Accepted{"A:+.5", 0.5},
                            Accepted{"A:5.", 5.0}, Accepted{"A:00012", 12.0},
                            Accepted{"A:1E2", 100.0}, Accepted{"A:-.5", -0.5},
                            Accepted{"A:+0", 0.0}}) {
    const TreePtr t = parse_notation(a.text);
    EXPECT_EQ(t->exec_time, a.ex) << a.text;
    EXPECT_EQ(t->pred_exec, a.ex) << a.text;
  }
  EXPECT_EQ(parse_notation("A:1/+1.5")->pred_exec, 1.5);

  struct Rejected {
    const char* text;
    std::size_t offset;
    const char* what;
  };
  for (const Rejected& r :
       {Rejected{"A:1e", 2, "malformed execution time"},
        Rejected{"A:1.2.3", 2, "malformed execution time"},
        Rejected{"A:1e400", 2, "malformed execution time"},
        Rejected{"A:1e-320", 2, "malformed execution time"},
        Rejected{"A:1.5e-3", 2, "malformed execution time"},
        Rejected{"A:+", 2, "malformed execution time"},
        Rejected{"A:++1", 2, "malformed execution time"},
        Rejected{"A:+-1", 2, "malformed execution time"},
        Rejected{"A:-+1", 2, "malformed execution time"},
        Rejected{"A:+1e400", 2, "malformed execution time"},
        Rejected{"A:1e+", 2, "malformed execution time"},
        Rejected{"A:.", 2, "malformed execution time"},
        Rejected{"A:1-2", 3, "trailing input after task"},
        Rejected{"A:1/1e400", 4, "malformed predicted execution time"},
        Rejected{"A:1/++1", 4, "malformed predicted execution time"}}) {
    try {
      parse_notation(r.text);
      ADD_FAILURE() << r.text << " parsed";
    } catch (const NotationError& e) {
      EXPECT_EQ(e.position(), r.offset) << r.text;
      EXPECT_EQ(std::string(e.what()).rfind(r.what, 0), 0u)
          << r.text << ": " << e.what();
    }
  }
}

TEST(Notation, PrintPlain) {
  const TreePtr t = parse_notation("[T1 [T2 || T3] T4]");
  EXPECT_EQ(to_notation(*t), "[T1 [T2 || T3] T4]");
}

TEST(Notation, RoundTripWithAttributes) {
  const std::string text = "[A@0:1/1 [B@1:2/2 || C@2:0.5/0.5]]";
  const TreePtr t = parse_notation(text);
  const std::string printed = to_notation(*t, /*with_attrs=*/true);
  const TreePtr again = parse_notation(printed);
  EXPECT_EQ(leaf_count(*again), 3);
  EXPECT_EQ(to_notation(*again, true), printed);
  // Semantic equality of the round trip.
  const auto l1 = leaves(*t);
  const auto l2 = leaves(*again);
  ASSERT_EQ(l1.size(), l2.size());
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_EQ(l1[i]->exec_node, l2[i]->exec_node);
    EXPECT_DOUBLE_EQ(l1[i]->exec_time, l2[i]->exec_time);
    EXPECT_DOUBLE_EQ(l1[i]->pred_exec, l2[i]->pred_exec);
  }
}

TEST(Notation, UnnamedLeavesPrintPlaceholder) {
  const TreePtr t = make_leaf(0, 1.0);
  EXPECT_EQ(to_notation(*t), "T");
}

TEST(Notation, DeepNesting) {
  const TreePtr t = parse_notation("[[[[A || B]]] C]");
  EXPECT_EQ(leaf_count(*t), 3);
  EXPECT_TRUE(t->is_serial());
}

}  // namespace
