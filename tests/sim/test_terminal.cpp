#include "pcn/sim/terminal.hpp"

#include <gtest/gtest.h>

#include "pcn/common/error.hpp"

namespace pcn::sim {
namespace {

using geometry::Cell;

Terminal make_terminal(double call_prob = 0.01) {
  return Terminal(7, Cell{3, -1}, call_prob,
                  std::make_unique<RandomWalk>(Dimension::kTwoD, 0.1),
                  std::make_unique<DistanceUpdatePolicy>(Dimension::kTwoD, 2));
}

TEST(Terminal, ExposesItsIdentityAndState) {
  Terminal terminal = make_terminal();
  EXPECT_EQ(terminal.id(), 7);
  EXPECT_EQ(terminal.position(), (Cell{3, -1}));
  EXPECT_DOUBLE_EQ(terminal.call_probability(), 0.01);
  EXPECT_EQ(terminal.mobility().name(), "random-walk");
  EXPECT_EQ(terminal.update_policy().name(), "distance(d=2)");
}

TEST(Terminal, MoveToChangesThePosition) {
  Terminal terminal = make_terminal();
  terminal.move_to(Cell{4, -1});
  EXPECT_EQ(terminal.position(), (Cell{4, -1}));
}

TEST(Terminal, ValidatesItsConstructorArguments) {
  EXPECT_THROW(make_terminal(1.0), InvalidArgument);   // call prob = 1
  EXPECT_THROW(make_terminal(-0.1), InvalidArgument);  // negative
  EXPECT_THROW(
      Terminal(1, Cell{}, 0.01, nullptr,
               std::make_unique<DistanceUpdatePolicy>(Dimension::kTwoD, 1)),
      InvalidArgument);
  EXPECT_THROW(Terminal(1, Cell{}, 0.01,
                        std::make_unique<RandomWalk>(Dimension::kTwoD, 0.1),
                        nullptr),
               InvalidArgument);
}

}  // namespace
}  // namespace pcn::sim
