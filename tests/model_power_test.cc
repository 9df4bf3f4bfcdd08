#include "model/power_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "util/error.h"

namespace dvs::model {
namespace {

TEST(LinearDvsModel, SpeedProportionalToVoltage) {
  const LinearDvsModel cpu(0.5, 4.0, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(cpu.SpeedAt(1.0), 100.0);
  EXPECT_DOUBLE_EQ(cpu.SpeedAt(4.0), 400.0);
  EXPECT_DOUBLE_EQ(cpu.MaxSpeed(), 400.0);
  EXPECT_DOUBLE_EQ(cpu.MinSpeed(), 50.0);
}

TEST(LinearDvsModel, VoltageForSpeedIsInverse) {
  const LinearDvsModel cpu(0.5, 4.0, 1.0, 100.0);
  for (double v : {0.5, 1.0, 2.7, 4.0}) {
    EXPECT_NEAR(cpu.VoltageForSpeed(cpu.SpeedAt(v)), v, 1e-12);
  }
}

TEST(LinearDvsModel, EnergyQuadraticInVoltage) {
  const LinearDvsModel cpu(0.5, 4.0, 2.0, 100.0);
  EXPECT_DOUBLE_EQ(cpu.EnergyPerCycle(2.0), 8.0);  // ceff * V^2
  EXPECT_DOUBLE_EQ(cpu.Energy(2.0, 10.0), 80.0);
}

TEST(LinearDvsModel, RejectsBadParameters) {
  EXPECT_THROW(LinearDvsModel(0.0, 4.0, 1.0, 1.0), util::InvalidArgumentError);
  EXPECT_THROW(LinearDvsModel(4.0, 4.0, 1.0, 1.0), util::InvalidArgumentError);
  EXPECT_THROW(LinearDvsModel(0.5, 4.0, 0.0, 1.0), util::InvalidArgumentError);
  EXPECT_THROW(LinearDvsModel(0.5, 4.0, 1.0, 0.0), util::InvalidArgumentError);
  // Infinite parameters pass every ordering check but would plan infinite
  // energies or overflow the solver's speed bounds.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LinearDvsModel(0.5, inf, 1.0, 1.0), util::InvalidArgumentError);
  EXPECT_THROW(LinearDvsModel(0.5, 4.0, inf, 1.0), util::InvalidArgumentError);
  EXPECT_THROW(LinearDvsModel(0.5, 4.0, 1.0, inf), util::InvalidArgumentError);
}

TEST(DvsModel, ClampVoltage) {
  const LinearDvsModel cpu(0.5, 4.0, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(cpu.ClampVoltage(0.1), 0.5);
  EXPECT_DOUBLE_EQ(cpu.ClampVoltage(5.0), 4.0);
  EXPECT_DOUBLE_EQ(cpu.ClampVoltage(2.0), 2.0);
}

TEST(DvsModel, VoltageForWork) {
  const LinearDvsModel cpu(0.5, 4.0, 1.0, 100.0);
  // 200 cycles in 1 ms -> 200 cycles/ms -> 2 V.
  EXPECT_NEAR(cpu.VoltageForWork(200.0, 1.0), 2.0, 1e-12);
  // Too fast -> clamp at vmax.
  EXPECT_DOUBLE_EQ(cpu.VoltageForWork(1e9, 1.0), 4.0);
  // Very slow -> clamp at vmin.
  EXPECT_DOUBLE_EQ(cpu.VoltageForWork(1.0, 1e9), 0.5);
  // Degenerate window -> vmax; zero work -> vmin.
  EXPECT_DOUBLE_EQ(cpu.VoltageForWork(10.0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(cpu.VoltageForWork(0.0, 1.0), 0.5);
  EXPECT_THROW(cpu.VoltageForWork(-1.0, 1.0), util::InvalidArgumentError);
}

TEST(DiscreteDvsModel, QuantisesUp) {
  auto base = std::make_shared<LinearDvsModel>(0.5, 4.0, 1.0, 100.0);
  const DiscreteDvsModel cpu(base, {1.0, 2.0, 3.0, 4.0});
  // 150 cycles/ms needs 1.5 V -> next level up is 2 V.
  EXPECT_DOUBLE_EQ(cpu.VoltageForSpeed(150.0), 2.0);
  // Exactly at a level stays there.
  EXPECT_DOUBLE_EQ(cpu.VoltageForSpeed(200.0), 2.0);
  // Beyond the top level saturates.
  EXPECT_DOUBLE_EQ(cpu.VoltageForSpeed(1000.0), 4.0);
  EXPECT_DOUBLE_EQ(cpu.vmin(), 1.0);
  EXPECT_DOUBLE_EQ(cpu.vmax(), 4.0);
}

TEST(DiscreteDvsModel, EvenLevelsSpanRange) {
  const LinearDvsModel base(0.5, 4.0, 1.0, 100.0);
  const auto levels = DiscreteDvsModel::EvenLevels(base, 8);
  ASSERT_EQ(levels.size(), 8u);
  EXPECT_DOUBLE_EQ(levels.front(), 0.5);
  EXPECT_DOUBLE_EQ(levels.back(), 4.0);
  const auto one = DiscreteDvsModel::EvenLevels(base, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one.front(), 4.0);
}

TEST(DiscreteDvsModel, RejectsLevelsOutsideBase) {
  auto base = std::make_shared<LinearDvsModel>(1.0, 3.0, 1.0, 100.0);
  EXPECT_THROW(DiscreteDvsModel(base, {0.5}), util::InvalidArgumentError);
  EXPECT_THROW(DiscreteDvsModel(base, {}), util::InvalidArgumentError);
}

TEST(TransitionOverhead, ZeroDetection) {
  TransitionOverhead none;
  EXPECT_TRUE(none.IsZero());
  TransitionOverhead some{0.1, 0.0};
  EXPECT_FALSE(some.IsZero());
}

}  // namespace
}  // namespace dvs::model
