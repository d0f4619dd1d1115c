// Tests for the name table (sim/names.h): every scenario, topology and
// scheduler name builds what its documentation says, and an unknown name is
// rejected.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "power/server_power.h"
#include "sim/names.h"

namespace gl {
namespace {

TEST(Names, TestbedScenariosRunOnTestbed16) {
  for (const std::string name : {"twitter", "azure"}) {
    const auto world = MakeWorld(name);
    ASSERT_TRUE(world.has_value()) << name;
    EXPECT_EQ(world->topology_name, "testbed16");
    EXPECT_EQ(world->topology.num_servers(), 16);
    EXPECT_EQ(world->scenario->num_epochs(), 60);
    EXPECT_EQ(world->scenario->epoch_minutes(), 1.0);
    EXPECT_TRUE(world->runner.switch_models.empty());
    EXPECT_EQ(MakeWorld(name, "", 8)->scenario->num_epochs(), 8);
  }
  EXPECT_EQ(MakeWorld("twitter")->scenario->workload().size(), 176);
}

TEST(Names, MsrIsTheFig13World) {
  const auto world = MakeWorld("msr");
  ASSERT_TRUE(world.has_value());
  EXPECT_EQ(world->scenario->workload().size(), 49392);
  EXPECT_EQ(world->topology.num_servers(), 5488);
  EXPECT_EQ(world->topology_name, "fattree28-r940");
  EXPECT_EQ(world->scenario->num_epochs(), 22);
  EXPECT_EQ(world->scenario->epoch_minutes(), 240.0);
  EXPECT_EQ(world->runner.server_power.name(),
            ServerPowerModel::DellR940().name());
  ASSERT_EQ(static_cast<int>(world->runner.switch_models.size()),
            world->topology.num_levels());
  EXPECT_EQ(world->runner.switch_models.back().name(),
            SwitchPowerModel::Altoline6940().name());
  EXPECT_EQ(world->runner.latency.per_hop_ms, 2.0);

  // --epochs=N spreads N epochs over the same 88 hours.
  const auto four = MakeWorld("msr", "", 4);
  ASSERT_TRUE(four.has_value());
  EXPECT_EQ(four->scenario->num_epochs(), 4);
  EXPECT_EQ(four->scenario->epoch_minutes(), 1320.0);
}

TEST(Names, TopologyNamesOverrideTheWorld) {
  const std::pair<const char*, int> kServers[] = {
      {"testbed16", 16}, {"fattree4", 16}, {"fattree6", 54}, {"leafspine", 32}};
  for (const auto& [name, servers] : kServers) {
    const auto world = MakeWorld("twitter", name);
    ASSERT_TRUE(world.has_value()) << name;
    EXPECT_EQ(world->topology_name, name);
    EXPECT_EQ(world->topology.num_servers(), servers) << name;
  }
  // The Fig 13 models follow the topology they run on.
  const auto small = MakeWorld("msr", "leafspine", 2);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->topology.num_servers(), 32);
  EXPECT_EQ(static_cast<int>(small->runner.switch_models.size()),
            small->topology.num_levels());
}

TEST(Names, EveryNamedSchedulerBuilds) {
  for (const auto& name : NamedSchedulers()) {
    EXPECT_NE(MakeNamedScheduler(name), nullptr) << name;
  }
}

TEST(Names, UnknownNamesAreRejected) {
  EXPECT_FALSE(MakeWorld("wikipedia").has_value());
  for (const std::string topology :
       {"testbed", "fattree", "fattree5", "fattree0", "fattree66", "fattree4x",
        "fattree-4", "leafspine2"}) {
    EXPECT_FALSE(MakeWorld("twitter", topology).has_value()) << topology;
  }
  EXPECT_EQ(MakeNamedScheduler("e-pvm"), nullptr);
  EXPECT_EQ(MakeNamedScheduler("all"), nullptr);
}

}  // namespace
}  // namespace gl
