#include "sim/names.h"

#include "core/goldilocks.h"
#include "power/server_power.h"
#include "schedulers/borg.h"
#include "schedulers/e_pvm.h"
#include "schedulers/mpp.h"
#include "schedulers/random_scheduler.h"
#include "schedulers/rc_informed.h"

namespace gl {
namespace {

std::optional<Topology> MakeNamedTopology(const std::string& name) {
  const Resource server{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};
  if (name == "testbed16") return Topology::Testbed16();
  if (name == "leafspine") {
    return Topology::LeafSpine(8, 4, 2, server, 1000.0);
  }
  const std::string digits =
      name.rfind("fattree", 0) == 0 ? name.substr(7) : "";
  if (digits.empty() || digits.size() > 2 ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  const int k = std::stoi(digits);
  if (k < 2 || k > 64 || k % 2 != 0) return std::nullopt;
  return Topology::FatTree(k, server, 1000.0);
}

}  // namespace

const std::vector<std::string>& NamedScenarios() {
  static const std::vector<std::string> kNames = {"twitter", "azure", "msr"};
  return kNames;
}

std::optional<World> MakeWorld(const std::string& scenario,
                               const std::string& topology, int epochs) {
  World w;
  const bool fig13 = scenario == "msr";
  if (scenario == "twitter") {
    TwitterScenarioOptions opts;
    if (epochs > 0) opts.num_epochs = epochs;
    w.scenario = MakeTwitterCachingScenario(opts);
  } else if (scenario == "azure") {
    AzureScenarioOptions opts;
    if (epochs > 0) opts.num_epochs = epochs;
    w.scenario = MakeAzureMixScenario(opts);
  } else if (fig13) {
    // The 88-hour trace, sampled every 4 hours by default.
    MsrScenarioOptions opts;
    opts.num_epochs = epochs > 0 ? epochs : 22;
    opts.epoch_minutes = 88.0 * 60.0 / opts.num_epochs;
    w.scenario = MakeMsrLargeScaleScenario(opts);
    w.runner.server_power = ServerPowerModel::DellR940();
    // Flow-level network cost per hop: query + partial-response transfer
    // and the incast queueing a search fan-out suffers on shared fabric
    // links — milliseconds, not microseconds (cf. DCTCP's incast
    // measurements on the very trace this reproduces). Hourly epochs
    // already carry the burst multipliers in the demands, so intra-epoch
    // amplification is small.
    w.runner.latency.per_hop_ms = 2.0;
    w.runner.latency.burst_amplification = 0.05;
    w.runner.latency.sla_ms = 100.0;
  } else {
    return std::nullopt;
  }

  if (!topology.empty()) {
    std::optional<Topology> topo = MakeNamedTopology(topology);
    if (!topo) return std::nullopt;
    w.topology_name = topology;
    w.topology = std::move(*topo);
  } else if (fig13) {
    // Dell R940-class servers: 72 cores, 1.5 TB (4-socket box), 10G NIC.
    w.topology_name = "fattree28-r940";
    w.topology = Topology::FatTree(
        28, Resource{.cpu = 7200, .mem_gb = 1536, .net_mbps = 10000}, 10000.0);
  } else {
    w.topology_name = "testbed16";
    w.topology = Topology::Testbed16();
  }
  if (fig13) {
    w.runner.switch_models.assign(
        static_cast<std::size_t>(w.topology.num_levels()),
        SwitchPowerModel::Altoline6940());
  }
  return w;
}

const std::vector<std::string>& NamedSchedulers() {
  static const std::vector<std::string> kNames = {
      "goldilocks", "mpp", "borg", "epvm", "rc", "random"};
  return kNames;
}

std::unique_ptr<Scheduler> MakeNamedScheduler(const std::string& name,
                                              double pee, std::uint64_t seed,
                                              int partition_threads) {
  if (name == "goldilocks") {
    GoldilocksOptions opts;
    opts.pee_utilization = pee;
    opts.partition.threads = partition_threads;
    return std::make_unique<GoldilocksScheduler>(opts);
  }
  if (name == "mpp") return std::make_unique<MppScheduler>();
  if (name == "borg") return std::make_unique<BorgScheduler>();
  if (name == "epvm") return std::make_unique<EPvmScheduler>();
  if (name == "rc") return std::make_unique<RcInformedScheduler>();
  if (name == "random") return std::make_unique<RandomScheduler>(seed);
  return nullptr;
}

}  // namespace gl
