// Standalone invariant-audit runner.
//
// Replays a scenario through an EpochController with the InvariantAuditor
// enabled and prints every finding, plus an upfront audit of the topology
// and the shipped power models. Exit status 0 means no errors (warnings are
// reported but tolerated); 1 means at least one error-severity finding; 2
// means bad usage.
//
//   gl_audit [--scenario=twitter|azure] [--scheduler=goldilocks|epvm|mpp|
//             borg|rc|random] [--topology=testbed16|fattree4|leafspine]
//             [--epochs=N] [--pee=0.70] [--pee-strict] [--fail-fast]
//
// The PEE cap defaults to a warning (overcommit policies violate it by
// design); --pee-strict promotes it to an error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/invariant_auditor.h"
#include "core/epoch_controller.h"
#include "core/scheduler_factory.h"
#include "power/server_power.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace {

struct Args {
  std::string scenario = "twitter";
  std::string scheduler = "goldilocks";
  std::string topology = "testbed16";
  int epochs = -1;  // scenario default
  double pee = 0.70;
  bool pee_strict = false;
  bool fail_fast = false;
};

bool ParseFlag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  out = arg + n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--scenario=", args.scenario) ||
        ParseFlag(argv[i], "--scheduler=", args.scheduler) ||
        ParseFlag(argv[i], "--topology=", args.topology)) {
      continue;
    }
    if (ParseFlag(argv[i], "--epochs=", value)) {
      args.epochs = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(argv[i], "--pee=", value)) {
      args.pee = std::atof(value.c_str());
      continue;
    }
    if (std::strcmp(argv[i], "--pee-strict") == 0) {
      args.pee_strict = true;
      continue;
    }
    if (std::strcmp(argv[i], "--fail-fast") == 0) {
      args.fail_fast = true;
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    return 2;
  }

  gl::Topology topo;
  if (args.topology == "testbed16") {
    topo = gl::Topology::Testbed16();
  } else if (args.topology == "fattree4") {
    topo = gl::Topology::FatTree(
        4, gl::Resource{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000}, 1000.0);
  } else if (args.topology == "leafspine") {
    topo = gl::Topology::LeafSpine(
        8, 4, 2, gl::Resource{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000},
        1000.0);
  } else {
    std::fprintf(stderr, "unknown topology: %s\n", args.topology.c_str());
    return 2;
  }

  std::unique_ptr<gl::Scenario> scenario;
  if (args.scenario == "twitter") {
    gl::TwitterScenarioOptions opts;
    if (args.epochs > 0) opts.num_epochs = args.epochs;
    scenario = gl::MakeTwitterCachingScenario(opts);
  } else if (args.scenario == "azure") {
    gl::AzureScenarioOptions opts;
    if (args.epochs > 0) opts.num_epochs = args.epochs;
    scenario = gl::MakeAzureMixScenario(opts);
  } else {
    std::fprintf(stderr, "unknown scenario: %s\n", args.scenario.c_str());
    return 2;
  }

  auto scheduler = gl::MakeNamedScheduler(args.scheduler, args.pee);
  if (scheduler == nullptr) {
    std::fprintf(stderr, "unknown scheduler: %s\n", args.scheduler.c_str());
    return 2;
  }

  gl::AuditOptions audit_opts;
  audit_opts.pee_utilization = args.pee;
  audit_opts.pee_cap_is_error = args.pee_strict;
  const gl::InvariantAuditor auditor(audit_opts);

  // Static state first: the topology tree and the shipped power models are
  // audited once, before any placement runs.
  gl::AuditReport static_report;
  auditor.AuditTopology(topo, static_report);
  auditor.AuditBandwidth(topo, static_report);
  const gl::ServerPowerModel models[] = {
      gl::ServerPowerModel::Dell2018(), gl::ServerPowerModel::DellR940(),
      gl::ServerPowerModel::Linear2010(), gl::ServerPowerModel::Facebook1S(),
      gl::ServerPowerModel::MicrosoftBlade()};
  for (const auto& model : models) {
    auditor.AuditPowerModel(model, static_report);
  }
  std::printf("static audit (%s, %d servers): %d error(s), %d warning(s)\n",
              args.topology.c_str(), topo.num_servers(),
              static_report.errors(), static_report.warnings());
  if (!static_report.clean()) std::fputs(static_report.ToString().c_str(), stdout);

  gl::EpochController controller(std::move(scheduler), topo);
  controller.EnableAudit(audit_opts, args.fail_fast);

  const gl::Workload& workload = scenario->workload();
  for (int epoch = 0; epoch < scenario->num_epochs(); ++epoch) {
    const auto demands = scenario->DemandsAt(epoch);
    const auto active = scenario->ActiveAt(epoch);
    const auto decision = controller.Step(workload, demands, active);
    std::printf("epoch %3d: placed %4d  migrations %d", epoch,
                decision.containers_placed, decision.containers_moved);
    if (!decision.plan.stuck.empty()) {
      std::printf(" (%zu stuck)", decision.plan.stuck.size());
    }
    std::printf("  findings so far %zu\n",
                controller.audit_report().findings.size());
  }

  const gl::AuditReport& report = controller.audit_report();
  std::printf("\n%s — %s over %d epochs: %d error(s), %d warning(s)\n",
              args.scheduler.c_str(), args.scenario.c_str(),
              scenario->num_epochs(), report.errors(), report.warnings());
  if (!report.clean()) std::fputs(report.ToString().c_str(), stdout);
  return (report.errors() > 0 || static_report.errors() > 0) ? 1 : 0;
}
