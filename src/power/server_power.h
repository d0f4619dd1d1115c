// Server power models (Sec. II of the paper).
//
// Modern servers are *not* power proportional: below the Peak Energy
// Efficiency (PEE) utilization only the DVFS frequency scales, so power grows
// linearly; above it both voltage and frequency rise and P = C·V²·f grows
// cubically. The model is therefore piecewise:
//
//   P(u) = idle + (P_pee - idle) · u/u*                    for u ≤ u*
//   P(u) = P_pee + (max - P_pee) · (u³ - u*³)/(1 - u*³)    for u > u*
//
// With the shipped parameters, operations-per-watt is strictly increasing on
// [0, u*] and strictly decreasing on (u*, 1], i.e. the PEE point is exactly
// u* (verified by unit tests). Legacy pre-2010 servers use u* = 1 (pure
// linear curve; PEE at 100%), reproducing the dotted line in Fig. 1(a).
#pragma once

#include <string>

#include "common/resource.h"  // GL_UNITS

namespace gl {

class ServerPowerModel {
 public:
  // General piecewise model. idle_fraction and pee_power_fraction are
  // fractions of max_watts; pee_utilization in (0, 1].
  ServerPowerModel(std::string name, double max_watts, double idle_fraction,
                   double pee_utilization, double pee_power_fraction);

  // --- presets --------------------------------------------------------------
  // Strictly linear pre-2010 server (Fig 1a dotted line); PEE at 100%.
  static ServerPowerModel Linear2010(double max_watts = 300.0);
  // The "Dell-2018" curve of Fig 1(a): PEE at 70% utilization.
  static ServerPowerModel Dell2018(double max_watts = 750.0);
  // Dell PowerEdge R940, the Fig 13 simulation server.
  static ServerPowerModel DellR940();
  // Facebook 1S SoC server (96 W), Table I.
  static ServerPowerModel Facebook1S();
  // Microsoft blade server (250 W), Table I.
  static ServerPowerModel MicrosoftBlade();
  // Arbitrary PEE point at the given utilization (ablation studies).
  static ServerPowerModel WithPeePoint(double pee_utilization,
                                       double max_watts = 750.0);

  // Power draw in watts at `utilization` in [0, 1] (clamped). A powered-off
  // server draws 0 — use 0 only via ServerOff(), never Power(0), which is
  // idle-but-on.
  [[nodiscard]] double Power(double utilization GL_UNITS(dimensionless)) const
      GL_UNITS(watts);
  [[nodiscard]] double NormalizedPower(
      double utilization GL_UNITS(dimensionless)) const
      GL_UNITS(dimensionless) {
    return Power(utilization) / max_watts_;
  }
  static constexpr double ServerOff() { return 0.0; }

  // Work completed per watt, normalising full-load throughput to 1.0.
  [[nodiscard]] double EfficiencyPerWatt(double utilization) const;

  // The utilization that maximises EfficiencyPerWatt (== pee_utilization by
  // construction; exposed for tests and benches).
  [[nodiscard]] double PeakEfficiencyUtilization() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double max_watts() const { return max_watts_; }
  [[nodiscard]] double idle_watts() const GL_UNITS(watts) {
    return idle_fraction_ * max_watts_;
  }
  [[nodiscard]] double pee_utilization() const { return pee_utilization_; }

 private:
  std::string name_;
  double max_watts_ GL_UNITS(watts);
  double idle_fraction_ GL_UNITS(dimensionless);
  double pee_utilization_ GL_UNITS(dimensionless);
  double pee_power_fraction_ GL_UNITS(dimensionless);
};

// Switch power (Table I models). Switch draw is dominated by chassis +
// fabric; ports add a smaller load-independent share that can be saved by
// disabling idle ports (traffic packing).
class SwitchPowerModel {
 public:
  SwitchPowerModel(std::string name, double max_watts GL_UNITS(watts),
                   double port_power_share GL_UNITS(dimensionless) = 0.3)
      : name_(std::move(name)),
        max_watts_(max_watts),
        port_power_share_(port_power_share) {}

  // Power with a fraction of ports enabled (1.0 = all ports).
  [[nodiscard]] double Power(
      double active_port_fraction GL_UNITS(dimensionless) = 1.0) const
      GL_UNITS(watts) {
    const double chassis GL_UNITS(watts) =
        max_watts_ * (1.0 - port_power_share_);
    return chassis + max_watts_ * port_power_share_ * active_port_fraction;
  }
  static constexpr double SwitchOff() { return 0.0; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double max_watts() const { return max_watts_; }

  static SwitchPowerModel FacebookWedge() { return {"Facebook Wedge", 282.0}; }
  static SwitchPowerModel Facebook6Pack() { return {"Facebook 6 Pack", 1400.0}; }
  static SwitchPowerModel Altoline6940() { return {"HPE Altoline 6940", 315.0}; }
  // The testbed's HPE 3800 48-port switch.
  static SwitchPowerModel Hpe3800() { return {"HPE 3800", 160.0}; }

 private:
  std::string name_;
  double max_watts_ GL_UNITS(watts);
  double port_power_share_ GL_UNITS(dimensionless);
};

}  // namespace gl
