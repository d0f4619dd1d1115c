#include "topology/topology.h"

#include <algorithm>

namespace gl {

NodeId Topology::AddSwitchNode(NodeId parent, int level, double uplink_mbps,
                               int physical_switches, int physical_uplinks) {
  GOLDILOCKS_CHECK_GE(level, 1);
  const NodeId id{num_nodes()};
  Node n;
  n.id = id;
  n.parent = parent;
  n.level = level;
  n.uplink_capacity_mbps = uplink_mbps;
  n.physical_switches = physical_switches;
  n.physical_uplinks = physical_uplinks;
  if (parent.valid()) {
    nodes_[CheckedNode(parent)].children.push_back(id);
    GOLDILOCKS_CHECK_MSG(level < nodes_[CheckedNode(parent)].level,
                         "child level must be below parent level");
  } else {
    GOLDILOCKS_CHECK_MSG(!root_.valid(), "topology already has a root");
    root_ = id;
  }
  nodes_.push_back(std::move(n));
  num_levels_ = std::max(num_levels_, level + 1);
  num_checked_uplinks_ += uplink_checked(id) ? 1 : 0;
  return id;
}

ServerId Topology::AddServer(NodeId rack, const Resource& capacity) {
  GOLDILOCKS_CHECK(rack.valid());
  const NodeId node_id{num_nodes()};
  const ServerId sid{num_servers()};
  Node n;
  n.id = node_id;
  n.parent = rack;
  n.level = 0;
  n.uplink_capacity_mbps = capacity.net_mbps;
  n.physical_uplinks = 1;
  n.server = sid;
  nodes_[CheckedNode(rack)].children.push_back(node_id);
  nodes_.push_back(std::move(n));
  server_nodes_.push_back(node_id);
  server_capacity_.push_back(capacity);
  for (NodeId cur = node_id; node(cur).parent.valid();
       cur = node(cur).parent) {
    chain_nodes_.push_back(cur);
  }
  chain_offsets_.push_back(chain_nodes_.size());
  AddNicBelow(CheckedServer(sid), capacity.net_mbps);
  return sid;
}

void Topology::set_server_capacity(ServerId s, const Resource& c) {
  const std::size_t i = CheckedServer(s);
  const double old_nic GL_UNITS(bits_per_sec) = server_capacity_[i].net_mbps;
  // The server's own link follows its NIC, keeping any degradation: an
  // undegraded link stays equal to the NIC.
  const NodeId leaf = server_nodes_[i];
  Node& n = nodes_[CheckedNode(leaf)];
  num_checked_uplinks_ -= uplink_checked(leaf) ? 1 : 0;
  n.uplink_capacity_mbps = old_nic > 0.0
                               ? n.uplink_capacity_mbps / old_nic * c.net_mbps
                               : c.net_mbps;
  num_checked_uplinks_ += uplink_checked(leaf) ? 1 : 0;
  AddNicBelow(i, c.net_mbps - old_nic);
  server_capacity_[i] = c;
}

void Topology::AddNicBelow(std::size_t s,
                           double delta_mbps GL_UNITS(bits_per_sec)) {
  for (std::size_t k = chain_offsets_[s]; k < chain_offsets_[s + 1]; ++k) {
    const NodeId id = chain_nodes_[k];
    num_checked_uplinks_ -= uplink_checked(id) ? 1 : 0;
    nodes_[CheckedNode(id)].nic_below_mbps += delta_mbps;
    num_checked_uplinks_ += uplink_checked(id) ? 1 : 0;
  }
}

Topology Topology::FatTree(int k, const Resource& server_capacity,
                           double link_mbps) {
  GOLDILOCKS_CHECK(k >= 2 && k % 2 == 0);
  Topology t;
  const int half = k / 2;
  // Root stands for the (k/2)^2 core switches.
  const NodeId root = t.AddSwitchNode(NodeId::invalid(), 3, 0.0,
                                      half * half, 0);
  for (int p = 0; p < k; ++p) {
    // A pod: k/2 aggregation switches; its outbound bundle is
    // (k/2)^2 links of `link_mbps` to the core.
    const NodeId pod = t.AddSwitchNode(root, 2, half * half * link_mbps,
                                       half, half * half);
    for (int r = 0; r < half; ++r) {
      // A rack: one edge switch with k/2 uplinks into the aggregation.
      const NodeId rack =
          t.AddSwitchNode(pod, 1, half * link_mbps, 1, half);
      for (int s = 0; s < half; ++s) {
        Resource cap = server_capacity;
        cap.net_mbps = link_mbps;
        t.AddServer(rack, cap);
      }
    }
  }
  return t;
}

Topology Topology::LeafSpine(int leaves, int servers_per_leaf, int spines,
                             const Resource& server_capacity,
                             double link_mbps) {
  GOLDILOCKS_CHECK(leaves >= 1 && servers_per_leaf >= 1 && spines >= 1);
  Topology t;
  const NodeId root = t.AddSwitchNode(NodeId::invalid(), 2, 0.0, spines, 0);
  for (int l = 0; l < leaves; ++l) {
    const NodeId leaf = t.AddSwitchNode(
        root, 1, static_cast<double>(spines) * link_mbps, 1, spines);
    for (int s = 0; s < servers_per_leaf; ++s) {
      Resource cap = server_capacity;
      cap.net_mbps = link_mbps;
      t.AddServer(leaf, cap);
    }
  }
  return t;
}

Topology Topology::ThreeTier(const ThreeTierSpec& spec) {
  GOLDILOCKS_CHECK(spec.pods >= 1 && spec.racks_per_pod >= 1 &&
                   spec.servers_per_rack >= 1);
  Topology t;
  const NodeId root =
      t.AddSwitchNode(NodeId::invalid(), 3, 0.0, spec.core_switches, 0);
  for (int p = 0; p < spec.pods; ++p) {
    const NodeId pod = t.AddSwitchNode(
        root, 2, spec.pod_uplinks * spec.fabric_link_mbps, spec.agg_per_pod,
        spec.pod_uplinks);
    for (int r = 0; r < spec.racks_per_pod; ++r) {
      const NodeId rack = t.AddSwitchNode(
          pod, 1, spec.rack_uplinks * spec.fabric_link_mbps, 1,
          spec.rack_uplinks);
      for (int s = 0; s < spec.servers_per_rack; ++s) {
        Resource cap = spec.server_capacity;
        cap.net_mbps = spec.server_link_mbps;
        t.AddServer(rack, cap);
      }
    }
  }
  return t;
}

Topology Topology::Vl2(int num_tors, const Resource& server_capacity,
                       double server_link_mbps) {
  GOLDILOCKS_CHECK_GE(num_tors, 2);
  // VL2: 20 servers per ToR, each ToR dual-homed (2×10G in the paper's
  // Table I row) into the aggregation; aggregation fully meshed to
  // intermediates. Modelled as pods of 8 ToRs under aggregation pairs.
  ThreeTierSpec spec;
  spec.racks_per_pod = 8;
  spec.pods = std::max(1, num_tors / spec.racks_per_pod);
  spec.servers_per_rack = 20;
  spec.rack_uplinks = 2;
  spec.agg_per_pod = 2;
  spec.pod_uplinks = 8;
  spec.core_switches = std::max(2, spec.pods / 2);
  spec.server_link_mbps = server_link_mbps;
  spec.fabric_link_mbps = 40000.0;
  spec.server_capacity = server_capacity;
  return ThreeTier(spec);
}

Topology Topology::Testbed16() {
  // Sec. V: 32-core AMD Opteron 6272, 64 GB, 1G NIC; 8 virtual leaf
  // switches × 2 servers, 2 spine switches.
  const Resource cap{.cpu = 3200.0, .mem_gb = 64.0, .net_mbps = 1000.0};
  return LeafSpine(/*leaves=*/8, /*servers_per_leaf=*/2, /*spines=*/2, cap,
                   /*link_mbps=*/1000.0);
}

int Topology::num_switches() const {
  int n = 0;
  for (const auto& node : nodes_) n += node.physical_switches;
  return n;
}

int Topology::num_links() const {
  int n = 0;
  for (const auto& node : nodes_) n += node.physical_uplinks;
  return n;
}

Resource Topology::total_server_capacity() const {
  Resource total;
  for (const auto& c : server_capacity_) total += c;
  return total;
}

Resource Topology::average_server_capacity() const {
  if (server_capacity_.empty()) return {};
  return total_server_capacity() * (1.0 / num_servers());
}

int Topology::HopDistance(ServerId a, ServerId b) const {
  int hops = 0;
  ForEachUplinkBetween(a, b, [&hops](NodeId, int) { ++hops; });
  return hops;
}

std::vector<ServerId> Topology::ServersUnder(NodeId subtree) const {
  std::vector<ServerId> out;
  std::vector<NodeId> stack{subtree};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    const auto& n = node(cur);
    if (n.level == 0) {
      out.push_back(n.server);
      continue;
    }
    // Push children in reverse so the left-most child is processed first.
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

std::vector<NodeId> Topology::NodesAtLevel(int level) const {
  std::vector<NodeId> out;
  if (!root_.valid()) return out;
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    const auto& n = node(cur);
    if (n.level == level) {
      out.push_back(cur);
      continue;  // do not descend past the requested level
    }
    if (n.level < level) continue;
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

NodeId Topology::AncestorAt(NodeId id, int level) const {
  NodeId cur = id;
  while (cur.valid() && node(cur).level < level) cur = node(cur).parent;
  if (cur.valid() && node(cur).level == level) return cur;
  return NodeId::invalid();
}

void Topology::DegradeUplink(NodeId id,
                             double factor GL_UNITS(dimensionless)) {
  GOLDILOCKS_CHECK(factor >= 0.0 && factor <= 1.0);
  num_checked_uplinks_ -= uplink_checked(id) ? 1 : 0;
  auto& n = nodes_[CheckedNode(id)];
  n.uplink_capacity_mbps *= factor;
  n.physical_uplinks = static_cast<int>(n.physical_uplinks * factor);
  num_checked_uplinks_ += uplink_checked(id) ? 1 : 0;
}

}  // namespace gl
