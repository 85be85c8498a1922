#include "consensus/fd_stacks.hpp"

namespace ecfd::consensus {

const std::vector<FdStackInfo>& all_fd_stacks() {
  static const std::vector<FdStackInfo> kStacks = {
      {FdStack::kRing, "ring", "ring",
       "ring ◇S/◇P with its free leader (◇C at no extra cost)", true},
      {FdStack::kHeartbeatP, "heartbeat_p", "heartbeat",
       "all-to-all heartbeat ◇P, leader = first unsuspected", true},
      {FdStack::kOmegaPlusHeartbeat, "omega_heartbeat", "mix",
       "leader-candidate Omega + heartbeat ◇S, composed", true},
      {FdStack::kEfficientP, "efficient_p", "effp",
       "§4 piggybacked Omega+◇P (cheapest flat full stack)", true},
      {FdStack::kScriptedStable, "scripted", "scripted",
       "scripted: chaos until fd_stable_at, then perfect", false},
      {FdStack::kHeartbeatAdaptive, "heartbeat_adaptive", "adaptive",
       "heartbeat ◇P with Chen-style adaptive timeouts", true},
      {FdStack::kHierC, "hier_c", "hier",
       "two-level hierarchical ◇C: √n cells, O(n) msgs/period", false},
      {FdStack::kSwim, "swim", "swim",
       "SWIM gossip membership as ◇C: O(1) msgs per node per period", false},
      {FdStack::kStableLeader, "stable_leader", "stable",
       "ADFT stable Omega; suspects everyone but the leader", true},
      {FdStack::kEcfd, "ecfd", "ecfd",
       "the paper's stack: stable Omega -> Fig. 2 ◇P, 2(n-1) msgs/period",
       true},
  };
  return kStacks;
}

const FdStackInfo& fd_stack_info(FdStack f) {
  return all_fd_stacks()[static_cast<std::size_t>(f)];
}

const FdStackInfo* fd_stack_by_name(const std::string& s) {
  for (const FdStackInfo& info : all_fd_stacks()) {
    if (s == info.name || s == info.alias) return &info;
  }
  return nullptr;
}

const std::vector<std::string>& fd_msg_prefixes() {
  static const std::vector<std::string> kPrefixes = {
      "msg.hb_p.", "msg.ring.", "msg.lc.",   "msg.ofs.", "msg.effp.",
      "msg.hier.", "msg.swim.", "msg.sl.",   "msg.ctp.",
  };
  return kPrefixes;
}

}  // namespace ecfd::consensus
