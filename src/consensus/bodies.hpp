#pragma once

#include "consensus/consensus.hpp"

/// \file bodies.hpp
/// The message bodies exchanged by the consensus engines (core/consensus_c
/// and consensus/chandra_toueg share these exact shapes — both are rounds
/// of timestamped estimates, propositions and ack/nacks).
///
/// They are public (rather than nested in the protocol classes) so the
/// wire codec (wire/codec.hpp) can serialize them for the real-network
/// transport without befriending every engine. Each names its PayloadKind.

namespace ecfd::consensus {

/// Phase 1: a participant's timestamped estimate for a round.
struct EstimateBody {
  static constexpr PayloadKind kKind = PayloadKind::kEstimate;
  int round{};
  Value value{};
  int ts{};
};

/// Phase 2: a coordinator's (non-null) proposition.
struct ProposeBody {
  static constexpr PayloadKind kKind = PayloadKind::kPropose;
  int round{};
  Value value{};
};

/// Round-only bodies: coordinator announcements, null estimates, null
/// propositions, acks and nacks.
struct RoundOnly {
  static constexpr PayloadKind kKind = PayloadKind::kRoundOnly;
  int round{};
};

/// R-broadcast decision payload.
struct DecideBody {
  static constexpr PayloadKind kKind = PayloadKind::kDecide;
  int round{};
  Value value{};
};

}  // namespace ecfd::consensus
