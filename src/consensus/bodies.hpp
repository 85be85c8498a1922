#pragma once

#include "consensus/consensus.hpp"

/// \file bodies.hpp
/// The message bodies exchanged by the consensus engines (core/consensus_c
/// and consensus/chandra_toueg share these exact shapes — both are rounds
/// of timestamped estimates, propositions and ack/nacks).
///
/// Each names its PayloadKind and states its fields (net/message.hpp), the
/// one description the wire codec encodes and decodes.

namespace ecfd::consensus {

/// Phase 1: a participant's timestamped estimate for a round.
struct EstimateBody {
  static constexpr PayloadKind kKind = PayloadKind::kEstimate;
  int round{};
  Value value{};
  int ts{};

  template <class V>
  void fields(V& v) {
    v(round);
    v(value);
    v(ts);
  }
};

/// Phase 2: a coordinator's (non-null) proposition.
struct ProposeBody {
  static constexpr PayloadKind kKind = PayloadKind::kPropose;
  int round{};
  Value value{};

  template <class V>
  void fields(V& v) {
    v(round);
    v(value);
  }
};

/// Round-only bodies: coordinator announcements, null estimates, null
/// propositions, acks and nacks.
struct RoundOnly {
  static constexpr PayloadKind kKind = PayloadKind::kRoundOnly;
  int round{};

  template <class V>
  void fields(V& v) {
    v(round);
  }
};

/// R-broadcast decision payload.
struct DecideBody {
  static constexpr PayloadKind kKind = PayloadKind::kDecide;
  int round{};
  Value value{};

  template <class V>
  void fields(V& v) {
    v(round);
    v(value);
  }
};

}  // namespace ecfd::consensus
