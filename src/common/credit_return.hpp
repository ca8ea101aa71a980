// Receiver-side credit bookkeeping shared by FM 1.x and FM 2.x: the receive
// slots each peer's packets freed that have not yet gone back to it as
// credits, plus the set of peers owed an explicit credit packet (freed >=
// threshold). FM_extract's credit-return pass walks that set, not every
// peer, so it costs O(peers owed) instead of O(cluster size).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace fmx {

class CreditReturn {
 public:
  /// `threshold`: freed slots at which a peer is owed a credit packet.
  void reset(int n_peers, int threshold) {
    threshold_ = threshold;
    freed_.assign(n_peers, 0);
    owed_.assign((n_peers + 63) / 64, 0);
  }

  /// Slots freed for `peer` and not yet returned.
  int pending(int peer) const { return freed_[peer]; }

  void slot_freed(int peer) {
    if (++freed_[peer] >= threshold_) owed_[peer >> 6] |= bit(peer);
  }

  /// Hand back up to 0xFFFF (the wire field's width) of the credits owed
  /// to `peer`, as a piggyback or a credit packet. A remainder at or above
  /// the threshold leaves the peer owed.
  std::uint16_t take(int peer) {
    const int v = std::min(freed_[peer], 0xFFFF);
    freed_[peer] -= v;
    if (freed_[peer] < threshold_) owed_[peer >> 6] &= ~bit(peer);
    return static_cast<std::uint16_t>(v);
  }

  /// Lowest owed peer >= `from`, or -1. The set is read live, so the scan
  /// `for (p = next_owed(0); p >= 0; p = next_owed(p + 1))` also visits a
  /// higher peer that became owed while an earlier peer's return was
  /// suspended: the same peers, in the same order, as a full ascending scan
  /// testing freed >= threshold at each step.
  int next_owed(int from) const {
    std::size_t w = static_cast<std::size_t>(from) >> 6;
    if (w >= owed_.size()) return -1;
    std::uint64_t bits = owed_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == owed_.size()) return -1;
      bits = owed_[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

 private:
  static std::uint64_t bit(int peer) {
    return std::uint64_t{1} << (peer & 63);
  }

  int threshold_ = 1;
  std::vector<int> freed_;
  std::vector<std::uint64_t> owed_;  // bit p <=> freed_[p] >= threshold_
};

}  // namespace fmx
