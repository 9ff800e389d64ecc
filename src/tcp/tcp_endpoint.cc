#include "tcp/tcp_endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace mn {
namespace {

constexpr std::int64_t kMss = Packet::kMss;

}  // namespace

TcpEndpoint::TcpEndpoint(Simulator& sim, TcpConfig config,
                         std::unique_ptr<CongestionController> cc)
    : sim_(sim),
      config_(config),
      cc_(std::move(cc)),
      rto_(kInitialRto),
      rto_timer_(sim, [this] { on_rto_fire(); }),
      probe_timer_(sim, [this] { on_probe_fire(); }) {}

// ---------------------------------------------------------------------
// Send-side plumbing
// ---------------------------------------------------------------------

Packet TcpEndpoint::make_packet() const {
  Packet p;
  p.connection_id = config_.connection_id;
  p.subflow_id = config_.subflow_id;
  if (state_ != TcpState::kClosed && state_ != TcpState::kListen &&
      state_ != TcpState::kSynSent) {
    p.flags.ack = true;
    p.ack_seq = rcv_next_;
  }
  return p;
}

void TcpEndpoint::transmit(Packet p) {
  p.sent_at = sim_.now();
  if (transmit_) transmit_(std::move(p));
}

void TcpEndpoint::connect() {
  assert(state_ == TcpState::kClosed);
  state_ = TcpState::kSynSent;
  send_syn();
  arm_rto();
}

void TcpEndpoint::listen() {
  assert(state_ == TcpState::kClosed);
  state_ = TcpState::kListen;
}

MpOption TcpEndpoint::offered_syn_option() {
  if (config_.syn_option == MpOption::kNone) return MpOption::kNone;
  // Original + kSynOptionRetries transmissions carry the option; after
  // that the handshake retries bare so an option-dropping middlebox can
  // no longer starve it (Linux MPTCP's SYN fallback).
  if (syn_sends_ > kSynOptionRetries) {
    syn_option_suppressed_ = true;
    return MpOption::kNone;
  }
  return config_.syn_option;
}

void TcpEndpoint::send_syn() {
  if (syn_sent_at_ == TimePoint{}) syn_sent_at_ = sim_.now();
  Packet p = make_packet();
  p.flags.syn = true;
  p.seq = 0;
  p.mp_option = offered_syn_option();
  ++syn_sends_;
  transmit(std::move(p));
}

void TcpEndpoint::send_syn_ack() {
  if (syn_sent_at_ == TimePoint{}) syn_sent_at_ = sim_.now();
  Packet p = make_packet();
  p.flags.syn = true;
  p.flags.ack = true;
  p.seq = 0;
  p.ack_seq = 1;
  // Echo the option only if the peer's SYN still carried it when it
  // reached us — a stripped SYN negotiates plain TCP on both ends.
  p.mp_option =
      peer_syn_option_ == config_.syn_option ? offered_syn_option() : MpOption::kNone;
  ++syn_sends_;
  negotiated_option_ = p.mp_option;
  transmit(std::move(p));
}

void TcpEndpoint::send_pure_ack() {
  Packet p = make_packet();
  p.flags.ack = true;
  p.ack_seq = rcv_next_;
  // RFC 2018: the first SACK block reports the range containing the most
  // recently received segment; remaining slots repeat other ranges.
  auto push_block = [&p](std::int64_t start, std::int64_t end) {
    for (int i = 0; i < p.sack_count; ++i) {
      if (p.sack[static_cast<std::size_t>(i)].first == start) return;  // already present
    }
    if (p.sack_count < static_cast<int>(p.sack.size())) {
      p.sack[static_cast<std::size_t>(p.sack_count++)] = {start, end};
    }
  };
  if (last_rcv_range_.second > rcv_next_) {
    push_block(std::max(last_rcv_range_.first, rcv_next_), last_rcv_range_.second);
  }
  for (const auto& [start, end] : ooo_) {
    if (end <= rcv_next_) continue;
    if (p.sack_count >= static_cast<int>(p.sack.size())) break;
    push_block(std::max(start, rcv_next_), end);
  }
  transmit(std::move(p));
}

void TcpEndpoint::send_segment(const Segment& seg, bool is_rexmit) {
  Packet p = make_packet();
  p.seq = seg.seq;
  p.payload = seg.len;
  p.data_seq = seg.data_seq;
  if (is_rexmit) {
    ++retransmits_;
    if (auto* o = sim_.obs()) {
      o->count(o->ids().tcp_retransmits);
      o->record(sim_.now(), obs::FlightEventType::kRetransmit,
                static_cast<std::uint8_t>(config_.subflow_id), 0, seg.seq, seg.len);
    }
  }
  transmit(std::move(p));
}

void TcpEndpoint::send_bytes(std::int64_t bytes) {
  assert(source_ == nullptr && "buffer mode is exclusive with a DataSource");
  buffer_bytes_ += bytes;
  if (established()) pump();
}

void TcpEndpoint::close_when_done() {
  want_close_ = true;
  if (established()) pump();
}

void TcpEndpoint::freeze() {
  frozen_ = true;
  rto_timer_.stop();
  probe_timer_.stop();
}

std::int64_t TcpEndpoint::window_space() const {
  return std::max<std::int64_t>(0, cc_->cwnd_bytes() - flight_bytes_);
}

bool TcpEndpoint::can_send_more() const {
  return established() && !frozen_ && window_space() > 0;
}

void TcpEndpoint::pump() {
  if (!established() || frozen_) return;
  while (window_space() > 0) {
    // Retransmissions (RTO-marked losses) take priority over new data.
    // The lost_ counter keeps the common no-loss iteration O(1); the
    // scan only runs while marked losses actually exist.
    if (lost_ > 0) {
      Segment* lost = nullptr;
      for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (outstanding_[i].lost) {
          lost = &outstanding_[i];
          break;
        }
      }
      assert(lost != nullptr);
      lost->lost = false;
      --lost_;
      lost->retransmitted = true;
      lost->last_sent = sim_.now();
      flight_bytes_ += lost->len;
      send_segment(*lost, /*is_rexmit=*/true);
      continue;
    }
    const std::int64_t space = window_space();
    DataSource::Chunk chunk;
    if (buffer_bytes_ > 0) {
      const std::int64_t len = std::min(kMss, buffer_bytes_);
      if (len > space) break;  // wait for a fuller window, avoid tinygrams
      chunk.bytes = len;
      buffer_bytes_ -= len;
    } else if (source_ != nullptr) {
      // Avoid tinygrams: with data in flight, wait for a full-MSS slot
      // (sub-MSS chunks are still possible at the flow tail).
      if (space < kMss && flight_bytes_ > 0) break;
      auto granted = source_->take(std::min(kMss, space), config_.subflow_id);
      if (!granted || granted->bytes <= 0) break;
      chunk = *granted;
    } else {
      break;
    }
    Segment seg;
    seg.seq = snd_nxt_;
    seg.len = chunk.bytes;
    seg.data_seq = chunk.data_seq;
    seg.first_sent = sim_.now();
    seg.last_sent = seg.first_sent;
    outstanding_.push_back(seg);
    snd_nxt_ += seg.len;
    flight_bytes_ += seg.len;
    send_segment(seg, /*is_rexmit=*/false);
    if (!rto_timer_.armed()) arm_rto();
    arm_probe();
  }
  maybe_send_fin();
}

void TcpEndpoint::maybe_send_fin() {
  if (!want_close_ || fin_sent_ || !established()) return;
  if (buffer_bytes_ > 0) return;
  if (source_ != nullptr && !source_->exhausted()) return;
  Packet p = make_packet();
  p.flags.fin = true;
  p.seq = snd_nxt_;
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  fin_sent_ = true;
  transmit(std::move(p));
  if (!rto_timer_.armed()) arm_rto();
}

void TcpEndpoint::penalize() {
  if (!established() || frozen_) return;
  const Duration guard = srtt_.usec() > 0 ? srtt_ : msec(100);
  if (last_penalized_ != TimePoint{} && sim_.now() - last_penalized_ < guard) return;
  last_penalized_ = sim_.now();
  cc_->on_enter_recovery(flight_bytes_);  // halve toward the real pipe
  if (auto* o = sim_.obs()) o->count(o->ids().tcp_penalizations);
  note_cwnd();
}

void TcpEndpoint::on_link_up() {
  if (!established() || frozen_) return;
  // Three window updates: enough duplicate ACKs to kick the peer's fast
  // retransmit if it has stalled data for us.
  for (int i = 0; i < 3; ++i) send_pure_ack();
  // Our own stalled retransmissions can go out right away.
  if (!outstanding_.empty()) {
    rto_backoff_ = 0;
    on_rto_fire();
  }
  pump();
}

void TcpEndpoint::trigger_send() {
  if (on_send_possible) {
    on_send_possible();
    maybe_send_fin();
  } else {
    pump();
  }
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

void TcpEndpoint::handle_packet(const Packet& p) {
  if (frozen_ || state_ == TcpState::kClosed) return;
  if (state_ == TcpState::kDone) {
    // TIME-WAIT responsibility: our final ACK of the peer's FIN may have
    // been lost, in which case the peer retransmits that FIN until
    // someone re-acks it.  A fully-closed endpoint that stays silent
    // wedges the peer forever.
    if (p.flags.fin) send_pure_ack();
    return;
  }

  // Handshake transitions.
  if (state_ == TcpState::kListen) {
    if (p.flags.syn && !p.flags.ack) {
      peer_syn_option_ = p.mp_option;
      rcv_next_ = 1;
      state_ = TcpState::kSynReceived;
      send_syn_ack();
      arm_rto();
    }
    return;
  }
  if (state_ == TcpState::kSynSent) {
    if (p.flags.syn && p.flags.ack && p.ack_seq >= 1) {
      // Karn's rule: only sample if our SYN was never retransmitted.
      if (rto_backoff_ == 0) update_rtt(sim_.now() - syn_sent_at_);
      peer_syn_option_ = p.mp_option;
      negotiated_option_ =
          p.mp_option == config_.syn_option ? config_.syn_option : MpOption::kNone;
      rcv_next_ = 1;
      snd_una_ = 1;
      snd_nxt_ = 1;
      state_ = TcpState::kEstablished;  // so the pure ACK carries ack bits
      send_pure_ack();
      enter_established();
    }
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    if (p.flags.ack && p.ack_seq >= 1 && !p.flags.syn) {
      if (rto_backoff_ == 0) update_rtt(sim_.now() - syn_sent_at_);
      snd_una_ = 1;
      snd_nxt_ = 1;
      enter_established();
      // Fall through: the packet may carry data (or a FIN) too.
    } else if (p.flags.syn && !p.flags.ack) {
      // Retransmitted SYN: re-record the option (the client may have
      // dropped it after its own unanswered retries) and answer again.
      peer_syn_option_ = p.mp_option;
      send_syn_ack();
      return;
    } else {
      return;
    }
  }

  if (!established()) return;

  if (p.flags.ack) process_ack(p);
  if (p.payload > 0) process_data(p);
  if (p.flags.fin) process_fin(p);
  maybe_finish_close();
}

std::int64_t TcpEndpoint::apply_sack(const Packet& p) {
  std::int64_t newly_sacked = 0;
  for (int i = 0; i < p.sack_count; ++i) {
    const auto [start, end] = p.sack[static_cast<std::size_t>(i)];
    highest_sacked_ = std::max(highest_sacked_, end);
    for (std::size_t k = outstanding_.lower_bound(start); k < outstanding_.size(); ++k) {
      Segment& seg = outstanding_[k];
      if (seg.seq + seg.len > end) break;
      if (!seg.sacked) {
        if (seg.lost) {
          seg.lost = false;
          --lost_;
        } else {
          flight_bytes_ -= seg.len;
        }
        seg.sacked = true;
        newly_sacked += seg.len;
        newest_sacked_xmit_ = std::max(newest_sacked_xmit_, seg.last_sent);
      }
    }
  }
  return newly_sacked;
}

void TcpEndpoint::infer_losses() {
  // SACK-based loss inference (FACK-style): a segment more than 3 MSS
  // below the highest SACKed byte that is neither SACKed nor already
  // queued for retransmission is deemed lost.  A segment that was
  // already retransmitted is re-marked (RACK-style) only once enough
  // time has passed for its retransmission to have been SACKed.
  if (highest_sacked_ <= snd_una_) return;
  const Duration rexmit_window =
      Duration{std::max<std::int64_t>(srtt_.usec() + srtt_.usec() / 4, msec(50).usec())};
  // RACK (RFC 8985 in spirit): a segment is lost once a segment SENT
  // sufficiently later has been delivered.  Comparing *send* times (not
  // wall age) is what distinguishes a few-millisecond reordering from a
  // genuine drop.
  const Duration reorder_window =
      Duration{std::max<std::int64_t>(srtt_.usec() / 4, msec(2).usec())};
  bool any = false;
  for (std::size_t i = 0; i < outstanding_.size(); ++i) {
    Segment& seg = outstanding_[i];
    if (seg.seq + seg.len + 3 * kMss > highest_sacked_) break;
    if (seg.sacked || seg.lost) continue;
    if (seg.retransmitted) {
      if (sim_.now() - seg.last_sent < rexmit_window) continue;
    } else {
      if (newest_sacked_xmit_ - seg.last_sent < reorder_window) continue;
    }
    seg.lost = true;
    ++lost_;
    flight_bytes_ -= seg.len;
    any = true;
  }
  if (any && !in_recovery_) enter_recovery();
}

void TcpEndpoint::enter_recovery() {
  cc_->on_enter_recovery(flight_bytes_);
  in_recovery_ = true;
  recover_ = snd_nxt_;
  if (auto* o = sim_.obs()) o->count(o->ids().tcp_recovery_enters);
  note_cwnd();
}

void TcpEndpoint::process_ack(const Packet& p) {
  const std::int64_t newly_sacked = apply_sack(p);
  if (p.ack_seq > snd_una_) {
    // New cumulative ACK.
    std::int64_t newly_data = 0;
    Duration rtt_sample{0};
    while (!outstanding_.empty() &&
           outstanding_.front().seq + outstanding_.front().len <= p.ack_seq) {
      const Segment& seg = outstanding_.front();
      if (seg.lost) {
        --lost_;
      } else if (!seg.sacked) {
        flight_bytes_ -= seg.len;
      }
      // Karn's rule, plus: never sample a segment the receiver SACKed
      // earlier — its delivery predates this cumulative ACK.
      if (!seg.retransmitted && !seg.sacked) {
        rtt_sample = sim_.now() - seg.first_sent;
      }
      newly_data += seg.len;
      outstanding_.pop_front();
    }
    snd_una_ = p.ack_seq;
    if (fin_sent_ && p.ack_seq >= fin_seq_ + 1) fin_acked_ = true;
    if (rtt_sample.usec() > 0) update_rtt(rtt_sample);
    rto_backoff_ = 0;
    if (newly_data > 0) {
      max_acked_data_ += newly_data;
      if (config_.record_timelines) {
        if (acked_timeline_.capacity() == 0) acked_timeline_.reserve(256);
        acked_timeline_.push_back({sim_.now(), max_acked_data_});
      }
    }
    dupacks_ = 0;
    infer_losses();
    if (in_recovery_) {
      if (p.ack_seq >= recover_) {
        in_recovery_ = false;
        cc_->on_exit_recovery();
        note_cwnd();
      } else if (!outstanding_.empty() && highest_sacked_ <= snd_una_) {
        // No SACK information (tail case): NewReno partial ACK —
        // retransmit the next missing segment.
        Segment& seg = outstanding_.front();
        if (!seg.lost && !seg.sacked) {
          seg.retransmitted = true;
          seg.last_sent = sim_.now();
          send_segment(seg, /*is_rexmit=*/true);
        }
      }
    } else if (newly_data > 0) {
      cc_->on_ack(newly_data, rtt_sample);
      note_cwnd();
    }
    if (!outstanding_.empty() || (fin_sent_ && !fin_acked_)) {
      arm_rto();
      arm_probe();
    } else {
      rto_timer_.stop();
      probe_timer_.stop();
    }
    if (newly_data > 0 && on_acked) on_acked(newly_data, max_acked_data_);
    trigger_send();
  } else if (p.ack_seq == snd_una_ && flight_bytes_ > 0 && p.payload == 0 &&
             !p.flags.syn && !p.flags.fin) {
    // Duplicate ACK.
    ++dupacks_;
    // SACK progress proves the path is alive: restart the RTO so it only
    // fires on genuine silence (RFC 6298 in spirit; RACK in practice).
    if (newly_sacked > 0) {
      rto_backoff_ = 0;
      arm_rto();
      arm_probe();
    }
    // Loss detection is RACK/SACK-driven (infer_losses); newly-marked
    // segments retransmit via pump()'s lost-first priority.  The classic
    // dupack counter only feeds the recovery bookkeeping.
    infer_losses();
    if (in_recovery_) {
      cc_->on_dupack_in_recovery();
      arm_rto();
    }
    // SACK-clocked transmission: every dupack may have freed pipe space.
    trigger_send();
  }
}

void TcpEndpoint::process_data(const Packet& p) {
  const std::int64_t start = p.seq;
  const std::int64_t end = p.seq + p.payload;
  if (on_data_segment) on_data_segment(p);
  if (end <= rcv_next_) {
    send_pure_ack();  // stale retransmission: re-ACK
    return;
  }
  if (ooo_.empty() && start <= rcv_next_) {
    // In-order fast path (the overwhelmingly common case): nothing
    // buffered and this segment extends the contiguous prefix, so the
    // merge/advance scan below would insert one range and immediately
    // consume it.  advance_rcv_next() on the empty store still handles
    // FIN consumption and the delivered-bytes timeline.
    delivered_data_ += end - rcv_next_;
    rcv_next_ = end;
    advance_rcv_next();
    last_rcv_range_ = {start, end};
    send_pure_ack();
    return;
  }
  // Merge [start, end) into the out-of-order store (start-sorted flat
  // vector; an existing range with the same start keeps the longer end).
  auto it = std::lower_bound(
      ooo_.begin(), ooo_.end(), start,
      [](const auto& r, std::int64_t s) { return r.first < s; });
  if (it != ooo_.end() && it->first == start) {
    it->second = std::max(it->second, end);
  } else {
    ooo_.insert(it, {start, end});
  }
  advance_rcv_next();
  // Record the merged range containing this segment for SACK block #1.
  last_rcv_range_ = {start, end};
  auto containing = std::upper_bound(
      ooo_.begin(), ooo_.end(), start,
      [](std::int64_t s, const auto& r) { return s < r.first; });
  if (containing != ooo_.begin()) {
    --containing;
    if (containing->second >= start) {
      last_rcv_range_ = {containing->first, containing->second};
    }
  }
  send_pure_ack();
}

void TcpEndpoint::advance_rcv_next() {
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (std::size_t i = 0; i < ooo_.size();) {
      if (ooo_[i].second <= rcv_next_) {
        ooo_.erase(ooo_.begin() + static_cast<std::ptrdiff_t>(i));  // fully stale
        continue;
      }
      if (ooo_[i].first <= rcv_next_) {
        const std::int64_t gained = ooo_[i].second - rcv_next_;
        rcv_next_ = ooo_[i].second;
        delivered_data_ += gained;
        ooo_.erase(ooo_.begin() + static_cast<std::ptrdiff_t>(i));
        advanced = true;
        continue;
      }
      ++i;
    }
  }
  if (peer_fin_received_ && rcv_next_ == peer_fin_seq_) {
    rcv_next_ += 1;  // consume the FIN
  }
  // No-progress dedupe is keyed on the delivered counter itself (not on
  // the timeline tail) so that disabling timeline recording does not
  // change when on_delivered fires.
  if (last_delivered_notified_ == delivered_data_) return;
  last_delivered_notified_ = delivered_data_;
  if (config_.record_timelines) {
    if (delivered_timeline_.capacity() == 0) delivered_timeline_.reserve(256);
    delivered_timeline_.push_back({sim_.now(), delivered_data_});
  }
  if (on_delivered) on_delivered(delivered_data_);
}

void TcpEndpoint::process_fin(const Packet& p) {
  peer_fin_received_ = true;
  peer_fin_seq_ = p.seq;
  if (rcv_next_ == peer_fin_seq_) rcv_next_ += 1;
  send_pure_ack();
  // Respond to the peer's FIN with our own once our data is out.
  want_close_ = true;
  pump();
}

void TcpEndpoint::enter_established() {
  state_ = TcpState::kEstablished;
  established_at_ = sim_.now();
  rto_timer_.stop();
  rto_backoff_ = 0;
  cc_->on_established();
  if (on_negotiated) on_negotiated(negotiated_option_);
  if (on_established) on_established();
  trigger_send();
}

void TcpEndpoint::maybe_finish_close() {
  const bool peer_done = peer_fin_received_ && rcv_next_ > peer_fin_seq_;
  if (fin_sent_ && fin_acked_ && peer_done && state_ == TcpState::kEstablished) {
    state_ = TcpState::kDone;
    rto_timer_.stop();
    if (on_closed) on_closed();
  }
}

// ---------------------------------------------------------------------
// Timers / RTT estimation
// ---------------------------------------------------------------------

void TcpEndpoint::update_rtt(Duration sample) {
  if (sample.usec() <= 0) return;
  if (auto* o = sim_.obs()) {
    o->observe(o->ids().tcp_rtt_usec, sample.usec());
    o->record(sim_.now(), obs::FlightEventType::kRttSample,
              static_cast<std::uint8_t>(config_.subflow_id), 0, sample.usec(),
              srtt_.usec());
  }
  if (srtt_.usec() == 0) {
    srtt_ = sample;
    rttvar_ = Duration{sample.usec() / 2};
  } else {
    const std::int64_t err = std::abs(srtt_.usec() - sample.usec());
    rttvar_ = Duration{(3 * rttvar_.usec() + err) / 4};
    srtt_ = Duration{(7 * srtt_.usec() + sample.usec()) / 8};
  }
  const std::int64_t raw = srtt_.usec() + std::max<std::int64_t>(4 * rttvar_.usec(), 1000);
  rto_ = Duration{std::clamp(raw, kMinRto.usec(), config_.max_rto.usec())};
}

void TcpEndpoint::arm_rto() {
  Duration d{rto_.usec() << std::min(rto_backoff_, 10)};
  if (d > config_.max_rto) d = config_.max_rto;
  rto_timer_.restart(d);
}

void TcpEndpoint::arm_probe() {
  if (frozen_ || state_ != TcpState::kEstablished) return;
  if (outstanding_.empty()) {
    probe_timer_.stop();
    return;
  }
  const std::int64_t srtt = srtt_.usec() > 0 ? srtt_.usec() : msec(100).usec();
  // PTO ~ 1.5 SRTT, but always comfortably below the RTO backstop (else
  // the probe can never beat the timeout it exists to avoid).
  const std::int64_t pto =
      std::max<std::int64_t>(std::min(srtt + srtt / 2, 3 * rto_.usec() / 4),
                             msec(20).usec());
  probe_timer_.restart(Duration{pto});
}

void TcpEndpoint::on_probe_fire() {
  // Tail Loss Probe: the window's tail may be lost with nothing behind it
  // to generate dupacks.  Retransmit the highest un-SACKed outstanding
  // segment to elicit a SACK and trigger normal fast recovery.
  if (frozen_ || state_ != TcpState::kEstablished) return;
  for (std::size_t i = outstanding_.size(); i-- > 0;) {
    Segment& seg = outstanding_[i];
    if (seg.sacked || seg.lost) continue;
    seg.retransmitted = true;
    seg.last_sent = sim_.now();
    ++probe_events_;
    send_segment(seg, /*is_rexmit=*/true);
    break;
  }
  // One probe per silence period; the RTO remains the backstop.
}

void TcpEndpoint::on_rto_fire() {
  if (frozen_ || state_ == TcpState::kDone) return;
  ++rto_backoff_;
  switch (state_) {
    case TcpState::kSynSent:
      send_syn();
      arm_rto();
      return;
    case TcpState::kSynReceived:
      send_syn_ack();
      arm_rto();
      return;
    case TcpState::kEstablished:
      break;
    default:
      return;
  }
  ++rto_events_;
  if (auto* o = sim_.obs()) {
    o->count(o->ids().tcp_rto_fires);
    o->record(sim_.now(), obs::FlightEventType::kRtoFire,
              static_cast<std::uint8_t>(config_.subflow_id), 0, rto_backoff_,
              rto_.usec());
  }
#ifdef MN_TCP_DEBUG
  std::fprintf(stderr, "[%.4f] RTO conn=%llu sf=%d state=%d flight=%lld out=%zu srtt=%.0fms rto=%.0fms backoff=%d\n",
               sim_.now().seconds(), (unsigned long long)config_.connection_id, config_.subflow_id,
               (int)state_, (long long)flight_bytes_, outstanding_.size(),
               srtt_.seconds()*1000, rto_.seconds()*1000, rto_backoff_);
#endif
  cc_->on_retransmit_timeout();
  note_cwnd();
  in_recovery_ = false;
  dupacks_ = 0;
  // Everything outstanding and un-SACKed is presumed lost.
  for (std::size_t i = 0; i < outstanding_.size(); ++i) {
    Segment& seg = outstanding_[i];
    if (!seg.lost && !seg.sacked) {
      seg.lost = true;
      ++lost_;
      seg.retransmitted = false;  // allow re-inference after this epoch
      flight_bytes_ -= seg.len;
    }
  }
  if (!outstanding_.empty()) {
    Segment& seg = outstanding_.front();
    if (seg.lost) --lost_;
    seg.lost = false;
    seg.retransmitted = true;
    seg.last_sent = sim_.now();
    flight_bytes_ += seg.len;
    send_segment(seg, /*is_rexmit=*/true);
  } else if (fin_sent_ && !fin_acked_) {
    Packet p = make_packet();
    p.flags.fin = true;
    p.seq = fin_seq_;
    ++retransmits_;
    if (auto* o = sim_.obs()) o->count(o->ids().tcp_retransmits);
    transmit(std::move(p));
  }
  arm_rto();
}

void TcpEndpoint::note_cwnd() {
  if (auto* o = sim_.obs()) {
    o->observe(o->ids().tcp_cwnd_bytes, cc_->cwnd_bytes());
    o->record(sim_.now(), obs::FlightEventType::kCwndUpdate,
              static_cast<std::uint8_t>(config_.subflow_id), 0, cc_->cwnd_bytes(),
              cc_->ssthresh_bytes());
  }
}

}  // namespace mn
