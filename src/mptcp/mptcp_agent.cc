#include "mptcp/mptcp_agent.hpp"

#include <algorithm>
#include <cstdio>

namespace mn {

MptcpAgent::MptcpAgent(Simulator& sim, std::uint64_t connection_id, MptcpSpec spec,
                       bool is_client)
    : sim_(sim),
      connection_id_(connection_id),
      spec_(spec),
      is_client_(is_client),
      scheduler_(make_scheduler(spec)),
      join_timer_(sim, [this] { on_join_timer(); }) {
  // Subflow 0 rides the primary network; subflow 1 the other one.
  setup_subflow(0, spec_.primary, MpOption::kCapable);
  setup_subflow(1, other_path(spec_.primary), MpOption::kJoin);
  subflows_[1].is_backup = spec_.mode != MpMode::kFull;
}

MptcpAgent::~MptcpAgent() = default;

std::unique_ptr<CongestionController> MptcpAgent::make_cc() {
  switch (spec_.cc) {
    case CcAlgo::kCoupled: return std::make_unique<LiaCc>(group_);
    case CcAlgo::kOlia: return std::make_unique<OliaCc>(olia_group_);
    case CcAlgo::kDecoupled: break;
  }
  return std::make_unique<RenoCc>();
}

void MptcpAgent::setup_subflow(int id, PathId path, MpOption syn_option) {
  Subflow& sf = subflows_[static_cast<std::size_t>(id)];
  sf.path = path;
  TcpConfig cfg;
  cfg.connection_id = connection_id_;
  cfg.subflow_id = id;
  cfg.syn_option = syn_option;
  cfg.max_rto = spec_.subflow_max_rto;
  cfg.record_timelines = spec_.record_timelines;
  sf.ep = std::make_unique<TcpEndpoint>(sim_, cfg, make_cc());
  sf.ep->set_source(this);
  sf.ep->on_send_possible = [this] { pump_all(); };
  sf.ep->on_acked = [this, id](std::int64_t newly, std::int64_t) {
    on_subflow_acked(id, newly);
  };
  sf.ep->on_data_segment = [this, id](const Packet& p) { on_subflow_segment(id, p); };
  sf.ep->on_closed = [this] { maybe_fire_closed(); };
  sf.ep->on_negotiated = [this, id](MpOption opt) { on_subflow_negotiated(id, opt); };
  if (id == 0) {
    sf.ep->on_established = [this] {
      if (on_established) on_established();
      if (is_client_) start_join();
      pump_all();
    };
  }
}

void MptcpAgent::set_transmit(int subflow_id, PacketHandler transmit) {
  // The agent owns the one canonical handler (it also needs it for the
  // RST path after the endpoint is frozen); the endpoint forwards
  // through it.  PacketHandler is move-only, so no copies.
  subflows_[static_cast<std::size_t>(subflow_id)].transmit = std::move(transmit);
  install_transmit(subflow_id);
}

void MptcpAgent::install_transmit(int id) {
  // Separate from set_transmit so a recreated endpoint (join retry,
  // server-side resurrection) re-attaches to the slot's stored handler.
  subflows_[static_cast<std::size_t>(id)].ep->set_transmit([this, id](Packet p) {
    Subflow& owner = subflows_[static_cast<std::size_t>(id)];
    if (owner.transmit) owner.transmit(std::move(p));
  });
}

void MptcpAgent::handle_packet(const Packet& p) {
  if (p.subflow_id < 0 || p.subflow_id > 1) return;
  Subflow& sf = subflows_[static_cast<std::size_t>(p.subflow_id)];
  if (p.flags.rst) {
    if (p.subflow_id == 1 && join_in_progress()) {
      // The peer refused the MP_JOIN handshake (a middlebox ate the
      // option, so the server could not match the subflow to the
      // connection).  A rejection, not a path death: retry with backoff.
      fail_join_attempt();
    } else {
      // Peer tore this subflow down (soft interface failure on its side).
      kill_subflow(p.subflow_id, /*send_rst=*/false);
    }
    return;
  }
  if (p.mp_option == MpOption::kFail && !shutdown_) {
    on_mp_fail(p.subflow_id);  // never reaches the endpoint: agent-level
    return;
  }
  if (sf.dead) {
    // A rejected join slot comes back to life on a fresh MP_JOIN SYN —
    // the client gave up on the old attempt and is opening a new
    // subflow into the same slot.
    if (!is_client_ && p.subflow_id == 1 && p.flags.syn && !p.flags.ack &&
        p.mp_option == MpOption::kJoin && !shutdown_ && !closed_fired_) {
      setup_subflow(1, sf.path, MpOption::kJoin);
      install_transmit(1);
      sf.dead = false;
      sf.connected_started = false;
      sf.ep->listen();
      sf.ep->handle_packet(p);
    }
    return;
  }
  sf.ep->handle_packet(p);
}

void MptcpAgent::connect() { subflows_[0].connected_started = true; subflows_[0].ep->connect(); }

void MptcpAgent::listen() {
  subflows_[0].ep->listen();
  subflows_[1].ep->listen();
}

void MptcpAgent::start_join() {
  join_deferred_ = false;
  if (spec_.mode == MpMode::kSinglePath) return;  // joined only on failure
  if (join_given_up_ || negotiation_ == MpNegotiation::kFallbackTcp) return;
  Subflow& sf = subflows_[1];
  if (sf.connected_started || sf.dead) return;
  // The policy may hold the costly radio back until the flow proves big
  // (eMPTCP delayed subflow establishment); pump_all re-polls it.
  {
    std::array<SubflowSnapshot, 2> snaps;
    fill_snapshots(snaps);
    if (!scheduler_->allow_join(snaps, sf.path, sched_context())) {
      join_deferred_ = true;
      return;
    }
  }
  sf.connected_started = true;
  if (spec_.join_delay.usec() > 0) {
    sim_.schedule_after(spec_.join_delay, [this] { attempt_join(); });
  } else {
    attempt_join();
  }
}

// ---- negotiation / fallback state machine --------------------------------
//
//   kNegotiating --(MP_CAPABLE survives sf0 handshake)--> kMultipath
//   kNegotiating --(option stripped / SYN dropped)------> kFallbackTcp
//   kMultipath   --(every MP_JOIN attempt rejected)-----> kSubflowRejected
//   kMultipath   --(mid-flow DSS mangled, MP_FAIL)------> kFallbackTcp
//
// Every transition is driven by a bounded mechanism (SYN-option
// suppression in the endpoint, kJoinMaxAttempts/kJoinTimeout here, one
// MP_FAIL per subflow), so no middlebox combination can stall a flow in
// kNegotiating forever.

void MptcpAgent::on_subflow_negotiated(int id, MpOption opt) {
  if (id == 0) {
    if (opt == MpOption::kCapable) {
      negotiated_mp_ = true;
      if (negotiation_ == MpNegotiation::kNegotiating) {
        negotiation_ = MpNegotiation::kMultipath;
      }
    } else {
      // Our side suppressed the option after unanswered SYNs (a
      // SYN-dropping middlebox) or the peer never saw/echoed it (an
      // option-stripping one).  Either way: plain TCP from here on.
      enter_handshake_fallback(subflows_[0].ep->syn_option_suppressed()
                                   ? "syn_dropped"
                                   : "capable_stripped");
    }
    return;
  }
  // Subflow 1: the MP_JOIN handshake settled.
  if (opt == MpOption::kJoin) {
    achieved_mp_ = true;
    join_timer_.stop();
    return;
  }
  if (is_client_) {
    fail_join_attempt();
  } else {
    // A subflow that lost its MP_JOIN cannot be matched to the
    // connection: reject it (RFC 6824 token-mismatch behaviour).  The
    // client sees the RST mid-join and retries or gives up.
    kill_subflow(1, /*send_rst=*/true);
  }
}

void MptcpAgent::enter_handshake_fallback(const std::string& reason) {
  negotiation_ = MpNegotiation::kFallbackTcp;
  fallback_ = true;
  fallback_reason_ = reason;
  join_given_up_ = true;  // a plain-TCP connection has nothing to join
  join_timer_.stop();
  Subflow& sf1 = subflows_[1];
  if (!sf1.connected_started && !sf1.ep->established()) sf1.dead = true;
  // Count once per connection, on the active opener, so the client and
  // server agents sharing one hub do not double-report.
  if (is_client_) {
    if (auto* o = sim_.obs()) o->count(o->ids().mptcp_fallback_handshake);
  }
}

bool MptcpAgent::join_in_progress() const {
  return is_client_ && subflows_[1].connected_started && !achieved_mp_ &&
         !join_given_up_;
}

void MptcpAgent::attempt_join() {
  if (!is_client_ || achieved_mp_ || join_given_up_ || shutdown_) return;
  if (negotiation_ == MpNegotiation::kFallbackTcp) return;
  if (subflow_close_issued_ || closed_fired_) return;
  if (join_attempts_ >= kJoinMaxAttempts) {
    give_up_join();
    return;
  }
  ++join_attempts_;
  Subflow& sf = subflows_[1];
  if (sf.dead || sf.ep->state() != TcpState::kClosed) {
    // Retry after a rejected attempt: v0.88 never resurrects a closed
    // subflow, so the path manager opens a brand-new one in the slot.
    setup_subflow(1, sf.path, MpOption::kJoin);
    install_transmit(1);
    sf.dead = false;
    sf.is_backup = spec_.mode != MpMode::kFull;
  }
  sf.connected_started = true;
  join_retry_pending_ = false;
  join_timer_.restart(kJoinTimeout);  // supervision: rejection backstop
  sf.ep->connect();
}

void MptcpAgent::fail_join_attempt() {
  if (!join_in_progress()) return;
  if (join_retry_pending_) return;  // duplicate signal; retry already scheduled
  join_timer_.stop();
  Subflow& sf = subflows_[1];
  if (!sf.dead) {
    sf.dead = true;
    // RST so the server abandons its half-open accept state.
    Packet rst;
    rst.connection_id = connection_id_;
    rst.subflow_id = 1;
    rst.flags.rst = true;
    rst.sent_at = sim_.now();
    if (sf.transmit) sf.transmit(rst);
    sf.ep->freeze();
    sf.mappings.clear();  // nothing assigned pre-establishment
    sf.dup_queue.clear();
  }
  if (join_attempts_ >= kJoinMaxAttempts) {
    give_up_join();
    return;
  }
  if (auto* o = sim_.obs()) o->count(o->ids().mptcp_join_retries);
  join_retry_pending_ = true;
  const int shift = join_attempts_ > 0 ? join_attempts_ - 1 : 0;
  join_timer_.restart(Duration{kJoinRetryBackoff.usec() << shift});
}

void MptcpAgent::give_up_join() {
  if (join_given_up_) return;
  join_given_up_ = true;
  join_retry_pending_ = false;
  join_timer_.stop();
  if (!achieved_mp_ && negotiation_ == MpNegotiation::kMultipath) {
    negotiation_ = MpNegotiation::kSubflowRejected;
    fallback_reason_ = "join_rejected";
    if (auto* o = sim_.obs()) o->count(o->ids().mptcp_fallback_join_rejected);
  }
  // The close path may have been waiting on the join to settle.
  maybe_close_subflows();
  maybe_fire_closed();
}

void MptcpAgent::abandon_join() {
  // Flow is closing with all data acked: a join still mid-handshake (or
  // waiting on its retry backoff) no longer serves a purpose.  Not a
  // failure — no fallback_reason, negotiation state stays as settled.
  join_given_up_ = true;
  join_retry_pending_ = false;
  join_timer_.stop();
  Subflow& sf = subflows_[1];
  if (!sf.dead && !sf.ep->established()) kill_subflow(1, /*send_rst=*/true);
}

void MptcpAgent::on_join_timer() {
  if (achieved_mp_ || join_given_up_ || shutdown_) return;
  if (join_retry_pending_) {
    attempt_join();
  } else {
    fail_join_attempt();  // this attempt's handshake timed out
  }
}

void MptcpAgent::on_mp_fail(int id) {
  // The peer saw a data segment on `id` whose DSS mapping a middlebox
  // destroyed (modelling a DSS-checksum failure).
  if (fallback_) return;
  if (fallback_reason_.empty()) {
    fallback_reason_ = "mid_flow_dss";
    if (auto* o = sim_.obs()) o->count(o->ids().mptcp_fallback_mid_flow);
  }
  negotiation_ = MpNegotiation::kFallbackTcp;
  Subflow& other = subflows_[static_cast<std::size_t>(1 - id)];
  const bool other_viable = !other.dead && other.ep->established();
  if (other_viable || achieved_mp_) {
    // Infinite-map-style degradation: abandon the poisoned subflow and
    // drain its in-flight data on the survivor (kill_subflow reinjects
    // every unacked mapping).  Subflow-acked history is requeued too —
    // any of it may have arrived DSS-mangled and never been placed, and
    // without a DATA_ACK the sender cannot tell which.  With multipath
    // history and no survivor, subflow-sequence reconstruction is
    // impossible — killing the last subflow aborts the flow, and the
    // watchdog reports the recorded fallback_reason instead of hanging.
    Subflow& sf = subflows_[static_cast<std::size_t>(id)];
    for (const auto& [ds, len] : sf.acked_log) {
      reinject_.emplace_back(ds, len);
      if (auto* o = sim_.obs()) o->count(o->ids().mptcp_reinjects);
    }
    sf.acked_log.clear();
    kill_subflow(id, /*send_rst=*/true);
  } else {
    // Sole subflow and multipath never achieved: the connection *is* a
    // plain TCP stream, so continue on it with sequence-space
    // accounting (the receiver mirrors this on its side).
    fallback_ = true;
  }
}

void MptcpAgent::send_mp_fail(int id) {
  // One MP_FAIL per unplaceable segment, not one per subflow: the
  // signal crosses lossy, possibly-blackholed reverse pipes, and the
  // sender's reaction (kill or fallback) stops the segment stream, so
  // repetition is naturally bounded by the in-flight window.
  Packet p;
  p.connection_id = connection_id_;
  p.subflow_id = id;
  p.flags.ack = true;
  p.mp_option = MpOption::kFail;
  p.sent_at = sim_.now();
  Subflow& sf = subflows_[static_cast<std::size_t>(id)];
  if (sf.transmit) sf.transmit(p);
}

void MptcpAgent::send_data(std::int64_t bytes) {
  data_end_ += bytes;
  pump_all();
}

void MptcpAgent::close_when_done() {
  close_requested_ = true;
  maybe_close_subflows();
  pump_all();
}

void MptcpAgent::notify_path_state(PathId path, bool up) {
  for (int id = 0; id < 2; ++id) {
    Subflow& sf = subflows_[static_cast<std::size_t>(id)];
    if (sf.path != path) continue;
    if (!up) {
      kill_subflow(id, /*send_rst=*/true);
    } else if (!sf.dead) {
      // Replug of a silently-failed path: the subflow was never killed,
      // so revive it — window updates wake the remote sender and our own
      // retransmissions restart (paper Figure 15g's resume-on-replug).
      sf.ep->on_link_up();
    }
    // A *dead* subflow stays dead (Linux v0.88 does not resurrect
    // closed subflows).
  }
}

void MptcpAgent::shutdown() {
  shutdown_ = true;
  join_timer_.stop();
  for (auto& sf : subflows_) {
    if (sf.ep) sf.ep->freeze();
  }
}

int MptcpAgent::active_data_subflow() const {
  // In Backup / Single-Path mode, data rides the primary subflow while it
  // lives, then fails over to the other.
  if (!subflows_[0].dead) return 0;
  return 1;
}

std::optional<DataSource::Chunk> MptcpAgent::take(std::int64_t max_bytes,
                                                  int subflow_id) {
#ifdef MN_MPTCP_DEBUG
  std::fprintf(stderr, "[take] t=%.3f sf=%d max=%lld next=%lld end=%lld cum=%lld\n",
               sim_.now().seconds(), subflow_id, (long long)max_bytes,
               (long long)next_data_seq_, (long long)data_end_,
               (long long)acked_.contiguous_from(0));
#endif
  Subflow& sf = subflows_[static_cast<std::size_t>(subflow_id)];
  if (sf.dead || max_bytes <= 0) return std::nullopt;
  if (spec_.mode != MpMode::kFull && subflow_id != active_data_subflow()) {
    return std::nullopt;  // backup withholding
  }
  Chunk c;
  bool fresh_grant = false;
  if (!reinject_.empty()) {
    auto& [start, len] = reinject_.front();
    c.data_seq = start;
    c.bytes = std::min(max_bytes, len);
    start += c.bytes;
    len -= c.bytes;
    if (len == 0) reinject_.pop_front();
  } else if (scheduler_->duplicate_grants() && take_duplicate(sf, max_bytes, c)) {
    // Duplicate of a fresh grant issued to another subflow (redundant
    // scheduling); the receiver's interval set makes the first arrival
    // win and deduplicates the rest.
  } else {
    const std::int64_t cum_ack = acked_.contiguous_from(0);
    const std::int64_t window_limit =
        cum_ack + std::max<std::int64_t>(spec_.receive_window_bytes, 64'000);
    bool fresh_allowed = next_data_seq_ < data_end_ && next_data_seq_ < window_limit;
    if (fresh_allowed) {
      // Policy gate on *new* data only — reinjections and duplicates
      // above serve reliability and always pass.
      std::array<SubflowSnapshot, 2> snaps;
      fill_snapshots(snaps);
      fresh_allowed = scheduler_->allow_fresh_grant(
          snaps[static_cast<std::size_t>(subflow_id)], snaps, sched_context());
    }
    if (fresh_allowed) {
      c.data_seq = next_data_seq_;
      c.bytes = std::min({max_bytes, data_end_ - next_data_seq_,
                          window_limit - next_data_seq_});
      next_data_seq_ += c.bytes;
      fresh_grant = true;
    } else if (spec_.opportunistic_reinjection && data_end_ > 0 &&
               cum_ack < data_end_ && cum_ack > last_opportunistic_seq_) {
      // Blocked: either the receive window is closed mid-flow, or all
      // data is assigned and we are waiting on stragglers at the tail.
      // Opportunistic reinjection (Linux MPTCP v0.88, after Raiciu et
      // al.): if another subflow holds the chunk everyone waits on,
      // retransmit it here instead of idling.  One per stall point.
      const bool window_blocked = next_data_seq_ < data_end_;
      for (int other = 0; other < 2 && c.bytes == 0; ++other) {
        if (other == subflow_id) continue;
        Subflow& o = subflows_[static_cast<std::size_t>(other)];
        for (const auto& [ds, len] : o.mappings) {
          if (ds <= cum_ack && cum_ack < ds + len) {
            last_opportunistic_seq_ = cum_ack;
            c.data_seq = cum_ack;
            c.bytes = std::min(max_bytes, ds + len - cum_ack);
            // Penalization targets a genuinely window-hogging slow
            // path (severe RTT asymmetry, i.e. bufferbloat), not a
            // peer's transient loss-recovery hole.
            if (spec_.penalization && window_blocked &&
                o.ep->srtt() > 3 * sf.ep->srtt()) {
              o.ep->penalize();
            }
            break;
          }
        }
      }
      if (c.bytes == 0) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  sf.mappings.emplace_back(c.data_seq, c.bytes);
  last_grant_subflow_ = subflow_id;
  if (fresh_grant && scheduler_->duplicate_grants()) {
    // Mirror the fresh range onto every other live subflow's duplicate
    // queue; each serves it when its own window opens.
    for (int other = 0; other < 2; ++other) {
      if (other == subflow_id) continue;
      Subflow& o = subflows_[static_cast<std::size_t>(other)];
      if (!o.dead) o.dup_queue.emplace_back(c.data_seq, c.bytes);
    }
  }
  scheduler_->on_grant(subflow_id, c.data_seq, c.bytes, sched_context());
  if (auto* o = sim_.obs()) {
    o->count(subflow_id == 0 ? o->ids().mptcp_grants_sf0 : o->ids().mptcp_grants_sf1);
    o->record(sim_.now(), obs::FlightEventType::kSchedGrant,
              static_cast<std::uint8_t>(subflow_id), 0, c.data_seq, c.bytes);
  }
  return c;
}

bool MptcpAgent::take_duplicate(Subflow& sf, std::int64_t max_bytes, Chunk& c) {
  while (!sf.dup_queue.empty()) {
    auto& [start, len] = sf.dup_queue.front();
    if (acked_.covers(start, start + len)) {
      sf.dup_queue.pop_front();  // first ACK already won; nothing to gain
      continue;
    }
    c.data_seq = start;
    c.bytes = std::min(max_bytes, len);
    start += c.bytes;
    len -= c.bytes;
    if (len == 0) sf.dup_queue.pop_front();
    return true;
  }
  return false;
}

bool MptcpAgent::exhausted() const {
  return reinject_.empty() && next_data_seq_ >= data_end_;
}

SchedContext MptcpAgent::sched_context() const {
  SchedContext ctx;
  ctx.now = sim_.now();
  ctx.data_end = data_end_;
  ctx.next_data_seq = next_data_seq_;
  ctx.cum_acked = acked_.contiguous_from(0);
  ctx.delivered = received_.contiguous_from(0);
  ctx.last_grant_subflow = last_grant_subflow_;
  return ctx;
}

void MptcpAgent::fill_snapshots(std::array<SubflowSnapshot, 2>& out) const {
  for (int id = 0; id < 2; ++id) {
    const Subflow& sf = subflows_[static_cast<std::size_t>(id)];
    SubflowSnapshot& s = out[static_cast<std::size_t>(id)];
    s.id = id;
    s.path = sf.path;
    s.dead = sf.dead;
    s.usable = !sf.dead && sf.ep->established();
    s.can_carry =
        s.usable && (spec_.mode == MpMode::kFull || id == active_data_subflow());
    s.is_backup = sf.is_backup;
    s.srtt = sf.ep->srtt();
  }
}

void MptcpAgent::pump_all() {
  // A deferred join is re-polled before pumping: the policy may have
  // engaged the costly radio now that the backlog grew, or lost its
  // last cheap subflow and need the failover.
  if (join_deferred_) start_join();
  std::array<SubflowSnapshot, 2> snaps;
  fill_snapshots(snaps);
  std::array<int, 2> order{0, 1};
  const std::size_t n = scheduler_->pump_order(snaps, sched_context(), order);
  for (std::size_t i = 0; i < n; ++i) {
    Subflow& sf = subflows_[static_cast<std::size_t>(order[i])];
    if (!sf.dead && sf.ep->established()) sf.ep->pump();
  }
}

void MptcpAgent::on_subflow_acked(int id, std::int64_t newly) {
  Subflow& sf = subflows_[static_cast<std::size_t>(id)];
  std::int64_t gained = 0;
  while (newly > 0 && !sf.mappings.empty()) {
    auto& [data_seq, len] = sf.mappings.front();
    const std::int64_t n = std::min(newly, len);
    if (!sf.acked_log.empty() &&
        sf.acked_log.back().first + sf.acked_log.back().second == data_seq) {
      sf.acked_log.back().second += n;
    } else {
      sf.acked_log.emplace_back(data_seq, n);
    }
    gained += acked_.add(data_seq, data_seq + n);
    data_seq += n;
    len -= n;
    newly -= n;
    if (len == 0) sf.mappings.pop_front();
  }
  if (gained > 0) {
    acked_timeline_.push_back({sim_.now(), acked_.total()});
    if (on_data_acked) on_data_acked(gained, acked_.total());
    pump_all();  // the data-level window may have opened
  }
  maybe_close_subflows();
}

void MptcpAgent::on_subflow_segment(int id, const Packet& p) {
  if (p.payload <= 0) return;
  std::int64_t ds = p.data_seq;
  if (ds < 0) {
    // A middlebox zeroed the DSS mapping on this segment.
    if (!fallback_) {
      if (achieved_mp_ || id != 0) {
        // Multipath history: data-level placement is unrecoverable for
        // this segment.  Signal the sender; it kills the poisoned
        // subflow and re-sends everything it carried on the survivor.
        mangled_discarded_ += p.payload;
        send_mp_fail(id);
        return;
      }
      // All data so far rode subflow 0 in assignment order, so its
      // sequence space *is* the data sequence space: degrade to plain
      // TCP accounting and notify the sender to mirror the fallback.
      fallback_ = true;
      negotiation_ = MpNegotiation::kFallbackTcp;
      if (fallback_reason_.empty()) fallback_reason_ = "mid_flow_dss";
      send_mp_fail(id);
    }
    ds = p.seq - 1;  // subflow seq 0 is the SYN; data starts at 1
  }
  const std::int64_t gained = received_.add(ds, ds + p.payload);
  if (gained > 0) {
    delivered_timeline_.push_back({sim_.now(), received_.total()});
    if (on_data_delivered) on_data_delivered(received_.total());
    // A pure receiver's pump_all rarely runs, but delivered bytes are
    // exactly the engage signal a delayed-establishment policy watches
    // on the download side — re-poll a deferred join as they grow.
    if (join_deferred_) start_join();
  }
}

void MptcpAgent::kill_subflow(int id, bool send_rst) {
  Subflow& sf = subflows_[static_cast<std::size_t>(id)];
  if (sf.dead) return;
  sf.dead = true;
  if (send_rst) {
    Packet rst;
    rst.connection_id = connection_id_;
    rst.subflow_id = id;
    rst.flags.rst = true;
    rst.sent_at = sim_.now();
    // Tear-down signal on the dying path itself (works for a soft
    // "multipath off", where the radio still transmits)...
    if (sf.transmit) sf.transmit(rst);
    // ...and MP_FAIL-style over the surviving subflow's path, for
    // carrier-loss failures where the dying path is already mute.
    Subflow& peer_sf = subflows_[static_cast<std::size_t>(1 - id)];
    if (!peer_sf.dead && peer_sf.transmit) peer_sf.transmit(rst);
  }
  sf.ep->freeze();
  // Reinject data this subflow never got acknowledged; the receiver's
  // interval set deduplicates anything that actually arrived.
  for (auto& [data_seq, len] : sf.mappings) {
    if (len > 0) {
      reinject_.emplace_back(data_seq, len);
      if (auto* o = sim_.obs()) {
        o->count(o->ids().mptcp_reinjects);
        o->record(sim_.now(), obs::FlightEventType::kReinject,
                  static_cast<std::uint8_t>(id), 0, data_seq, len);
      }
    }
  }
  sf.mappings.clear();
  sf.dup_queue.clear();
  // A join whose subflow died under it (path down mid-handshake) is not
  // retried: the path manager has no liveness signal to wait on, and a
  // bounded retry against a dead path would only delay the close.
  if (id == 1 && join_in_progress()) {
    join_given_up_ = true;
    join_retry_pending_ = false;
    join_timer_.stop();
  }
  // Single-Path mode: open the other subflow now (break-before-make).
  // Never after a handshake fallback — a plain-TCP connection has no
  // second subflow to fail over to.
  if (is_client_ && spec_.mode == MpMode::kSinglePath && id == 0 &&
      negotiation_ != MpNegotiation::kFallbackTcp) {
    Subflow& backup = subflows_[1];
    if (!backup.connected_started && !backup.dead) attempt_join();
  }
  pump_all();
  maybe_fire_closed();
}

void MptcpAgent::maybe_close_subflows() {
  if (!close_requested_ || subflow_close_issued_) return;
  if (!exhausted()) return;
  if (data_end_ > 0 && acked_.total() < data_end_) return;
  // All data acked: a join still in flight must not block the close
  // (close_when_done on a kSynSent endpoint would never reach kDone).
  if (join_in_progress()) abandon_join();
  subflow_close_issued_ = true;
  for (auto& sf : subflows_) {
    if (sf.dead) continue;
    if (!sf.connected_started && !sf.ep->established() &&
        sf.ep->state() == TcpState::kClosed) {
      // Never started (Single-Path backup): nothing to close.
      sf.dead = true;
      continue;
    }
    sf.ep->close_when_done();
  }
  maybe_fire_closed();
}

bool MptcpAgent::finished() const {
  bool any_done = false;
  for (const auto& sf : subflows_) {
    if (sf.dead) continue;
    if (sf.ep->state() == TcpState::kListen && !is_client_) continue;  // unused accept slot
    if (!sf.connected_started && sf.ep->state() == TcpState::kClosed) {
      continue;  // never opened (Single-Path backup)
    }
    if (sf.ep->state() != TcpState::kDone) return false;
    any_done = true;
  }
  // A connection whose every subflow died (RST, both paths down) never
  // finished — it failed.  Without this, killing both paths mid-transfer
  // would read as a clean close with data still undelivered.
  return any_done;
}

void MptcpAgent::maybe_fire_closed() {
  if (closed_fired_ || !finished()) return;
  closed_fired_ = true;
  if (on_closed) on_closed();
}

}  // namespace mn
