// A packet-level TCP endpoint on the simulator.
//
// Models what the paper's measurements depend on: the SYN/SYN-ACK
// handshake (whose RTT drives the primary-subflow effect for short
// flows), slow start from IW10, NewReno congestion avoidance with fast
// retransmit/recovery, RFC 6298 RTO with Karn's rule and exponential
// backoff (kMinRto floor, kInitialRto start), cumulative ACKs with
// out-of-order reassembly, and the FIN/FIN-ACK close visible in the
// Figure-15 timelines: an endpoint answers the peer's FIN with its own.
// An MPTCP option rides the first SYN and kSynOptionRetries
// retransmissions before the handshake falls back to a bare SYN.
//
// Data is synthetic: the endpoint moves byte *counts*, not buffers.  Two
// feeding modes exist:
//   - buffer mode: send_bytes() appends to an internal counter (plain TCP)
//   - source mode: a DataSource is pulled chunk-by-chunk; each chunk
//     carries a data-level sequence number (how MPTCP subflows get data
//     and how segment->data-seq mappings are formed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/links.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "tcp/cc.hpp"

namespace mn {

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kDone,  // both FINs exchanged and acknowledged
};

/// Pull-model data provider (the MPTCP scheduler plugs in here).
class DataSource {
 public:
  virtual ~DataSource() = default;
  struct Chunk {
    std::int64_t bytes = 0;
    std::int64_t data_seq = -1;
  };
  /// Hand out up to `max_bytes` to the asking subflow, or nullopt to
  /// withhold (e.g. a backup subflow, or a better subflow has room).
  virtual std::optional<Chunk> take(std::int64_t max_bytes, int subflow_id) = 0;
  /// Whether any data remains unassigned (used for FIN timing).
  [[nodiscard]] virtual bool exhausted() const = 0;
};

/// SYN/SYN-ACK retransmissions that keep offering TcpConfig::syn_option
/// before the endpoint falls back to a bare SYN (Linux's
/// tcp_retries1-style MPTCP fallback: a middlebox eating option-bearing
/// SYNs must not hang the handshake forever).
inline constexpr int kSynOptionRetries = 2;
/// RTO floor (Linux TCP_RTO_MIN) and the RTO before the first RTT
/// sample (RFC 6298); the ceiling is TcpConfig::max_rto.
inline constexpr Duration kMinRto = msec(200);
inline constexpr Duration kInitialRto = sec(1);

struct TcpConfig {
  std::uint64_t connection_id = 1;
  int subflow_id = 0;
  MpOption syn_option = MpOption::kNone;  // kCapable / kJoin for MPTCP
  Duration max_rto = sec(60);
  /// Record the (time, bytes) acked/delivered timelines.  They are the
  /// raw material of every throughput-vs-time figure but grow without
  /// bound over a connection's life — worlds attaching thousands of
  /// endpoints to shared cells turn this off so per-endpoint memory
  /// stays constant (timeline accessors then return empty vectors).
  bool record_timelines = true;
};

/// A point of (time, cumulative bytes) used for throughput-vs-time curves.
struct TimelinePoint {
  TimePoint t;
  std::int64_t bytes = 0;
};

class TcpEndpoint {
 public:
  TcpEndpoint(Simulator& sim, TcpConfig config, std::unique_ptr<CongestionController> cc);
  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  // ---- wiring --------------------------------------------------------
  void set_transmit(PacketHandler transmit) { transmit_ = std::move(transmit); }
  void handle_packet(const Packet& p);
  /// Batched receive: process a span of packets delivered at one tick,
  /// in order.  Wire behaviour is identical to calling handle_packet on
  /// each element — every data packet still elicits its own ACK — so
  /// scalar and batched dispatch produce byte-identical traces.
  void on_packets(std::span<const Packet> ps) {
    for (const Packet& p : ps) handle_packet(p);
  }

  // ---- control -------------------------------------------------------
  void connect();  // active open (client)
  void listen();   // passive open (server)
  /// Buffer mode: enqueue application bytes for transmission.
  void send_bytes(std::int64_t bytes);
  /// Source mode: pull data from `source` (not owned).  Exclusive with
  /// send_bytes().
  void set_source(DataSource* source) { source_ = source; }
  /// Send FIN once all queued/pulled data has been transmitted.
  void close_when_done();
  /// Stop all timers and go quiescent (path torn down by MPTCP).
  void freeze();
  /// The underlying link came back: emit window-update ACKs so the peer's
  /// dupack machinery revives its retransmissions (paper Figure 15g, the
  /// replug behaviour), and retry anything we have outstanding.
  void on_link_up();
  /// MPTCP penalization (Raiciu et al.): this subflow is hogging the
  /// connection-level receive window — halve its congestion window.
  /// Rate-limited to once per SRTT internally.
  void penalize();
  /// Try to transmit (window/data permitting).  Public so the MPTCP
  /// scheduler can drive subflows centrally.
  void pump();

  // ---- callbacks -----------------------------------------------------
  std::function<void()> on_established;
  /// Fired once, just before on_established, with the MPTCP option that
  /// actually survived the handshake: config_.syn_option when both SYN
  /// and SYN-ACK carried it end to end, kNone when a middlebox stripped
  /// or dropped it (the MptcpAgent's negotiation state machine hangs off
  /// this).  Plain TCP endpoints always report kNone.
  std::function<void(MpOption)> on_negotiated;
  /// Sender side: cumulative data bytes newly acknowledged.
  std::function<void(std::int64_t newly, std::int64_t total)> on_acked;
  /// Receiver side: in-order delivered byte total advanced.
  std::function<void(std::int64_t total)> on_delivered;
  /// Receiver side: every accepted data segment (MPTCP reassembly taps
  /// this; may see duplicates from retransmissions).
  std::function<void(const Packet&)> on_data_segment;
  /// Window may have opened; MPTCP uses this to run its scheduler.  When
  /// unset the endpoint pumps itself.
  std::function<void()> on_send_possible;
  std::function<void()> on_closed;

  // ---- introspection -------------------------------------------------
  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == TcpState::kEstablished; }
  [[nodiscard]] Duration srtt() const { return srtt_; }
  [[nodiscard]] Duration rto() const { return rto_; }
  [[nodiscard]] std::int64_t bytes_acked() const { return max_acked_data_; }
  [[nodiscard]] std::int64_t bytes_delivered() const { return delivered_data_; }
  [[nodiscard]] std::int64_t flight_bytes() const { return flight_bytes_; }
  [[nodiscard]] const CongestionController& cc() const { return *cc_; }
  [[nodiscard]] bool can_send_more() const;
  [[nodiscard]] std::int64_t window_space() const;
  [[nodiscard]] TimePoint established_at() const { return established_at_; }
  [[nodiscard]] const std::vector<TimelinePoint>& acked_timeline() const {
    return acked_timeline_;
  }
  [[nodiscard]] const std::vector<TimelinePoint>& delivered_timeline() const {
    return delivered_timeline_;
  }
  [[nodiscard]] std::uint64_t retransmit_count() const { return retransmits_; }
  [[nodiscard]] std::uint64_t rto_count() const { return rto_events_; }
  [[nodiscard]] std::uint64_t probe_count() const { return probe_events_; }
  /// The MPTCP option the handshake settled on (valid once established).
  [[nodiscard]] MpOption negotiated_option() const { return negotiated_option_; }
  /// True when this endpoint gave up offering its MPTCP option after
  /// kSynOptionRetries unanswered option-bearing SYNs (the SYN-drop
  /// middlebox signature, as opposed to in-flight stripping).
  [[nodiscard]] bool syn_option_suppressed() const { return syn_option_suppressed_; }

 private:
  struct Segment {
    std::int64_t seq = 0;  // subflow-level sequence of the first byte
    std::int64_t len = 0;
    std::int64_t data_seq = -1;
    TimePoint first_sent{};
    TimePoint last_sent{};
    bool retransmitted = false;
    bool lost = false;    // awaiting retransmission; not counted in flight
    bool sacked = false;  // receiver holds it; not counted in flight
  };

  /// The retransmission queue as a flat ring.  Segments enter strictly
  /// in seq order (snd_nxt_ is monotonic) and leave only from the front
  /// (cumulative ACK), so the container is a FIFO of sorted records:
  /// no per-segment heap node, front pops are O(1), and SACK lookups
  /// binary-search the ring.  Capacity persists across windows — after
  /// warmup the steady state allocates nothing.
  class SegRing {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] Segment& operator[](std::size_t i) {
      return buf_[(head_ + i) & mask_];
    }
    [[nodiscard]] const Segment& operator[](std::size_t i) const {
      return buf_[(head_ + i) & mask_];
    }
    [[nodiscard]] Segment& front() { return (*this)[0]; }
    void push_back(const Segment& s) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_) & mask_] = s;
      ++size_;
    }
    void pop_front() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    /// First index i with (*this)[i].seq >= seq (seqs strictly increase).
    [[nodiscard]] std::size_t lower_bound(std::int64_t seq) const {
      std::size_t lo = 0, hi = size_;
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if ((*this)[mid].seq < seq) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }

   private:
    void grow() {
      std::vector<Segment> next(buf_.empty() ? 64 : buf_.size() * 2);
      for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
      buf_ = std::move(next);
      head_ = 0;
      mask_ = buf_.size() - 1;
    }
    std::vector<Segment> buf_;  // power-of-two capacity
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
  };

  // -- send helpers --
  void transmit(Packet p);
  Packet make_packet() const;
  MpOption offered_syn_option();
  void send_syn();
  void send_syn_ack();
  void send_pure_ack();
  void send_segment(const Segment& seg, bool is_rexmit);
  void maybe_send_fin();
  void trigger_send();

  // -- receive helpers --
  std::int64_t apply_sack(const Packet& p);  // returns newly-SACKed bytes
  void infer_losses();
  void enter_recovery();
  void process_ack(const Packet& p);
  void process_data(const Packet& p);
  void process_fin(const Packet& p);
  void advance_rcv_next();
  void enter_established();
  void maybe_finish_close();

  // -- timers --
  void arm_rto();
  void on_rto_fire();
  void arm_probe();
  void on_probe_fire();
  void update_rtt(Duration sample);

  // -- observability --
  /// Record the congestion state (cwnd/ssthresh) after any transition
  /// that changed it: ack growth, recovery entry/exit, RTO, penalize.
  void note_cwnd();

  Simulator& sim_;
  TcpConfig config_;
  std::unique_ptr<CongestionController> cc_;
  PacketHandler transmit_;
  DataSource* source_ = nullptr;

  TcpState state_ = TcpState::kClosed;
  TimePoint established_at_{};
  TimePoint syn_sent_at_{};  // first SYN / SYN-ACK transmission
  TimePoint last_penalized_{};

  // Negotiation state (what actually crossed the wire, vs config_'s offer).
  MpOption peer_syn_option_ = MpOption::kNone;  // option on the peer's SYN/SYN-ACK
  MpOption negotiated_option_ = MpOption::kNone;
  int syn_sends_ = 0;  // SYN or SYN-ACK transmissions (original + rexmits)
  bool syn_option_suppressed_ = false;

  // Sender sequence space.  SYN occupies seq 0; data starts at 1; FIN
  // occupies one seq after the last data byte.
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t buffer_bytes_ = 0;  // buffer mode backlog
  SegRing outstanding_;
  std::size_t lost_ = 0;  // segments with .lost set (skips pump's scan)
  std::int64_t flight_bytes_ = 0;
  std::int64_t max_acked_data_ = 0;  // cumulative data bytes acked
  bool want_close_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::int64_t fin_seq_ = -1;

  // Loss recovery (SACK scoreboard + dupack fallback).
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;
  std::int64_t highest_sacked_ = 0;
  TimePoint newest_sacked_xmit_{};  // RACK: send time of newest delivered seg

  // Receiver state.  The out-of-order store is a start-sorted flat
  // vector (start -> end, exclusive): loss windows hold a handful of
  // ranges, and the in-order common case costs no node allocation.
  std::int64_t rcv_next_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> ooo_;
  std::pair<std::int64_t, std::int64_t> last_rcv_range_{0, 0};  // newest SACK block
  std::int64_t delivered_data_ = 0;
  std::int64_t last_delivered_notified_ = -1;  // dedupe for on_delivered/timeline
  bool peer_fin_received_ = false;
  std::int64_t peer_fin_seq_ = -1;

  // RTT estimation / RTO (RFC 6298).
  Duration srtt_{0};
  Duration rttvar_{0};
  Duration rto_;
  int rto_backoff_ = 0;
  Timer rto_timer_;
  Timer probe_timer_;  // Tail Loss Probe (Linux 3.10+, on in the paper's kernels)
  bool frozen_ = false;

  std::uint64_t retransmits_ = 0;
  std::uint64_t rto_events_ = 0;
  std::uint64_t probe_events_ = 0;
  std::vector<TimelinePoint> acked_timeline_;
  std::vector<TimelinePoint> delivered_timeline_;
};

}  // namespace mn
