#include "faults/fault_plan.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mn {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kBlackhole: return "blackhole";
    case FaultKind::kRestore: return "restore";
    case FaultKind::kSoftDown: return "soft_down";
    case FaultKind::kSoftUp: return "soft_up";
    case FaultKind::kUnplug: return "unplug";
    case FaultKind::kReplug: return "replug";
    case FaultKind::kBurstOn: return "burst_on";
    case FaultKind::kBurstOff: return "burst_off";
    case FaultKind::kRateCrash: return "rate_crash";
    case FaultKind::kRateRestore: return "rate_restore";
    case FaultKind::kDelaySpike: return "delay_spike";
    case FaultKind::kDelayClear: return "delay_clear";
    case FaultKind::kMiddleboxOn: return "mbox_on";
    case FaultKind::kMiddleboxOff: return "mbox_off";
  }
  return "?";
}

std::string to_string(LinkDir d) {
  switch (d) {
    case LinkDir::kUp: return "up";
    case LinkDir::kDown: return "down";
    case LinkDir::kBoth: return "both";
  }
  return "?";
}

namespace {

FaultKind parse_kind(const std::string& s) {
  for (const FaultKind k :
       {FaultKind::kBlackhole, FaultKind::kRestore, FaultKind::kSoftDown,
        FaultKind::kSoftUp, FaultKind::kUnplug, FaultKind::kReplug, FaultKind::kBurstOn,
        FaultKind::kBurstOff, FaultKind::kRateCrash, FaultKind::kRateRestore,
        FaultKind::kDelaySpike, FaultKind::kDelayClear, FaultKind::kMiddleboxOn,
        FaultKind::kMiddleboxOff}) {
    if (to_string(k) == s) return k;
  }
  throw std::runtime_error("FaultPlan: unknown fault kind: " + s);
}

PathId parse_path(const std::string& s) {
  for (const PathId p : kPaths) {
    if (path_name(p) == s) return p;
  }
  throw std::runtime_error("FaultPlan: unknown path: " + s);
}

LinkDir parse_dir(const std::string& s) {
  if (s == "up") return LinkDir::kUp;
  if (s == "down") return LinkDir::kDown;
  if (s == "both") return LinkDir::kBoth;
  throw std::runtime_error("FaultPlan: unknown direction: " + s);
}

/// One event with no kind-specific payload.
FaultEvent event(Duration at, FaultKind kind, PathId path, LinkDir dir = LinkDir::kBoth) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.path = path;
  ev.dir = dir;
  return ev;
}

}  // namespace

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << at.usec() << "us " << to_string(kind) << ' ' << path_name(path) << ' '
     << to_string(dir);
  if (kind == FaultKind::kRateCrash) os << " rate=" << rate_mbps;
  if (kind == FaultKind::kDelaySpike) os << " extra=" << extra_delay.usec() << "us";
  if (kind == FaultKind::kBurstOn) {
    os << " ge=" << ge.loss_good << '/' << ge.loss_bad << '/' << ge.p_good_to_bad << '/'
       << ge.p_bad_to_good;
  }
  if (kind == FaultKind::kMiddleboxOn) {
    os << " mbox=" << middlebox.strip_capable << '/' << middlebox.strip_join << '/'
       << middlebox.drop_unknown_syn << '/' << middlebox.mangle_dss << '/'
       << middlebox.rewrite_seq;
  }
  return os.str();
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  // Stable insert keeps the plan sorted while preserving the authoring
  // order of simultaneous events.
  auto it = std::upper_bound(events_.begin(), events_.end(), ev,
                             [](const FaultEvent& a, const FaultEvent& b) {
                               return a.at < b.at;
                             });
  events_.insert(it, std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::blackhole(Duration at, PathId path, LinkDir dir) {
  return add(event(at, FaultKind::kBlackhole, path, dir));
}
FaultPlan& FaultPlan::restore(Duration at, PathId path, LinkDir dir) {
  return add(event(at, FaultKind::kRestore, path, dir));
}
FaultPlan& FaultPlan::soft_down(Duration at, PathId path) {
  return add(event(at, FaultKind::kSoftDown, path));
}
FaultPlan& FaultPlan::soft_up(Duration at, PathId path) {
  return add(event(at, FaultKind::kSoftUp, path));
}
FaultPlan& FaultPlan::unplug(Duration at, PathId path) {
  return add(event(at, FaultKind::kUnplug, path));
}
FaultPlan& FaultPlan::replug(Duration at, PathId path) {
  return add(event(at, FaultKind::kReplug, path));
}
FaultPlan& FaultPlan::burst_loss(Duration at, PathId path, const GeLossSpec& ge,
                                 LinkDir dir) {
  FaultEvent ev = event(at, FaultKind::kBurstOn, path, dir);
  ev.ge = ge;
  return add(std::move(ev));
}
FaultPlan& FaultPlan::burst_loss_off(Duration at, PathId path, LinkDir dir) {
  return add(event(at, FaultKind::kBurstOff, path, dir));
}
FaultPlan& FaultPlan::rate_crash(Duration at, PathId path, double mbps, LinkDir dir) {
  FaultEvent ev = event(at, FaultKind::kRateCrash, path, dir);
  ev.rate_mbps = mbps;
  return add(std::move(ev));
}
FaultPlan& FaultPlan::rate_restore(Duration at, PathId path, LinkDir dir) {
  return add(event(at, FaultKind::kRateRestore, path, dir));
}
FaultPlan& FaultPlan::delay_spike(Duration at, PathId path, Duration extra, LinkDir dir) {
  FaultEvent ev = event(at, FaultKind::kDelaySpike, path, dir);
  ev.extra_delay = extra;
  return add(std::move(ev));
}
FaultPlan& FaultPlan::delay_clear(Duration at, PathId path, LinkDir dir) {
  return add(event(at, FaultKind::kDelayClear, path, dir));
}
FaultPlan& FaultPlan::middlebox_on(Duration at, PathId path, const MiddleboxSpec& spec,
                                   LinkDir dir) {
  FaultEvent ev = event(at, FaultKind::kMiddleboxOn, path, dir);
  ev.middlebox = spec;
  return add(std::move(ev));
}
FaultPlan& FaultPlan::middlebox_off(Duration at, PathId path, LinkDir dir) {
  return add(event(at, FaultKind::kMiddleboxOff, path, dir));
}

std::string FaultPlan::serialize() const {
  std::ostringstream os;
  for (const FaultEvent& ev : events_) {
    os << ev.at.usec() << ' ' << to_string(ev.kind) << ' ' << path_name(ev.path) << ' '
       << to_string(ev.dir);
    switch (ev.kind) {
      case FaultKind::kRateCrash:
        os << ' ' << ev.rate_mbps;
        break;
      case FaultKind::kDelaySpike:
        os << ' ' << ev.extra_delay.usec();
        break;
      case FaultKind::kBurstOn:
        os << ' ' << ev.ge.loss_good << ' ' << ev.ge.loss_bad << ' '
           << ev.ge.p_good_to_bad << ' ' << ev.ge.p_bad_to_good << ' ' << ev.ge.seed;
        break;
      case FaultKind::kMiddleboxOn:
        os << ' ' << ev.middlebox.strip_capable << ' ' << ev.middlebox.strip_join << ' '
           << ev.middlebox.drop_unknown_syn << ' ' << ev.middlebox.mangle_dss << ' '
           << ev.middlebox.rewrite_seq << ' ' << ev.middlebox.seed;
        break;
      default:
        break;
    }
    os << '\n';
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::int64_t at_us = 0;
    std::string kind_s;
    std::string path_s;
    std::string dir_s;
    if (!(ls >> at_us >> kind_s >> path_s >> dir_s)) {
      throw std::runtime_error("FaultPlan: malformed line " + std::to_string(line_no) +
                               ": " + line);
    }
    if (at_us < 0) {
      throw std::runtime_error("FaultPlan: negative time at line " +
                               std::to_string(line_no));
    }
    FaultEvent ev;
    ev.at = Duration{at_us};
    ev.kind = parse_kind(kind_s);
    ev.path = parse_path(path_s);
    ev.dir = parse_dir(dir_s);
    switch (ev.kind) {
      case FaultKind::kRateCrash:
        if (!(ls >> ev.rate_mbps) || ev.rate_mbps <= 0.0) {
          throw std::runtime_error("FaultPlan: bad rate at line " +
                                   std::to_string(line_no));
        }
        break;
      case FaultKind::kDelaySpike: {
        std::int64_t extra_us = 0;
        if (!(ls >> extra_us) || extra_us < 0) {
          throw std::runtime_error("FaultPlan: bad delay at line " +
                                   std::to_string(line_no));
        }
        ev.extra_delay = Duration{extra_us};
        break;
      }
      case FaultKind::kBurstOn:
        if (!(ls >> ev.ge.loss_good >> ev.ge.loss_bad >> ev.ge.p_good_to_bad >>
              ev.ge.p_bad_to_good >> ev.ge.seed)) {
          throw std::runtime_error("FaultPlan: bad burst params at line " +
                                   std::to_string(line_no));
        }
        break;
      case FaultKind::kMiddleboxOn: {
        MiddleboxSpec& mb = ev.middlebox;
        if (!(ls >> mb.strip_capable >> mb.strip_join >> mb.drop_unknown_syn >>
              mb.mangle_dss >> mb.rewrite_seq >> mb.seed)) {
          throw std::runtime_error("FaultPlan: bad middlebox params at line " +
                                   std::to_string(line_no));
        }
        for (const double p : {mb.strip_capable, mb.strip_join, mb.drop_unknown_syn,
                               mb.mangle_dss, mb.rewrite_seq}) {
          if (p < 0.0 || p > 1.0) {
            throw std::runtime_error("FaultPlan: middlebox probability out of [0,1] at line " +
                                     std::to_string(line_no));
          }
        }
        break;
      }
      default:
        break;
    }
    std::string trailing;
    if (ls >> trailing) {
      throw std::runtime_error("FaultPlan: trailing junk at line " +
                               std::to_string(line_no) + ": " + trailing);
    }
    plan.add(ev);
  }
  return plan;
}

FaultPlan random_fault_plan(std::uint64_t seed, const RandomPlanOptions& options) {
  Rng rng{mix_seed(seed, "fault-plan")};
  FaultPlan plan;
  // max_events <= 0 requests a plan with no link/interface events at
  // all (middlebox-only soaks); legacy callers always pass >= 1, so the
  // draw stream they see is unchanged.
  const int n = options.max_events <= 0
                    ? 0
                    : static_cast<int>(rng.uniform_int(1, options.max_events));
  for (int i = 0; i < n; ++i) {
    const auto at = Duration{rng.uniform_int(0, options.horizon.usec())};
    const PathId path = rng.chance(0.5) ? PathId::kWifi : PathId::kLte;
    const LinkDir dir = rng.chance(0.5)
                            ? LinkDir::kBoth
                            : (rng.chance(0.5) ? LinkDir::kUp : LinkDir::kDown);
    // A restore event, when drawn, lands between the fault and the
    // horizon plus slack, so some faults heal inside the run and some
    // only after the watchdog has had to act.
    const auto restore_at = [&] {
      return at + Duration{rng.uniform_int(msec(50).usec(),
                                           (options.horizon - at).usec() +
                                               sec(2).usec())};
    };
    switch (rng.uniform_int(0, 5)) {
      case 0:
        plan.blackhole(at, path, dir);
        if (rng.chance(options.restore_probability)) plan.restore(restore_at(), path, dir);
        break;
      case 1:
        plan.soft_down(at, path);
        if (rng.chance(options.restore_probability)) plan.soft_up(restore_at(), path);
        break;
      case 2:
        plan.unplug(at, path);
        if (rng.chance(options.restore_probability)) plan.replug(restore_at(), path);
        break;
      case 3: {
        GeLossSpec ge;
        ge.loss_good = rng.uniform(0.0, 0.02);
        ge.loss_bad = rng.uniform(0.2, 0.8);
        ge.p_good_to_bad = rng.uniform(0.005, 0.05);
        ge.p_bad_to_good = rng.uniform(0.05, 0.3);
        ge.seed = rng.next_u64();
        plan.burst_loss(at, path, ge, dir);
        if (rng.chance(options.restore_probability)) {
          plan.burst_loss_off(restore_at(), path, dir);
        }
        break;
      }
      case 4:
        plan.rate_crash(at, path, rng.uniform(0.1, 1.0), dir);
        if (rng.chance(options.restore_probability)) {
          plan.rate_restore(restore_at(), path, dir);
        }
        break;
      case 5:
        plan.delay_spike(at, path, Duration{rng.uniform_int(msec(50).usec(),
                                                            msec(800).usec())},
                         dir);
        if (rng.chance(options.restore_probability)) {
          plan.delay_clear(restore_at(), path, dir);
        }
        break;
    }
  }
  // Middlebox adversary, gated on the knob so legacy (seed, options)
  // pairs keep producing byte-identical plans: no rng draw happens
  // unless the probability is nonzero.
  if (options.middlebox_probability > 0.0 &&
      rng.chance(options.middlebox_probability)) {
    // At t=0 so the handshake itself runs through it — the scenario the
    // negotiation state machine exists for.  Mid-run appearance is also
    // exercised (routing change while the flow is live).
    const auto at = rng.chance(0.5)
                        ? Duration{0}
                        : Duration{rng.uniform_int(0, options.horizon.usec())};
    const PathId path = rng.chance(0.5) ? PathId::kWifi : PathId::kLte;
    const LinkDir dir = rng.chance(0.5)
                            ? LinkDir::kBoth
                            : (rng.chance(0.5) ? LinkDir::kUp : LinkDir::kDown);
    MiddleboxSpec mb;
    mb.strip_capable = rng.chance(0.5) ? rng.uniform(0.3, 1.0) : 0.0;
    mb.strip_join = rng.chance(0.5) ? rng.uniform(0.3, 1.0) : 0.0;
    mb.drop_unknown_syn = rng.chance(0.25) ? rng.uniform(0.3, 1.0) : 0.0;
    mb.mangle_dss = rng.chance(0.35) ? rng.uniform(0.001, 0.05) : 0.0;
    mb.rewrite_seq = rng.chance(0.25) ? rng.uniform(0.3, 1.0) : 0.0;
    mb.seed = rng.next_u64();
    plan.middlebox_on(at, path, mb, dir);
    if (rng.chance(options.restore_probability)) {
      plan.middlebox_off(
          at + Duration{rng.uniform_int(msec(50).usec(),
                                        (options.horizon - at).usec() + sec(2).usec())},
          path, dir);
    }
  }
  return plan;
}

std::string corrupt_mahimahi(const std::string& text, TraceCorruption mode, Rng& rng) {
  switch (mode) {
    case TraceCorruption::kEmpty:
      return "";
    case TraceCorruption::kTruncate: {
      if (text.empty()) return text;
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      return text.substr(0, cut);
    }
    case TraceCorruption::kJunkLine: {
      std::string out = text;
      const auto pos = out.find('\n');
      const std::string junk = "not-a-timestamp\n";
      out.insert(pos == std::string::npos ? out.size() : pos + 1, junk);
      return out;
    }
    case TraceCorruption::kUnsort:
    case TraceCorruption::kNegative: {
      // Re-emit the lines with one victim rewritten.
      std::istringstream in(text);
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
      if (lines.empty()) return text;
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1));
      if (mode == TraceCorruption::kNegative) {
        lines[victim] = "-" + (lines[victim].empty() ? "1" : lines[victim]);
      } else {
        // Inflate an early timestamp so the sequence decreases after it.
        lines[victim] = "999999999";
        if (victim + 1 == lines.size()) lines.push_back("1");
      }
      std::ostringstream os;
      for (const auto& l : lines) os << l << '\n';
      return os.str();
    }
    case TraceCorruption::kBinary: {
      std::string out = text;
      if (out.empty()) out = "0\n";
      const auto start = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
      for (std::size_t i = start; i < out.size() && i < start + 8; ++i) {
        out[i] = static_cast<char>(0x80 + (rng.next_u64() & 0x7F));
      }
      return out;
    }
  }
  return text;
}

}  // namespace mn
