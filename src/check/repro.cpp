#include "check/repro.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ecfd::check {

namespace {

std::string group_to_text(const ProcessSet& g) {
  std::string out;
  for (ProcessId p : g.members()) {
    if (!out.empty()) out += ',';
    out += std::to_string(p);
  }
  return out;
}

bool group_from_text(const std::string& s, int n, ProcessSet& out) {
  out = ProcessSet(n);
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    int p = 0;
    try {
      p = std::stoi(tok);
    } catch (...) {
      return false;
    }
    if (p < 0 || p >= n) return false;
    out.add(p);
  }
  return !out.empty();
}

std::string durs_to_text(const std::vector<DurUs>& ds) {
  std::string out;
  for (DurUs d : ds) {
    if (!out.empty()) out += ',';
    out += std::to_string(d);
  }
  return out;
}

bool durs_from_text(const std::string& s, std::size_t want,
                    std::vector<DurUs>& out) {
  out.clear();
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    try {
      std::size_t pos = 0;
      out.push_back(std::stoll(tok, &pos, 0));
      if (pos != tok.size()) return false;
    } catch (...) {
      return false;
    }
  }
  return out.size() == want;
}

/// Splits "key=value" tokens of an event line into a flat list.
struct KvLine {
  std::vector<std::pair<std::string, std::string>> kv;
  [[nodiscard]] const std::string* get(const std::string& key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

bool parse_kv(std::istringstream& is, KvLine& out) {
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) return false;
    out.kv.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return true;
}

bool to_i64(const std::string& s, std::int64_t& v) {
  try {
    std::size_t pos = 0;
    v = std::stoll(s, &pos, 0);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool to_u64(const std::string& s, std::uint64_t& v) {
  try {
    std::size_t pos = 0;
    v = std::stoull(s, &pos, 0);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

std::string to_text(const ReproFile& r) {
  std::ostringstream os;
  os << "ecfd.repro.v1\n";
  os << "n " << r.config.n << "\n";
  os << "seed " << r.config.seed << "\n";
  os << "profile " << profile_name(r.config.profile) << "\n";
  os << "algo " << algo_name(r.config.algo) << "\n";
  os << "fd " << fd_stack_name(r.config.fd) << "\n";
  os << "horizon_us " << r.config.horizon << "\n";
  os << "chaos_end_us " << r.config.chaos_end << "\n";
  os << "margin_us " << r.config.stable_margin << "\n";
  os << "period_us " << r.config.monitor_period << "\n";
  if (!r.property.empty()) os << "property " << r.property << "\n";
  if (r.digest != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(r.digest));
    os << "digest " << buf << "\n";
  }
  for (const FaultEvent& e : r.schedule.events) {
    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
        os << "event crash at=" << e.at << " p=" << e.process << "\n";
        break;
      case FaultEvent::Kind::kPartitionWindow:
        os << "event partition at=" << e.at << " until=" << e.until
           << " group=" << group_to_text(e.group) << "\n";
        break;
      case FaultEvent::Kind::kChaosWindow:
        os << "event chaos at=" << e.at << " until=" << e.until
           << " loss_ppm=" << e.chaos.loss_ppm
           << " delay_max_us=" << e.chaos.extra_delay_max
           << " dup_ppm=" << e.chaos.duplicate_ppm << "\n";
        break;
      case FaultEvent::Kind::kGeoLatency:
        // The full drawn matrices travel with the file: replay must stay
        // bit-identical even after the preset tables or the generator's
        // scaling draw change.
        os << "event geo at=" << e.at << " until=" << e.until
           << " regions=" << e.geo.regions
           << " base_us=" << durs_to_text(e.geo.base)
           << " jitter_us=" << durs_to_text(e.geo.jitter) << "\n";
        break;
      case FaultEvent::Kind::kFlapWindow:
        os << "event flap at=" << e.at << " until=" << e.until
           << " p=" << e.process << " period_us=" << e.flap_period
           << " up_ppm=" << e.flap_up_ppm << "\n";
        break;
      case FaultEvent::Kind::kGrayWindow:
        os << "event gray at=" << e.at << " until=" << e.until
           << " p=" << e.process << " factor_milli=" << e.gray_factor_milli
           << " send_extra_us=" << e.gray_send_extra << "\n";
        break;
      case FaultEvent::Kind::kSkewWindow:
        os << "event skew at=" << e.at << " until=" << e.until
           << " p=" << e.process << " offset_us=" << e.skew_offset
           << " drift_ppm=" << e.skew_drift_ppm
           << " bound_us=" << e.skew_bound << "\n";
        break;
    }
  }
  os << "end\n";
  return os.str();
}

std::optional<ReproFile> parse_repro(const std::string& text,
                                     std::string* error) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "ecfd.repro.v1") {
    fail(error, "missing ecfd.repro.v1 header");
    return std::nullopt;
  }
  ReproFile r;
  bool ended = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      ended = true;
      break;
    }
    std::int64_t i64 = 0;
    std::uint64_t u64 = 0;
    std::string word;
    if (key == "n") {
      if (!(ls >> i64) || i64 < 2 || i64 > 63) {
        fail(error, "bad n");
        return std::nullopt;
      }
      r.config.n = static_cast<int>(i64);
    } else if (key == "seed") {
      if (!(ls >> u64)) {
        fail(error, "bad seed");
        return std::nullopt;
      }
      r.config.seed = u64;
    } else if (key == "profile") {
      ls >> word;
      const auto p = profile_from_name(word);
      if (!p) {
        fail(error, "unknown profile " + word);
        return std::nullopt;
      }
      r.config.profile = *p;
    } else if (key == "algo") {
      ls >> word;
      const auto a = algo_from_name(word);
      if (!a) {
        fail(error, "unknown algo " + word);
        return std::nullopt;
      }
      r.config.algo = *a;
    } else if (key == "fd") {
      ls >> word;
      const auto f = fd_stack_from_name(word);
      if (!f) {
        fail(error, "unknown fd stack " + word);
        return std::nullopt;
      }
      r.config.fd = *f;
    } else if (key == "horizon_us") {
      if (!(ls >> r.config.horizon)) {
        fail(error, "bad horizon_us");
        return std::nullopt;
      }
    } else if (key == "chaos_end_us") {
      if (!(ls >> r.config.chaos_end)) {
        fail(error, "bad chaos_end_us");
        return std::nullopt;
      }
    } else if (key == "margin_us") {
      if (!(ls >> r.config.stable_margin)) {
        fail(error, "bad margin_us");
        return std::nullopt;
      }
    } else if (key == "period_us") {
      if (!(ls >> r.config.monitor_period)) {
        fail(error, "bad period_us");
        return std::nullopt;
      }
    } else if (key == "property") {
      ls >> r.property;
    } else if (key == "digest") {
      ls >> word;
      if (!to_u64(word, r.digest)) {
        fail(error, "bad digest");
        return std::nullopt;
      }
    } else if (key == "event") {
      std::string kind;
      ls >> kind;
      KvLine kv;
      if (!parse_kv(ls, kv)) {
        fail(error, "malformed event line: " + line);
        return std::nullopt;
      }
      FaultEvent e;
      const std::string* at = kv.get("at");
      if (at == nullptr || !to_i64(*at, e.at)) {
        fail(error, "event missing at=");
        return std::nullopt;
      }
      if (kind == "crash") {
        e.kind = FaultEvent::Kind::kCrash;
        const std::string* p = kv.get("p");
        std::int64_t pid = 0;
        if (p == nullptr || !to_i64(*p, pid) || pid < 0 ||
            pid >= r.config.n) {
          fail(error, "crash event with bad p=");
          return std::nullopt;
        }
        e.process = static_cast<ProcessId>(pid);
      } else if (kind == "partition") {
        e.kind = FaultEvent::Kind::kPartitionWindow;
        const std::string* until = kv.get("until");
        const std::string* group = kv.get("group");
        if (until == nullptr || !to_i64(*until, e.until) ||
            group == nullptr ||
            !group_from_text(*group, r.config.n, e.group)) {
          fail(error, "partition event with bad until=/group=");
          return std::nullopt;
        }
      } else if (kind == "chaos") {
        e.kind = FaultEvent::Kind::kChaosWindow;
        const std::string* until = kv.get("until");
        const std::string* loss = kv.get("loss_ppm");
        const std::string* delay = kv.get("delay_max_us");
        const std::string* dup = kv.get("dup_ppm");
        std::uint64_t loss_v = 0;
        std::uint64_t dup_v = 0;
        if (until == nullptr || !to_i64(*until, e.until) ||
            loss == nullptr || !to_u64(*loss, loss_v) || delay == nullptr ||
            !to_i64(*delay, e.chaos.extra_delay_max) || dup == nullptr ||
            !to_u64(*dup, dup_v)) {
          fail(error, "chaos event with bad fields");
          return std::nullopt;
        }
        e.chaos.loss_ppm = static_cast<std::uint32_t>(loss_v);
        e.chaos.duplicate_ppm = static_cast<std::uint32_t>(dup_v);
      } else if (kind == "geo") {
        e.kind = FaultEvent::Kind::kGeoLatency;
        const std::string* until = kv.get("until");
        const std::string* regions = kv.get("regions");
        const std::string* base = kv.get("base_us");
        const std::string* jitter = kv.get("jitter_us");
        std::int64_t reg = 0;
        if (until == nullptr || !to_i64(*until, e.until) ||
            regions == nullptr || !to_i64(*regions, reg) || reg < 1 ||
            reg > 64) {
          fail(error, "geo event with bad until=/regions=");
          return std::nullopt;
        }
        e.geo.regions = static_cast<int>(reg);
        const auto cells = static_cast<std::size_t>(reg * reg);
        if (base == nullptr || !durs_from_text(*base, cells, e.geo.base) ||
            jitter == nullptr ||
            !durs_from_text(*jitter, cells, e.geo.jitter)) {
          fail(error, "geo event with bad base_us=/jitter_us=");
          return std::nullopt;
        }
      } else if (kind == "flap") {
        e.kind = FaultEvent::Kind::kFlapWindow;
        const std::string* until = kv.get("until");
        const std::string* p = kv.get("p");
        const std::string* period = kv.get("period_us");
        const std::string* up = kv.get("up_ppm");
        std::int64_t pid = 0;
        std::uint64_t up_v = 0;
        if (until == nullptr || !to_i64(*until, e.until) || p == nullptr ||
            !to_i64(*p, pid) || pid < 0 || pid >= r.config.n ||
            period == nullptr || !to_i64(*period, e.flap_period) ||
            up == nullptr || !to_u64(*up, up_v) || up_v > 1'000'000) {
          fail(error, "flap event with bad fields");
          return std::nullopt;
        }
        e.process = static_cast<ProcessId>(pid);
        e.flap_up_ppm = static_cast<std::uint32_t>(up_v);
      } else if (kind == "gray") {
        e.kind = FaultEvent::Kind::kGrayWindow;
        const std::string* until = kv.get("until");
        const std::string* p = kv.get("p");
        const std::string* factor = kv.get("factor_milli");
        const std::string* extra = kv.get("send_extra_us");
        std::int64_t pid = 0;
        std::uint64_t factor_v = 0;
        if (until == nullptr || !to_i64(*until, e.until) || p == nullptr ||
            !to_i64(*p, pid) || pid < 0 || pid >= r.config.n ||
            factor == nullptr || !to_u64(*factor, factor_v) ||
            factor_v == 0 || factor_v > UINT32_MAX || extra == nullptr ||
            !to_i64(*extra, e.gray_send_extra)) {
          fail(error, "gray event with bad fields");
          return std::nullopt;
        }
        e.process = static_cast<ProcessId>(pid);
        e.gray_factor_milli = static_cast<std::uint32_t>(factor_v);
      } else if (kind == "skew") {
        e.kind = FaultEvent::Kind::kSkewWindow;
        const std::string* until = kv.get("until");
        const std::string* p = kv.get("p");
        const std::string* offset = kv.get("offset_us");
        const std::string* drift = kv.get("drift_ppm");
        const std::string* bound = kv.get("bound_us");
        std::int64_t pid = 0;
        std::int64_t drift_v = 0;
        if (until == nullptr || !to_i64(*until, e.until) || p == nullptr ||
            !to_i64(*p, pid) || pid < 0 || pid >= r.config.n ||
            offset == nullptr || !to_i64(*offset, e.skew_offset) ||
            drift == nullptr || !to_i64(*drift, drift_v) ||
            drift_v <= -1'000'000 || drift_v >= 1'000'000 ||
            bound == nullptr || !to_i64(*bound, e.skew_bound) ||
            e.skew_bound <= 0 || e.skew_offset > e.skew_bound ||
            e.skew_offset < -e.skew_bound) {
          fail(error, "skew event with bad fields");
          return std::nullopt;
        }
        e.process = static_cast<ProcessId>(pid);
        e.skew_drift_ppm = static_cast<std::int32_t>(drift_v);
      } else {
        fail(error, "unknown event kind " + kind);
        return std::nullopt;
      }
      r.schedule.events.push_back(std::move(e));
    } else {
      fail(error, "unknown key " + key);
      return std::nullopt;
    }
  }
  if (!ended) {
    fail(error, "missing end marker");
    return std::nullopt;
  }
  return r;
}

bool save_repro(const ReproFile& r, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << to_text(r);
  return static_cast<bool>(os);
}

std::optional<ReproFile> load_repro(const std::string& path,
                                    std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_repro(buf.str(), error);
}

FuzzOutcome replay(const ReproFile& r, obs::Recorder* recorder) {
  return run_fuzz_case(r.config, r.schedule, recorder);
}

}  // namespace ecfd::check
