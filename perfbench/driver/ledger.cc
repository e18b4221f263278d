#include "ledger.h"

#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   kProcessStart)
      .count();
}

std::string hex_id(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

Ledger::Scope::~Scope() {
  if (l_ == nullptr) return;
  SpanRec& s = l_->spans_[idx_];
  s.dur_us = now_us() - s.start_us;
  l_->open_.pop_back();
}

Ledger::Scope Ledger::span(const char* name) {
  if (!on_) return Scope(nullptr, 0);
  SpanRec s;
  s.name = name;
  s.id = (static_cast<std::uint64_t>(lane_ + 1) << 40) | next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.start_us = now_us();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void Ledger::begin() {
  if (on_) begin_us_ = now_us();
}

void Ledger::end() {
  if (on_) wall_us_ += now_us() - begin_us_;
}

double Ledger::total_us(std::string_view name) const {
  double t = 0.0;
  for (const SpanRec& s : spans_) {
    if (name == s.name) t += s.dur_us;
  }
  return t;
}

std::size_t Ledger::calls(std::string_view name) const {
  std::size_t n = 0;
  for (const SpanRec& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

double Ledger::root_us() const {
  double t = 0.0;
  for (const SpanRec& s : spans_) {
    if (s.parent == 0) t += s.dur_us;
  }
  return t;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Ledger*>& ledgers,
                        std::string* error) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    *error = "cannot write " + path;
    return false;
  }
  os << "[\n";
  bool first = true;
  char buf[96];
  for (const Ledger* l : ledgers) {
    const std::string trace = hex_id(l->lane() + 1);
    for (const SpanRec& s : l->spans()) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << l->lane() << ",\"name\":\""
         << s.name << "\",\"ts\":";
      std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.start_us,
                    s.dur_us);
      os << buf << ",\"args\":{\"trace\":\"" << trace << "\",\"id\":\""
         << hex_id(s.id) << "\",\"parent\":\"" << hex_id(s.parent) << "\"}}";
    }
  }
  os << "\n]\n";
  os.close();
  if (!os) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

std::string profile_table(const std::vector<const Ledger*>& ledgers) {
  struct Row {
    double inclusive_us = 0.0;
    double self_us = 0.0;
    std::size_t calls = 0;
  };
  std::map<std::string, Row> rows;
  double wall_us = 0.0;
  double attributed_us = 0.0;
  for (const Ledger* l : ledgers) {
    const auto& spans = l->spans();
    // Children close before their parent, so one pass subtracting each
    // span's duration from its parent's self time is exact.
    std::map<std::uint64_t, std::size_t> index;
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      index[spans[i].id] = i;
      self[i] = spans[i].dur_us;
    }
    for (const SpanRec& s : spans) {
      if (s.parent != 0) self[index[s.parent]] -= s.dur_us;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Row& r = rows[spans[i].name];
      r.inclusive_us += spans[i].dur_us;
      r.self_us += self[i];
      ++r.calls;
    }
    wall_us += l->wall_us();
    attributed_us += l->root_us();
  }
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %12s %12s %8s %10s\n", "span",
                "incl_ms", "self_ms", "self_%", "calls");
  out += buf;
  const double denom = wall_us > 0.0 ? wall_us : 1.0;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-28s %12.3f %12.3f %8.2f %10zu\n",
                  name.c_str(), r.inclusive_us / 1e3, r.self_us / 1e3,
                  100.0 * r.self_us / denom, r.calls);
    out += buf;
  }
  const double unattributed_us = wall_us - attributed_us;
  std::snprintf(buf, sizeof(buf), "  %-28s %12.3f %12.3f %8.2f %10s\n",
                "unattributed", unattributed_us / 1e3, unattributed_us / 1e3,
                100.0 * unattributed_us / denom, "-");
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-28s %12.3f\n", "wall", wall_us / 1e3);
  out += buf;
  return out;
}

}  // namespace perfbench
