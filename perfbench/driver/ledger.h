// The benchmark's own span recorder. The traced run wraps every call the
// benchmark makes into a layer's public functions in a span; nothing
// inside the program is instrumented for it. Spans stay in memory and are
// written once, at exit, as Chrome trace_event JSON in the shape of
// `netdiag run --trace-out` (so Perfetto and `netdiag trace-merge` open
// it), and summarised as inclusive and self time per span name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"

namespace perfbench {

struct SpanRec {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span of its lane
  double start_us = 0.0;     ///< relative to process start
  double dur_us = 0.0;
};

/// One thread's spans. A disabled ledger records nothing and never reads
/// the clock, so the same driver code runs untraced at full speed.
class Ledger {
 public:
  Ledger(bool on, std::uint32_t lane) : on_(on), lane_(lane) {}

  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Ledger;
    Scope(Ledger* l, std::size_t idx) : l_(l), idx_(idx) {}
    Ledger* l_;
    std::size_t idx_;
  };

  /// Opens a span that closes when the returned scope dies. `name` must
  /// outlive the ledger (use string literals).
  [[nodiscard]] Scope span(const char* name);

  /// Brackets the wall time the ledger accounts for; the profile's
  /// `unattributed` row is that wall minus the root spans inside it.
  void begin();
  void end();

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] std::uint32_t lane() const { return lane_; }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] double wall_us() const { return wall_us_; }
  /// Sum of durations / number of spans named `name`.
  [[nodiscard]] double total_us(std::string_view name) const;
  [[nodiscard]] std::size_t calls(std::string_view name) const;
  /// Sum of root-span durations (time attributed to some layer).
  [[nodiscard]] double root_us() const;

 private:
  bool on_;
  std::uint32_t lane_;
  std::vector<SpanRec> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t next_id_ = 1;
  double begin_us_ = 0.0;
  double wall_us_ = 0.0;
};

/// Writes every span of `ledgers` as one Chrome trace_event array.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<const Ledger*>& ledgers,
                                      std::string* error);

/// Inclusive and self time per span name over `ledgers`, plus an
/// `unattributed` row (ledger walls minus root spans), as a text table.
[[nodiscard]] std::string profile_table(
    const std::vector<const Ledger*>& ledgers);

}  // namespace perfbench
