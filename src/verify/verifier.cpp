#include "verify/verifier.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "obs/trace.hpp"

namespace ipd {
namespace {

std::string interval_text(const Interval& iv) {
  return "[" + std::to_string(iv.first) + ", " + std::to_string(iv.last) + "]";
}

std::string cmd_text(std::size_t index) {
  return "cmd#" + std::to_string(index);
}

/// Capped sink for findings: the boolean verdicts stay exact even when
/// an adversarial delta produces more violations than we are willing to
/// materialize.
class Sink {
 public:
  Sink(Report& report, const VerifyOptions& options)
      : report_(report), cap_(options.max_findings) {}

  void add(Severity severity, Check check, std::string message,
           std::optional<std::size_t> command = std::nullopt,
           std::optional<std::size_t> other = std::nullopt,
           std::optional<Interval> bytes = std::nullopt) {
    if (report_.findings.size() >= cap_) {
      report_.findings_truncated = true;
      return;
    }
    report_.findings.push_back(Finding{severity, check, std::move(message),
                                       command, other, bytes});
  }

 private:
  Report& report_;
  std::size_t cap_;
};

/// Passes 1 and 2, run only on a table check_delta_model() rejected:
/// enumerate every bounds fault and every overlap and gap (up to the
/// cap), where the model check names only the first.
void diagnose_model(const ParsedDelta& parsed, Sink& sink) {
  const std::vector<CommandRef>& commands = parsed.commands;
  const length_t ref_len = parsed.header.reference_length;
  const length_t ver_len = parsed.header.version_length;
  constexpr offset_t kMaxOffset = std::numeric_limits<offset_t>::max();

  // Pass 1: per-command checks. `usable[i]` marks commands whose write
  // interval is representable (no u64 wraparound) and may therefore
  // take part in the coverage pass. Decoding already refused zero
  // lengths.
  std::vector<char> usable(commands.size(), 0);
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const CommandRef& cmd = commands[i];
    const length_t len = cmd.length;
    if (cmd.to > kMaxOffset - (len - 1)) {
      sink.add(Severity::kError, Check::kOffsetOverflow,
               cmd_text(i) + ": write offset " + std::to_string(cmd.to) +
                   " + length " + std::to_string(len) + " overflows u64",
               i);
      continue;
    }
    usable[i] = 1;
    const Interval w = Interval::of(cmd.to, len);
    if (ver_len == 0 || w.last >= ver_len) {
      sink.add(Severity::kError, Check::kWriteBounds,
               cmd_text(i) + ": writes " + interval_text(w) +
                   " outside the version file of " + std::to_string(ver_len) +
                   " bytes",
               i, std::nullopt, w);
    }
    if (!cmd.is_add()) {
      if (cmd.from > kMaxOffset - (len - 1)) {
        sink.add(Severity::kError, Check::kOffsetOverflow,
                 cmd_text(i) + ": read offset " + std::to_string(cmd.from) +
                     " + length " + std::to_string(len) + " overflows u64",
                 i);
        continue;
      }
      const Interval r = Interval::of(cmd.from, len);
      if (ref_len == 0 || r.last >= ref_len) {
        sink.add(Severity::kError, Check::kReadBounds,
                 cmd_text(i) + ": copy reads " + interval_text(r) +
                     " outside the reference file of " +
                     std::to_string(ref_len) + " bytes",
                 i, std::nullopt, r);
      }
    }
  }

  // Pass 2: coverage — write intervals sorted by offset must be pairwise
  // disjoint and tile [0, V) exactly; enumerate every gap and overlap
  // pair.
  struct Slot {
    Interval write;
    std::uint32_t serial;
  };
  std::vector<Slot> slots;
  slots.reserve(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    if (usable[i]) {
      slots.push_back(Slot{Interval::of(commands[i].to, commands[i].length),
                           static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.write.first != b.write.first ? a.write.first < b.write.first
                                          : a.write.last < b.write.last;
  });
  offset_t next = 0;           // first version byte not yet written
  bool next_saturated = false;  // a write reached offset u64-max
  std::size_t prev_slot = 0;    // slot index with the furthest write end
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const Interval& w = slots[s].write;
    if (s > 0 && !next_saturated && w.first < next) {
      const Interval& pw = slots[prev_slot].write;
      const Interval overlap{w.first, std::min(w.last, pw.last)};
      sink.add(Severity::kError, Check::kWriteOverlap,
               cmd_text(slots[s].serial) + " and " +
                   cmd_text(slots[prev_slot].serial) +
                   " both write bytes " + interval_text(overlap),
               slots[s].serial, slots[prev_slot].serial, overlap);
    } else if (!next_saturated && w.first > next && next < ver_len) {
      const Interval gap{next, std::min<offset_t>(w.first - 1, ver_len - 1)};
      sink.add(Severity::kError, Check::kCoverage,
               "coverage gap: bytes " + interval_text(gap) +
                   " are never written",
               std::nullopt, std::nullopt, gap);
    }
    if (s == 0 || w.last > slots[prev_slot].write.last) prev_slot = s;
    if (w.last == kMaxOffset) {
      next_saturated = true;
    } else if (!next_saturated) {
      next = std::max(next, w.last + 1);
    }
  }
  if (!next_saturated && next < ver_len) {
    const Interval gap{next, ver_len - 1};
    sink.add(Severity::kError, Check::kCoverage,
             "coverage gap: bytes " + interval_text(gap) +
                 " are never written",
             std::nullopt, std::nullopt, gap);
  }
}

/// Everything after decoding: the model check (diagnosed in full when it
/// fails), Equation 2 on a table that passed it, then style warnings.
void analyze(ParsedDelta& parsed, const VerifyOptions& opts, Report& report) {
  Sink sink(report, opts);
  try {
    check_delta_model(parsed);
  } catch (const ValidationError&) {
    diagnose_model(parsed, sink);
    return;
  }
  const std::vector<CommandRef>& commands = parsed.commands;
  const bool in_place_claimed = parsed.header.in_place;
  const bool in_place_wanted = in_place_claimed || opts.require_in_place;

  // Pass 3: Equation 2. Every command — add or copy — is a writer, every
  // copy a reader.
  const std::size_t conflict_count = scan_equation2(
      commands, parsed.write_order, [&](const WriteBeforeRead& c) {
        if (in_place_wanted) {
          sink.add(Severity::kError, Check::kWriteBeforeRead,
                   "conflict: " + cmd_text(c.reader) + " reads " +
                       interval_text(c.overlap) + " after " +
                       cmd_text(c.writer) + " wrote it",
                   c.reader, c.writer, c.overlap);
        }
        return true;
      });
  if (in_place_claimed && conflict_count > 0) {
    sink.add(Severity::kError, Check::kInPlaceFlag,
             "header claims in-place applicability but the script has " +
                 std::to_string(conflict_count) +
                 " write-before-read conflict(s)");
  }
  report.in_place_safe = conflict_count == 0;

  // Style warnings, calibrated so pipeline output is silent: the paper
  // schedules adds after all copies in an in-place script (§4.2), and a
  // sequential (non-in-place) delta is expected to write contiguously.
  if (in_place_wanted) {
    std::size_t last_copy = commands.size();
    for (std::size_t i = commands.size(); i-- > 0;) {
      if (!commands[i].is_add()) {
        last_copy = i;
        break;
      }
    }
    for (std::size_t i = 0; last_copy < commands.size() && i < last_copy;
         ++i) {
      if (commands[i].is_add()) {
        sink.add(Severity::kWarning, Check::kAddPlacement,
                 cmd_text(i) + " is an add placed before copy " +
                     cmd_text(last_copy) +
                     "; in-place scripts schedule adds last",
                 i, last_copy);
        break;
      }
    }
  }
  if (!in_place_wanted) {
    offset_t expected = 0;
    for (std::size_t i = 0; i < commands.size(); ++i) {
      const offset_t to = commands[i].to;
      if (to != expected) {
        sink.add(Severity::kWarning, Check::kWriteDiscontinuity,
                 cmd_text(i) + " writes at " + std::to_string(to) +
                     " where " + std::to_string(expected) +
                     " was expected; sequential deltas write contiguously",
                 i);
        break;
      }
      expected = to + commands[i].length;
    }
  }
}

}  // namespace

Report Verifier::check(ByteView delta) const {
  obs::Span span(obs::Stage::kVerify, delta.size());
  Report report;
  ParsedDelta parsed;
  const std::optional<DeltaRejection> rejection =
      decode_delta(delta, parsed, options_.max_payload_bytes);
  if (!rejection || rejection->kind != DeltaRejection::Kind::kHeader) {
    report.header = parsed.header;
  }
  report.command_count = parsed.commands.size();
  if (rejection) {
    using Kind = DeltaRejection::Kind;
    Finding finding{Severity::kError,
                    rejection->kind == Kind::kPayload ? Check::kPayload
                                                      : Check::kContainer,
                    rejection->message};
    if (rejection->kind == Kind::kCodeword) {
      finding.check = Check::kCodeword;
      finding.message = cmd_text(rejection->command) + ": " + finding.message;
      finding.command = rejection->command;
    }
    report.findings.push_back(std::move(finding));
    return report;
  }
  report.well_formed = true;
  analyze(parsed, options_, report);
  return report;
}

std::size_t Report::error_count() const noexcept {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.severity == Severity::kError;
  return n;
}

std::size_t Report::warning_count() const noexcept {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.severity == Severity::kWarning;
  return n;
}

std::string Report::first_error() const {
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) return f.message;
  }
  return {};
}

}  // namespace ipd
