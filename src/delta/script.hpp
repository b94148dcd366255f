// Script: an ordered sequence of delta commands plus the structural
// invariants the paper relies on (§3): write intervals of all commands are
// pairwise disjoint, and together they exactly tile the version file
// [0, L_V). Commands are applied in sequence order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "delta/command.hpp"

namespace ipd {

/// Aggregate counts over a script, used by stats and the benches.
struct ScriptSummary {
  std::size_t copy_count = 0;
  std::size_t add_count = 0;
  length_t copied_bytes = 0;  ///< version bytes produced by copies
  length_t added_bytes = 0;   ///< version bytes carried literally

  length_t version_bytes() const noexcept { return copied_bytes + added_bytes; }
};

class Script {
 public:
  Script() = default;
  explicit Script(std::vector<Command> commands)
      : commands_(std::move(commands)) {}

  const std::vector<Command>& commands() const noexcept { return commands_; }
  std::vector<Command>& commands() noexcept { return commands_; }
  std::size_t size() const noexcept { return commands_.size(); }
  bool empty() const noexcept { return commands_.empty(); }

  void push(CopyCommand c) { commands_.emplace_back(std::move(c)); }
  void push(AddCommand a) { commands_.emplace_back(std::move(a)); }
  void push(Command c) { commands_.emplace_back(std::move(c)); }

  /// Length of the version file this script materialises: the sum of all
  /// command lengths (== max write end + 1 for a valid script; this
  /// overload does not require validity).
  length_t version_length() const noexcept;

  ScriptSummary summary() const noexcept;

  /// Copies and adds split into separate vectors, preserving order.
  std::vector<CopyCommand> copies() const;
  std::vector<AddCommand> adds() const;

  /// Validate against the §3 model:
  ///  * every command length >= 1;
  ///  * copy read intervals lie inside [0, reference_length);
  ///  * write intervals are pairwise disjoint;
  ///  * write intervals tile [0, version_length) exactly.
  /// Throws ValidationError with a diagnostic on the first violation.
  void validate(length_t reference_length, length_t version_length) const;

  /// True iff commands appear in strictly increasing write-offset order
  /// with no gaps — the precondition for the implicit-write-offset
  /// ("no write offsets", Table 1 column 1) codeword format.
  bool in_write_order() const noexcept;

  /// Stable-sort all commands by write offset. Any valid script can be
  /// reordered freely (§3: "any permutation ... materializes the same
  /// output"), so this never changes the encoded version.
  void sort_by_write_offset();

  /// Human-readable listing (one command per line) for debugging/CLI.
  std::string to_text(std::size_t max_commands = 64) const;

  bool operator==(const Script&) const = default;

 private:
  std::vector<Command> commands_;
};

/// The Script as a command table, in its order: the one conversion from
/// the owning form. Adds borrow the Script's bytes, so the table must not
/// outlive the Script or see it change. A zero-length add stays an add.
std::vector<CommandRef> command_table(const Script& script);

/// One entry of an offset order: the `index`-th range starts at `to`.
struct KeyedWrite {
  offset_t to = 0;
  std::size_t index = 0;
};

/// The offsets sorted, stably: an LSD radix sort with 11-bit digits, one
/// pass per digit of the largest offset. Serves the write tiling check
/// and scan_equation2's reads alike.
std::vector<KeyedWrite> sort_by_offset(std::span<const offset_t> offsets);

/// What check_write_tiling asks of a table's writes as a whole.
enum class Coverage : std::uint8_t {
  kTile,      ///< pairwise disjoint and tiling [0, version_length)
  kDisjoint,  ///< pairwise disjoint; bytes nobody writes are fine
};

/// Throws ValidationError unless the writes of `commands` meet
/// `coverage`; `commands[i]` is command i in the messages. Precondition:
/// no write wraps u64. Linear time: one scan when the writes are already
/// in offset order, else sort_by_offset(). Returns the sorted order, or
/// an empty vector when the writes already are in offset order.
std::vector<KeyedWrite> check_write_tiling(
    std::span<const CommandRef> commands, length_t version_length,
    Coverage coverage = Coverage::kTile);

/// The §3 model check over a command table, which Script::validate,
/// check_delta_model and satisfies_equation2 all run. Per command, in
/// order: a nonzero length, a copy's reads inside the reference, the
/// write inside the version; then check_write_tiling, whose order it
/// returns. Throws ValidationError naming the first violation.
std::vector<KeyedWrite> check_command_table(
    std::span<const CommandRef> commands, length_t reference_length,
    length_t version_length, Coverage coverage = Coverage::kTile);

/// Apply-order-independence helper: scripts that contain the same command
/// multiset encode the same version. Compares write-offset-sorted copies.
bool same_effect(const Script& a, const Script& b);

}  // namespace ipd
