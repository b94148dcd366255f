// Script: the command table the producers build and the encoder reads,
// plus the structural invariants the paper relies on (§3): write
// intervals of all commands are pairwise disjoint, and together they
// exactly tile the version file [0, L_V). Commands are applied in
// sequence order.
//
// An add is <t, l> and a pointer to bytes that already exist, which the
// Script does not own (a differ's version, the reference, a delta's
// payload): keep them alive and unchanged while the Script is used. A
// small arena, shared by copies of the Script, holds bytes only where no
// such source exists: hand-built adds and merged runs whose pieces are
// not contiguous in memory.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "delta/command.hpp"

namespace ipd {

struct ParsedDelta;

/// True iff `commands` appear in strictly increasing write-offset order
/// with no gaps — the precondition for the implicit-write-offset
/// ("no write offsets", Table 1 column 1) codeword format.
bool in_write_order(std::span<const CommandRef> commands) noexcept;

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
  /// A table as it stands; its adds keep borrowing their bytes.
  explicit Script(std::vector<CommandRef> commands)
      : commands_(std::move(commands)) {}
  /// A parsed delta's table, without copying: its adds keep borrowing
  /// the artifact, and the Script takes the decompressed payload over.
  explicit Script(ParsedDelta&& parsed);

  std::span<const CommandRef> commands() const noexcept { return commands_; }
  /// Rows may be edited in place; an add must keep pointing at live bytes.
  std::span<CommandRef> commands() noexcept { return commands_; }
  std::size_t size() const noexcept { return commands_.size(); }
  bool empty() const noexcept { return commands_.empty(); }
  void pop_back() noexcept { commands_.pop_back(); }

  void push(const CopyCommand& c) {
    commands_.push_back({c.to, c.length, c.from});
  }
  /// Append a row as it is; an add keeps borrowing its bytes.
  void push(const CommandRef& c) { commands_.push_back(c); }
  /// Append add <to, bytes.size()> borrowing `bytes`.
  void push_add(offset_t to, ByteView bytes);
  /// Append add <to, bytes.size()> over a copy of `bytes` in the arena.
  void push_owned_add(offset_t to, ByteView bytes);
  /// push_add, joined to the last command when that is an add ending at
  /// `to`: a length sum when `bytes` follow its bytes in memory, else
  /// the run is gathered into the arena.
  void append_add(offset_t to, ByteView bytes);
  /// Share `other`'s arena, for rows taken from it: its chunks live on
  /// while either Script does.
  void share_arena(const Script& other);
  std::size_t arena_bytes() const noexcept;

  /// Length of the version file this script materialises: the sum of all
  /// command lengths (== max write end + 1 for a valid script; this
  /// overload does not require validity).
  length_t version_length() const noexcept;

  ScriptSummary summary() const noexcept;

  /// Validate against the §3 model:
  ///  * every command length >= 1;
  ///  * copy read intervals lie inside [0, reference_length);
  ///  * write intervals are pairwise disjoint;
  ///  * write intervals tile [0, version_length) exactly.
  /// Throws ValidationError with a diagnostic on the first violation.
  void validate(length_t reference_length, length_t version_length) const;

  bool in_write_order() const noexcept {
    return ipd::in_write_order(commands_);
  }

  /// Stable-sort all commands by write offset. Any valid script can be
  /// reordered freely (§3: "any permutation ... materializes the same
  /// output"), so this never changes the encoded version.
  void sort_by_write_offset();

  /// Human-readable listing (one command per line) for debugging/CLI.
  std::string to_text(std::size_t max_commands = 64) const;

  /// Same commands in the same order; adds compare by their bytes.
  bool operator==(const Script& other) const noexcept;

 private:
  bool room_for(std::size_t n) const noexcept;
  /// `n` arena bytes that stay put while any copy of the Script lives.
  std::uint8_t* allocate(std::size_t n);

  std::vector<CommandRef> commands_;
  /// Chunks are never reallocated, nor appended to once shared.
  std::vector<std::shared_ptr<Bytes>> arena_;
};

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
bool same_effect(Script a, Script b);

}  // namespace ipd
