#pragma once
// Global name-component interning table.
//
// Every name component string is registered here exactly once and mapped
// to a dense 32-bit ComponentId; Names then hold small ID vectors instead
// of string vectors, making component comparison O(1) and name hashing a
// few integer multiplies.  This is the substrate the LC-trie FIB and the
// interned-hash PIT/CS keys are built on (docs/ARCHITECTURE.md, "Name
// interning and table structures").
//
// The table is process-global and append-only: IDs are never recycled and
// interned strings are never moved, so `text(id)` references stay valid
// for the life of the process.  In particular the table survives router
// crash/restart cycles that wipe all volatile forwarding state (FIB, PIT,
// CS, Bloom filters) — it models the *vocabulary* of names, not any
// router's state.  ID values depend on interning order and carry no
// meaning: Name equality, ordering, and the byte-level hash used for
// fingerprints are all defined over the component *strings*, so two runs
// that intern in different orders still behave identically, and nothing
// behaviour-visible may key off ID values (docs/ARCHITECTURE.md,
// "Determinism contract").
//
// Thread safety: `text(id)` is lock-free — components live in fixed-size
// blocks whose pointers are published atomically and never move, and the
// table size is release-published after each slot is fully constructed.
// `intern` takes a shared lock for the (common) already-interned lookup
// and an exclusive lock to register a new component.

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tactic::ndn {

/// Dense identifier of one interned name component.
using ComponentId = std::uint32_t;

/// Reserved non-component value (open-addressing sentinels and the like).
inline constexpr ComponentId kInvalidComponent = 0xFFFFFFFFu;

class NameTable {
 public:
  /// The process-global table every Name interns through.
  static NameTable& instance();

  /// Returns the ID for `text`, registering it on first sight.  Re-interning
  /// the same string always yields the same ID (ID stability).
  ComponentId intern(std::string_view text);

  /// The component string for `id`.  The reference is stable forever
  /// (block storage never moves strings).  Throws std::out_of_range for
  /// unregistered IDs.  Lock-free.
  const std::string& text(ComponentId id) const {
    if (id >= size_.load(std::memory_order_acquire)) {
      throw std::out_of_range("NameTable: unregistered component id");
    }
    return blocks_[id >> kBlockBits].load(std::memory_order_relaxed)
        ->slots[id & (kBlockSize - 1)];
  }

  /// Number of distinct components registered so far.
  std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  // 4096 components per block; enough blocks to cover the 32-bit ID space
  // the simulator actually uses (2^28 components) without moving a string.
  static constexpr std::uint32_t kBlockBits = 12;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockBits;
  static constexpr std::uint32_t kNumBlocks = 1u << 16;

  struct Block {
    std::string slots[kBlockSize];
  };

  NameTable() = default;
  ~NameTable();

  std::atomic<Block*> blocks_[kNumBlocks] = {};
  std::atomic<std::uint32_t> size_{0};

  mutable std::shared_mutex mutex_;  // guards ids_ and registration
  /// text -> id; keys view the block-owned strings (stable storage).
  std::unordered_map<std::string_view, ComponentId> ids_;
};

}  // namespace tactic::ndn
