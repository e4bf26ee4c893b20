// The mitigation hook: how a Row-Hammer defence plugs into the memory
// controller (Figure 1 of the paper).
//
// A technique observes two commands per bank — ACT (row address) and REF
// (refresh-interval tick) — and may respond with extra activations:
// either the act_n "activate both physical neighbours" command used by
// PARA/TWiCe/TiVaPRoMi, or an explicit row activation as used by
// ProHit/MRLoc (which compute victim addresses as N±1 themselves).
//
// Techniques are written for a single bank (exactly as in Section III);
// the MitigationEngine instantiates one object per bank and routes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mem {

/// One extra activation requested by a mitigation technique.
///
/// (Rate-limiting defences like BlockHammer would need a throttle action
/// plus a *closed-loop* attacker whose rate responds to backpressure;
/// our traces are open-loop by design, so that family is out of scope —
/// documented in DESIGN.md rather than modelled misleadingly.)
struct MitigationAction {
  enum class Kind {
    /// act_n: the device activates both *physical* neighbours of `row`.
    kActNeighbors,
    /// Activate the given logical `row` directly (ProHit/MRLoc style).
    kActRow,
  };
  Kind kind = Kind::kActNeighbors;
  dram::RowId row = 0;
  /// The row the technique suspects of being an aggressor; ground-truth
  /// false-positive accounting compares this against the real aggressor
  /// set. For kActNeighbors this equals `row`.
  dram::RowId suspect = 0;
  /// Index of the ACT (within an on_activates lane) that produced this
  /// action; 0 for REF-time actions. The controller uses it to issue
  /// actions in record order. Techniques fill it with
  /// ActionBuffer::stamp_origin and must append actions in
  /// non-decreasing origin order.
  std::uint32_t origin = 0;
};

/// Timing/context of the observed command.
struct MitigationContext {
  std::uint32_t interval_in_window = 0;  ///< i in [0, RefInt)
  std::uint64_t global_interval = 0;     ///< monotone across windows
  bool window_start = false;             ///< first interval of a window
};

/// Reusable output buffer for mitigation actions (the ACT hot path).
///
/// The dispatcher (MitigationEngine) owns one instance per bank for ACT
/// lanes and one for REFs, each cleared-and-reused for every command, so
/// the steady-state controller -> engine -> technique path performs no
/// heap allocation: clear() keeps the capacity, and the capacity
/// stabilizes after the first few commands (a technique emits at most a
/// handful of actions per command). Handlers append only; they must not hold references to
/// the buffer or its contents across calls — the next dispatch clears
/// it (see DESIGN.md, "The ACT hot path").
class ActionBuffer {
 public:
  /// Pre-reserved so typical techniques (0-2 actions per command) never
  /// allocate after construction.
  static constexpr std::size_t kInitialCapacity = 8;

  ActionBuffer() { storage_.reserve(kInitialCapacity); }

  void push_back(const MitigationAction& action) { storage_.push_back(action); }

  /// Tags every action appended since @p from (a size() snapshot) with
  /// @p origin — the batch index of the ACT that produced them. Batch
  /// kernels call this once per processed ACT that emitted anything.
  void stamp_origin(std::size_t from, std::uint32_t origin) noexcept {
    for (std::size_t i = from; i < storage_.size(); ++i)
      storage_[i].origin = origin;
  }

  /// Drops all actions but keeps the allocation.
  void clear() noexcept { storage_.clear(); }

  bool empty() const noexcept { return storage_.empty(); }
  std::size_t size() const noexcept { return storage_.size(); }
  /// Exposed so tests can assert the buffer stops growing (the
  /// steady-state no-allocation guarantee).
  std::size_t capacity() const noexcept { return storage_.capacity(); }

  const MitigationAction* data() const noexcept { return storage_.data(); }
  const MitigationAction* begin() const noexcept { return storage_.data(); }
  const MitigationAction* end() const noexcept {
    return storage_.data() + storage_.size();
  }
  const MitigationAction& operator[](std::size_t i) const noexcept {
    return storage_[i];
  }
  const MitigationAction& front() const { return storage_.front(); }
  const MitigationAction& back() const { return storage_.back(); }

 private:
  std::vector<MitigationAction> storage_;
};

/// Per-bank mitigation state machine.
class IBankMitigation {
 public:
  virtual ~IBankMitigation() = default;

  /// Technique name ("PARA", "LiPRoMi", ...).
  virtual const char* name() const noexcept = 0;

  /// Observes a same-bank *lane* of ACT row addresses in arrival order —
  /// the only way an ACT reaches a technique; a single ACT is a lane of
  /// length 1. @p rows is a contiguous column of logical row ids (SoA:
  /// the controller's partition pass scatters each batch into per-bank
  /// lanes once; a corpus block hands its lane out zero-copy). @p ctx
  /// applies to every element (a controller lane never crosses a
  /// refresh boundary). The outcome must not depend on
  /// how a stream is cut into lanes (same RNG draw order, same state
  /// transitions); each appended action must carry the lane index of the
  /// ACT that produced it in MitigationAction::origin, appended in
  /// non-decreasing origin order.
  virtual void on_activates(const dram::RowId* rows, std::size_t n,
                            const MitigationContext& ctx,
                            ActionBuffer& out) = 0;

  /// Observes the REF command that starts refresh interval ctx.interval_
  /// in_window; appends any (deferred) extra activations to @p out.
  virtual void on_refresh(const MitigationContext& ctx, ActionBuffer& out) = 0;

  /// Storage this technique keeps per bank, in bits (history tables,
  /// counters, CAM entries). Reproduces the x-axis of Figure 4.
  virtual std::uint64_t state_bits() const noexcept = 0;
};

/// Creates the per-bank instance; @p rng must be used for all of the
/// technique's randomness.
using BankMitigationFactory =
    std::function<std::unique_ptr<IBankMitigation>(dram::BankId bank, util::Rng rng)>;

/// A no-op defence (the unprotected baseline).
class NoMitigation final : public IBankMitigation {
 public:
  const char* name() const noexcept override { return "none"; }
  void on_activates(const dram::RowId*, std::size_t, const MitigationContext&,
                    ActionBuffer&) override {}
  void on_refresh(const MitigationContext&, ActionBuffer&) override {}
  std::uint64_t state_bits() const noexcept override { return 0; }
};

/// Routes commands to per-bank technique instances.
class MitigationEngine {
 public:
  /// @p banks instances are created eagerly from @p factory; @p rng is
  /// forked once per bank.
  MitigationEngine(std::uint32_t banks, const BankMitigationFactory& factory,
                   util::Rng& rng);

  std::uint32_t banks() const noexcept {
    return static_cast<std::uint32_t>(per_bank_.size());
  }
  IBankMitigation& bank(dram::BankId id) { return *per_bank_.at(id); }
  const IBankMitigation& bank(dram::BankId id) const { return *per_bank_.at(id); }

  const char* name() const noexcept { return per_bank_.front()->name(); }

  /// Total mitigation storage across banks, in bits / bytes-per-bank.
  std::uint64_t state_bits_total() const noexcept;
  double state_bytes_per_bank() const noexcept;

  /// Dispatches the REF to the bank's technique and returns the actions
  /// it requested. The returned buffer is the engine-owned scratch: it
  /// is valid only until the next on_refresh call, and the engine (not
  /// the caller) pays its one-time allocation.
  const ActionBuffer& on_refresh(dram::BankId bank, const MitigationContext& ctx) {
    scratch_.clear();
    per_bank_[bank]->on_refresh(ctx, scratch_);
    return scratch_;
  }

  /// Lane dispatch (the ACT hot path): hands a same-bank column of ACT
  /// row addresses to the bank's technique in one virtual call. Returns
  /// the *bank-owned* scratch buffer — unlike on_refresh's shared
  /// scratch it is private to @p bank, so independent banks may run
  /// concurrently; it stays valid until the next on_activates call for
  /// the same bank.
  const ActionBuffer& on_activates(dram::BankId bank, const dram::RowId* rows,
                                   std::size_t n, const MitigationContext& ctx) {
    ActionBuffer& buf = bank_scratch_[bank].buffer;
    buf.clear();
    per_bank_[bank]->on_activates(rows, n, ctx, buf);
    return buf;
  }

  /// Per-bank scratch of the ACT path (read-only; exposed so tests can
  /// assert its capacity stabilizes in steady state).
  const ActionBuffer& bank_scratch(dram::BankId bank) const {
    return bank_scratch_.at(bank).buffer;
  }

 private:
  /// Cache-line separated so concurrent bank workers never write the
  /// same line through adjacent buffers.
  struct alignas(64) BankScratch {
    ActionBuffer buffer;
  };

  std::vector<std::unique_ptr<IBankMitigation>> per_bank_;
  ActionBuffer scratch_;
  std::vector<BankScratch> bank_scratch_;
};

}  // namespace tvp::mem
