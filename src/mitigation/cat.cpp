#include "tvp/mitigation/cat.hpp"

#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"

namespace tvp::mitigation {

Cat::Cat(CatConfig config, util::Rng) : cfg_(config) {
  if (cfg_.node_budget < 3)
    throw std::invalid_argument("Cat: node budget must allow one split");
  if (cfg_.trigger_threshold == 0 || cfg_.split_quantum == 0)
    throw std::invalid_argument("Cat: zero threshold");
  if (cfg_.rows_per_bank == 0 || !util::is_pow2(cfg_.rows_per_bank))
    throw std::invalid_argument("Cat: rows_per_bank must be a power of two");
  max_depth_ = static_cast<std::uint8_t>(util::floor_log2(cfg_.rows_per_bank));
  nodes_.reserve(cfg_.node_budget);
  reset_tree();
}

void Cat::reset_tree() {
  nodes_.clear();
  nodes_.push_back(Node{});  // root covers the whole bank
}

void Cat::observe(dram::RowId row, mem::ActionBuffer& out) {
  // Descend to the leaf covering `row` (branch on address bits, MSB
  // first — exactly the hardware's prefix walk).
  std::size_t index = 0;
  while (nodes_[index].left >= 0) {
    const std::uint8_t depth = nodes_[index].depth;
    const bool right = (row >> (max_depth_ - 1 - depth)) & 1u;
    index = static_cast<std::size_t>(right ? nodes_[index].right
                                           : nodes_[index].left);
  }

  Node& leaf = nodes_[index];
  ++leaf.count;

  if (leaf.depth == max_depth_) {
    // Single-row leaf: deterministic mitigation at the trigger threshold.
    if (leaf.count >= cfg_.trigger_threshold) {
      mem::MitigationAction action;
      action.kind = mem::MitigationAction::Kind::kActNeighbors;
      action.row = row;
      action.suspect = row;
      out.push_back(action);
      leaf.count = 0;
    }
    return;
  }

  // Coarse leaf: split once it absorbed a quantum — if nodes remain.
  if (leaf.count >= cfg_.split_quantum) {
    if (nodes_.size() + 2 <= cfg_.node_budget) {
      const std::uint8_t child_depth = leaf.depth + 1;
      // (vector growth may invalidate `leaf`; re-index afterwards.)
      nodes_.push_back(Node{0, -1, -1, child_depth});
      nodes_.push_back(Node{0, -1, -1, child_depth});
      nodes_[index].left = static_cast<std::int32_t>(nodes_.size() - 2);
      nodes_[index].right = static_cast<std::int32_t>(nodes_.size() - 1);
      nodes_[index].count = 0;
    } else if (nodes_[index].count >= cfg_.trigger_threshold) {
      // Saturated tree, hot coarse region: the defence cannot name the
      // aggressor row — the Section II attack in action.
      ++blind_triggers_;
      nodes_[index].count = 0;
    }
  }
}

void Cat::on_activates(const dram::RowId* rows, std::size_t n,
                        const mem::MitigationContext&,
                        mem::ActionBuffer& out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    observe(rows[i], out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

void Cat::on_refresh(const mem::MitigationContext& ctx,
                     mem::ActionBuffer&) {
  // The tree is rebuilt each refresh window (Section II: "the tree is
  // reset at each new refresh window").
  if (ctx.window_start) reset_tree();
}

std::uint64_t Cat::state_bits() const noexcept {
  // Counter + two child indices per node.
  const unsigned index_bits = util::bits_for(cfg_.node_budget + 1);
  const unsigned counter_bits = util::bits_for(cfg_.trigger_threshold + 1);
  return static_cast<std::uint64_t>(cfg_.node_budget) *
         (counter_bits + 2 * index_bits);
}

mem::BankMitigationFactory make_cat_factory(CatConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Cat>(config, rng);
  };
}

}  // namespace tvp::mitigation
