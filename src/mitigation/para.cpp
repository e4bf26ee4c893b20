#include "tvp/mitigation/para.hpp"

#include <memory>
#include <stdexcept>

namespace tvp::mitigation {

Para::Para(ParaConfig config, util::Rng rng) : cfg_(config), rng_(rng) {
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("Para: zero rows_per_bank");
}

void Para::observe(dram::RowId row, mem::ActionBuffer& out) {
  if (!rng_.bernoulli_q32(cfg_.p.raw())) return;
  // Pick one side at random; fall back to the other at the array edge.
  const bool up = (rng_.next() & 1) != 0;
  dram::RowId neighbor;
  if (up && row + 1 < cfg_.rows_per_bank)
    neighbor = row + 1;
  else if (row > 0)
    neighbor = row - 1;
  else
    neighbor = row + 1;

  mem::MitigationAction action;
  action.kind = mem::MitigationAction::Kind::kActRow;
  action.row = neighbor;
  action.suspect = row;
  out.push_back(action);
}

void Para::on_activates(const dram::RowId* rows, std::size_t n,
                         const mem::MitigationContext&,
                         mem::ActionBuffer& out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    observe(rows[i], out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

mem::BankMitigationFactory make_para_factory(ParaConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Para>(config, rng);
  };
}

}  // namespace tvp::mitigation
