// Single-command helpers for the unit tests. An ACT reaches a technique
// only through IBankMitigation::on_activates, and a request reaches the
// controller only through MemoryController::on_records; a single ACT is
// a lane of length 1 and a single request a batch of one.
#pragma once

#include "tvp/mem/controller.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/trace/record.hpp"

namespace tvp::test {

/// Observes one ACT of @p row on @p technique (a lane of length 1).
inline void act(mem::IBankMitigation& technique, dram::RowId row,
                const mem::MitigationContext& ctx, mem::ActionBuffer& out) {
  technique.on_activates(&row, 1, ctx, out);
}

/// Feeds one request to @p controller (a batch of one).
inline void feed(mem::MemoryController& controller,
                 const trace::AccessRecord& record) {
  controller.on_records(&record, 1);
}

}  // namespace tvp::test
