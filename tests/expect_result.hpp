// The equality the runs of one workload are held to: a cohort member
// against its solo run, a sweep cell against run_simulation, a run read
// at a horizon against a run of that many windows.
#pragma once

#include <gtest/gtest.h>

#include "tvp/exp/runner.hpp"

namespace tvp::test {

/// Every RunResult field but wall_seconds.
inline void expect_same_result(const exp::RunResult& got, const exp::RunResult& want) {
  EXPECT_EQ(got.technique, want.technique);
  const mem::ControllerStats& a = got.stats;
  const mem::ControllerStats& b = want.stats;
  EXPECT_EQ(a.demand_acts, b.demand_acts);
  EXPECT_EQ(a.extra_acts, b.extra_acts);
  EXPECT_EQ(a.fp_extra_acts, b.fp_extra_acts);
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.refresh_intervals, b.refresh_intervals);
  EXPECT_EQ(a.rows_refreshed, b.rows_refreshed);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.delayed_acts, b.delayed_acts);
  EXPECT_EQ(a.first_extra_act_at, b.first_extra_act_at);
  EXPECT_EQ(a.acts_per_interval.count(), b.acts_per_interval.count());
  EXPECT_EQ(a.acts_per_interval.mean(), b.acts_per_interval.mean());
  EXPECT_EQ(a.acts_per_interval.variance(), b.acts_per_interval.variance());
  EXPECT_EQ(a.acts_per_interval.min(), b.acts_per_interval.min());
  EXPECT_EQ(a.acts_per_interval.max(), b.acts_per_interval.max());
  EXPECT_EQ(a.extra_acts_by_phase, b.extra_acts_by_phase);
  EXPECT_EQ(got.flips, want.flips);
  EXPECT_EQ(got.victim_flips, want.victim_flips);
  ASSERT_EQ(got.flip_events.size(), want.flip_events.size());
  for (std::size_t i = 0; i < got.flip_events.size(); ++i) {
    EXPECT_EQ(got.flip_events[i].bank, want.flip_events[i].bank) << "flip " << i;
    EXPECT_EQ(got.flip_events[i].row, want.flip_events[i].row) << "flip " << i;
    EXPECT_EQ(got.flip_events[i].at_activation,
              want.flip_events[i].at_activation)
        << "flip " << i;
    EXPECT_EQ(got.flip_events[i].interval, want.flip_events[i].interval)
        << "flip " << i;
  }
  EXPECT_EQ(got.peak_disturbance, want.peak_disturbance);
  EXPECT_EQ(got.state_bytes_per_bank, want.state_bytes_per_bank);
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.oracle, want.oracle);
}

}  // namespace tvp::test
