#ifndef EQUIHIST_EQUIHIST_H_
#define EQUIHIST_EQUIHIST_H_

// Umbrella header for the EquiHist library: random sampling for equi-height
// histogram construction, after Chaudhuri, Motwani & Narasayya, "Random
// Sampling for Histogram Construction: How much is enough?" (SIGMOD 1998).
//
// Typical flow:
//   1. Generate or load a column            data/distribution.h, storage/table.h
//   2. Decide how much to sample            core/bounds.h (Theorem 4 et al.)
//   3. Sample                               sampling/{row,block}_sampler.h
//   4. Build the histogram                  core/histogram_builder.h
//      ... or let CVB adapt for you         core/cvb.h
//   5. Measure its quality                  core/error_metrics.h
//   6. Use it in an optimizer               core/range_estimator.h
//   7. Estimate distinct values / density   distinct/estimators.h, core/density.h

#include "baseline/equi_width.h"        // IWYU pragma: export
#include "baseline/gmp_incremental.h"   // IWYU pragma: export
#include "baseline/serial_histograms.h" // IWYU pragma: export
#include "common/math.h"        // IWYU pragma: export
#include "common/metrics.h"     // IWYU pragma: export
#include "common/result.h"      // IWYU pragma: export
#include "common/rng.h"         // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "common/string_util.h" // IWYU pragma: export
#include "common/timer.h"       // IWYU pragma: export
#include "core/bounds.h"        // IWYU pragma: export
#include "core/compiled_estimator.h"    // IWYU pragma: export
#include "core/compressed_histogram.h"  // IWYU pragma: export
#include "core/cvb.h"           // IWYU pragma: export
#include "core/density.h"       // IWYU pragma: export
#include "core/error_metrics.h" // IWYU pragma: export
#include "core/histogram.h"     // IWYU pragma: export
#include "core/histogram_builder.h"     // IWYU pragma: export
#include "core/range_estimator.h"       // IWYU pragma: export
#include "data/distribution.h"  // IWYU pragma: export
#include "data/generator.h"     // IWYU pragma: export
#include "data/value_set.h"     // IWYU pragma: export
#include "data/workload.h"      // IWYU pragma: export
#include "query/index.h"        // IWYU pragma: export
#include "query/planner.h"      // IWYU pragma: export
#include "distinct/error.h"     // IWYU pragma: export
#include "distinct/estimators.h"        // IWYU pragma: export
#include "distinct/frequency_profile.h" // IWYU pragma: export
#include "sampling/block_sampler.h"     // IWYU pragma: export
#include "sampling/design_effect.h"     // IWYU pragma: export
#include "sampling/reservoir.h"         // IWYU pragma: export
#include "stats/column_statistics.h"    // IWYU pragma: export
#include "stats/histogram_backends.h"   // IWYU pragma: export
#include "stats/histogram_model.h"      // IWYU pragma: export
#include "stats/incremental_backend.h"  // IWYU pragma: export
#include "stats/serialization.h"        // IWYU pragma: export
#include "stats/build_scheduler.h"      // IWYU pragma: export
#include "stats/fleet_wire.h"           // IWYU pragma: export
#include "stats/statistics_fleet.h"     // IWYU pragma: export
#include "stats/statistics_manager.h"   // IWYU pragma: export
#include "stats/wire_format.h"          // IWYU pragma: export
#include "sampling/row_sampler.h"       // IWYU pragma: export
#include "sampling/sample.h"    // IWYU pragma: export
#include "sampling/schedule.h"  // IWYU pragma: export
#include "storage/heap_file.h"  // IWYU pragma: export
#include "storage/io_stats.h"   // IWYU pragma: export
#include "storage/layout.h"     // IWYU pragma: export
#include "storage/page.h"       // IWYU pragma: export
#include "storage/scan.h"       // IWYU pragma: export
#include "storage/table.h"      // IWYU pragma: export

#endif  // EQUIHIST_EQUIHIST_H_
