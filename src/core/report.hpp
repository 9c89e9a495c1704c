// Result export: serialize a TrainResult for external plotting/analysis.
//
// The bench binaries print aligned tables; downstream users replotting the
// paper's figures want machine-readable series. JSON carries the full run
// (spec echo + per-epoch series + every RunTotals field); CSV carries just
// the series.
#pragma once

#include <iosfwd>
#include <string>

#include "core/job.hpp"

namespace vcdl {

class JsonWriter;

/// Writes the run's members (spec echo, per-epoch series, totals) into the
/// object `w` has open, so a caller can add members of its own.
void write_run(JsonWriter& w, const TrainResult& result);

/// Full run as a single JSON object (stable key order, no dependencies).
std::string to_json(const TrainResult& result);

/// Per-epoch series as CSV (same columns as the bench tables).
void write_epochs_csv(std::ostream& os, const TrainResult& result,
                      const std::string& series_name = "run");

}  // namespace vcdl
