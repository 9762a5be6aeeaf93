// Reads "bundlemine.sweep" artifacts back into SweepResult — the inverse of
// scenario/artifact_writer.h, enabling downstream tooling (artifact diffing
// across commits, merging the shard slices of a cluster-split grid).
//
// Round-trip contract: for any artifact written without timings,
// SweepArtifactJson(ParseSweepArtifact(text)) reproduces `text` byte for
// byte (the JSON layer preserves key order, int-vs-double kinds, and
// shortest-round-trip doubles). Volatile fields the writer omits
// (wall_seconds) read back as zero. Cell indices are not serialized; the
// reader reconstructs the *stable grid index* from each cell's axis values
// and method (exact-equality lookups — doubles round-trip exactly), so a
// shard slice reads back with the same indices the full grid assigns —
// the property the artifact merger keys on.

#ifndef BUNDLEMINE_SCENARIO_ARTIFACT_READER_H_
#define BUNDLEMINE_SCENARIO_ARTIFACT_READER_H_

#include <string>

#include "scenario/sweep_runner.h"
#include "util/status.h"

namespace bundlemine {

/// Parses a rendered artifact. Errors: INVALID_ARGUMENT for malformed JSON,
/// a wrong schema name/version, a missing/mistyped field, or a knob outside
/// its domain (absent dataset and base knobs read as their defaults).
StatusOr<SweepResult> ParseSweepArtifact(const std::string& json_text);

/// Reads and parses the artifact at `path`. NOT_FOUND when the file cannot
/// be read; parse errors as above, prefixed with the path.
StatusOr<SweepResult> ReadSweepArtifact(const std::string& path);

}  // namespace bundlemine

#endif  // BUNDLEMINE_SCENARIO_ARTIFACT_READER_H_
