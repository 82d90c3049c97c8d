// The workloads, their validation and their report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "client.hpp"
#include "harness.hpp"
#include "serve/service.hpp"
#include "sim/similarity_engine.hpp"

namespace fv::e2e {

/// The fixed open-loop arrival rate of spell_interactive: about a third of
/// the closed-loop SPELL capacity of one client (`fv_e2e --calibrate`;
/// 153–185 jobs/s on the host described in README.md). The one listener
/// serves one exchange at a time, so that is the rate it can sustain
/// serially; at half of it the queue in front of the listener magnified
/// every slow phase of the host into the tails (README.md, Workloads).
inline constexpr double kSpellRate = 50.0;

/// Set-up cycles every workload runs after its window.
inline constexpr std::size_t kSetupCycles = 5;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory, removed afterwards
  std::string spans_path;  ///< traced runs write their spans here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled by traced runs only
  std::vector<std::string> lines; ///< the human-readable report
};

bool known_workload(const std::string& name);

/// Runs one workload end to end: generate inputs, set up, drive, validate,
/// report. Never throws for a failed job — failures land in the report.
RunReport run_workload(const RunConfig& config);

/// Closed-loop SPELL capacity with `clients` clients, in jobs per second —
/// the measurement kSpellRate was set from.
double calibrate_spell_capacity(const RunConfig& config, std::size_t clients);

// ---- shared with trace.cpp ---------------------------------------------

enum class JobType { kCluster, kTopk, kSpell };

struct Request {
  JobType type = JobType::kSpell;
  std::string body;
  std::string linkage;             ///< cluster
  TopkParams topk;                 ///< topk (rows 0 = the full table)
  std::vector<std::string> query;  ///< spell
};

const char* job_type_name(JobType type);

/// Replayed compute of one cold job, timed in the order compute_job runs
/// it: the layer call(s), then the JSON encode.
struct Replay {
  double condensed_ms = 0.0;    ///< cluster
  double agglomerate_ms = 0.0;  ///< cluster
  double topk_ms = 0.0;         ///< topk
  sim::TopKStats topk_stats;
  double spell_ms = 0.0;        ///< spell
  double encode_ms = 0.0;       ///< JsonValue::dump of the result tree
  double decode_ms = 0.0;       ///< parse_json of the body
  double compute_ms() const {
    return condensed_ms + agglomerate_ms + topk_ms + spell_ms;
  }
};

/// One job as driven and recorded.
struct JobRecord {
  std::size_t request = 0;     ///< index into the run's request table
  std::string label;           ///< waterfall row set ("spell", "cached", ...)
  std::int64_t due_ns = 0;     ///< latency origin: due time or submit
  std::int64_t ready_ns = 0;   ///< when its client was free to send it
  JobOutcome outcome;
  bool warm_blob = false;      ///< restart replay served from a blob
  /// Compared with its reference body by the client right after the job's
  /// clock stopped, and the bytes dropped (cached_views: hundreds of MB of
  /// identical bodies otherwise). `matched` is the verdict.
  bool checked = false;
  bool matched = false;
  bool valid = false;          ///< set by validation
  std::string invalid_reason;
  /// The replay of a job the server computed (not a cache hit or warm
  /// blob), set by validation.
  const Replay* replay = nullptr;
};

}  // namespace fv::e2e
