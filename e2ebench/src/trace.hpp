// The traced run: spans joined into per-job waterfalls, layer replays and
// the per-layer metrics.
//
// Spans come from two places only — the client's timestamps around each
// exchange and the Handler the benchmark passes to HttpServer — plus
// replays of the layer functions a job ran (timed after the window, on
// the same compendium and pool). Nothing inside src/ is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "workloads.hpp"

namespace fv::e2e {

/// Calls `sample` every `period` on its own thread until destroyed.
class Sampler {
 public:
  Sampler(std::function<void()> sample, std::chrono::microseconds period);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// What the traced pass captured besides job records.
struct TraceCapture {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<HandlerSpan> handler_spans;
  double active_jobs_sum = 0.0;  ///< AnalysisService::active_jobs() samples
  double pending_sum = 0.0;      ///< compute ThreadPool::pending() samples
  std::size_t samples = 0;
  // /stats of the server alive at the end of the pass.
  double cache_hits = 0, jobs_submitted = 0, computes = 0, jobs_rejected = 0;
  // StoreStats of that server's store.
  double persists = 0, warm_opens = 0, recomputes = 0;
};

struct TraceInputs {
  const RunConfig& config;
  const std::string& datasets_dir;
  std::vector<const JobRecord*> setup_jobs;   ///< traced set-up jobs
  std::vector<const JobRecord*> traced_jobs;  ///< traced load pass
  const std::vector<Rpc>& session_rpcs;
  const std::vector<Request>& requests;
  const TraceCapture& capture;
  double untraced_p50_ms = 0.0;
  ServedCompendium& server;  ///< alive, for the layer probes
  std::string spans_path;    ///< where the spans are written ("" = nowhere)
};

/// Adds the per-layer metrics, the waterfalls and the trace notes to
/// `report`; a waterfall that does not add up fails the report.
void add_trace_report(const TraceInputs& inputs, RunReport& report);

}  // namespace fv::e2e
