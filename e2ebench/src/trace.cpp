#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "expr/compendium_io.hpp"
#include "par/thread_pool.hpp"
#include "serve/json.hpp"
#include "store/cached.hpp"

namespace fv::e2e {

Sampler::Sampler(std::function<void()> sample,
                 std::chrono::microseconds period)
    : thread_([this, sample = std::move(sample), period] {
        while (!stop_.load(std::memory_order_relaxed)) {
          sample();
          std::this_thread::sleep_for(period);
        }
      }) {}

Sampler::~Sampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

namespace {

namespace fs = std::filesystem;

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

std::string fmt(double value, int precision = 3) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

/// A percentile under the support rule: the wanted tail when the samples
/// carry it, the next supported one down otherwise.
double tail(const std::vector<double>& samples, double wanted) {
  return percentile(samples, supported_quantile(samples.size(), wanted));
}

/// Median of `primary`, or of `fallback` when `primary` is empty. Per-layer
/// metrics of a layer a workload's load pass never reaches are taken from
/// the traced set-up (restart cycles, warm-up), which every workload runs.
double median_or(const std::vector<double>& primary,
                 const std::vector<double>& fallback) {
  return median(primary.empty() ? fallback : primary);
}

/// An RPC joined to its handler span.
struct JoinedRpc {
  const Rpc* rpc = nullptr;
  const HandlerSpan* handler = nullptr;  ///< null when no span matched
  double accept_ms() const { return ms(handler->enter_ns - rpc->connect_ns); }
  double handle_ms() const { return ms(handler->exit_ns - handler->enter_ns); }
  double wire_ms() const {
    return ms(rpc->end_ns - rpc->connect_ns) - accept_ms() - handle_ms();
  }
};

/// Replayed store costs of one request's body on a scratch store.
struct BlobReplay {
  double put_ms = 0.0;
  double load_ms = 0.0;
};

/// Per-layer samples of one set of jobs.
struct LayerSamples {
  std::vector<double> accept, wire;
  std::map<RpcKind, std::vector<double>> handle;
  std::vector<double> queue_residual;
  std::map<std::string, std::vector<double>> encode, decode, bytes;
  std::map<std::string, std::vector<double>> topk_ms, dot_fraction;
  std::size_t tiles_total = 0, tiles_pruned = 0;
  std::vector<double> condensed, spell;
  std::map<std::string, std::vector<double>> agglomerate;
  std::vector<double> put_blob, load_blob;
  std::vector<double> late;
};

class Analysis {
 public:
  Analysis(const TraceInputs& inputs) : in_(inputs) {
    for (const HandlerSpan& span : in_.capture.handler_spans) {
      handlers_.emplace(span.rpc_id, &span);
    }
  }

  JoinedRpc join(const Rpc& rpc) {
    JoinedRpc joined{&rpc, nullptr};
    if (const auto it = handlers_.find(rpc.id); it != handlers_.end()) {
      joined.handler = it->second;
    }
    return joined;
  }

  void replay_blobs(const std::vector<const JobRecord*>& jobs,
                    store::ArtifactStore& scratch) {
    std::size_t key = 1;
    for (const JobRecord* job : jobs) {
      if (!job->valid || blobs_.count(job->request) != 0) continue;
      if (blobs_.size() >= kBlobReplays) break;
      BlobReplay replay;
      std::int64_t t0 = now_ns();
      store::put_blob(scratch, key, job->outcome.body);
      replay.put_ms = ms(now_ns() - t0);
      t0 = now_ns();
      const std::optional<std::string> back = store::load_blob(scratch, key);
      replay.load_ms = ms(now_ns() - t0);
      if (!back || *back != job->outcome.body) {
        ++blob_mismatches_;
      }
      blobs_.emplace(job->request, replay);
      ++key;
    }
  }

  BlobReplay blob(std::size_t request) const {
    if (const auto it = blobs_.find(request); it != blobs_.end()) {
      return it->second;
    }
    // Past the replay cap: the median of the replayed ones.
    std::vector<double> put, load;
    for (const auto& [_, replay] : blobs_) {
      put.push_back(replay.put_ms);
      load.push_back(replay.load_ms);
    }
    return {median(put), median(load)};
  }

  LayerSamples samples(const std::vector<const JobRecord*>& jobs) {
    LayerSamples out;
    for (const JobRecord* job : jobs) {
      if (!job->valid) continue;
      out.late.push_back(
          ms(due_times(job->ready_ns, job->outcome.start_ns, job->outcome.end_ns)
                 .late_ns));
      double status_ms = -1.0;
      for (const Rpc& rpc : job->outcome.rpcs) {
        const JoinedRpc joined = join(rpc);
        if (joined.handler == nullptr) continue;
        out.accept.push_back(joined.accept_ms());
        out.wire.push_back(joined.wire_ms());
        out.handle[rpc.kind].push_back(joined.handle_ms());
        if (rpc.kind == RpcKind::kStatus) status_ms = joined.handle_ms();
      }
      const Request& request = in_.requests[job->request];
      const std::string type = job_type_name(request.type);
      if (!job->checked) {
        out.bytes[type].push_back(static_cast<double>(job->outcome.body.size()));
      }
      if (job->warm_blob) out.load_blob.push_back(blob(job->request).load_ms);
      const Replay* replay = job->replay;
      if (replay == nullptr) continue;
      const BlobReplay store_cost = blob(job->request);
      out.put_blob.push_back(store_cost.put_ms);
      out.encode[type].push_back(replay->encode_ms);
      out.decode[type].push_back(replay->decode_ms);
      if (status_ms >= 0.0) {
        out.queue_residual.push_back(status_ms - replay->compute_ms() -
                                     replay->encode_ms - store_cost.put_ms);
      }
      switch (request.type) {
        case JobType::kCluster:
          out.condensed.push_back(replay->condensed_ms);
          out.agglomerate[request.linkage].push_back(replay->agglomerate_ms);
          break;
        case JobType::kTopk:
          out.topk_ms[request.topk.strategy].push_back(replay->topk_ms);
          out.dot_fraction[request.topk.strategy].push_back(
              replay->topk_stats.exact_dot_fraction);
          out.tiles_total += replay->topk_stats.tiles_total;
          out.tiles_pruned += replay->topk_stats.tiles_pruned;
          break;
        case JobType::kSpell:
          out.spell.push_back(replay->spell_ms);
          break;
      }
    }
    return out;
  }

  /// The job's spans: the client-observed latency at the root, RPCs under
  /// it, accept wait and handler under each RPC. The job's replayed work
  /// (compute, encode, blob commit — or the blob load of a warm job) is
  /// laid back to back ending where the long-poll returned, and no earlier
  /// than that exchange's connect; the part that overlaps the accept wait
  /// is charged to the work, not to the listener. Work that does not fit
  /// (it ran while the client was still in an earlier exchange) is added
  /// to `*unplaced_ms`.
  std::vector<Span> job_spans(const JobRecord& job, double* unplaced_ms) {
    std::vector<Span> spans;
    spans.push_back({job.due_ns, job.outcome.end_ns, -1, "client|gaps"});
    if (job.outcome.start_ns > job.due_ns) {
      spans.push_back({job.due_ns, job.outcome.start_ns, 0, "client|late"});
    }
    for (const Rpc& rpc : job.outcome.rpcs) {
      const std::string kind = rpc_kind_name(rpc.kind);
      const int r = static_cast<int>(spans.size());
      spans.push_back({rpc.connect_ns, rpc.end_ns, 0,
                       "serve.http|" + kind + ".wire"});
      const JoinedRpc joined = join(rpc);
      if (joined.handler == nullptr) {
        ++unmatched_;
        continue;
      }
      const std::int64_t enter = joined.handler->enter_ns;
      const int a = static_cast<int>(spans.size());
      spans.push_back({rpc.connect_ns, enter, r,
                       "serve.http|" + kind + ".accept_wait"});
      const int h = static_cast<int>(spans.size());
      const bool status = rpc.kind == RpcKind::kStatus;
      spans.push_back({enter, joined.handler->exit_ns, r,
                       status ? "serve.service|status.queue_residual"
                              : "serve.service|" + kind + ".handle"});
      if (!status) continue;
      std::int64_t t = joined.handler->exit_ns;
      const auto place = [&](double cost_ms, const char* name) {
        const auto cost = static_cast<std::int64_t>(cost_ms * 1e6);
        const std::int64_t end = t;
        const std::int64_t begin = std::max(t - cost, rpc.connect_ns);
        *unplaced_ms += ms(cost - (end - begin));
        if (end > enter) spans.push_back({std::max(begin, enter), end, h, name});
        if (begin < enter) spans.push_back({begin, std::min(end, enter), a, name});
        t = begin;
      };
      if (job.warm_blob) {
        place(blob(job.request).load_ms, "store|load_blob");
      } else if (job.replay != nullptr) {
        place(blob(job.request).put_ms, "store|put_blob");
        place(job.replay->encode_ms, "serve.json|encode");
        place(job.replay->agglomerate_ms, "cluster|agglomerate");
        place(job.replay->condensed_ms, "sim|condensed_distances");
        place(job.replay->topk_ms, "sim|top_k_neighbors");
        place(job.replay->spell_ms, "spell|search");
      }
    }
    return spans;
  }

  std::size_t unmatched() const { return unmatched_; }
  std::size_t blob_mismatches() const { return blob_mismatches_; }

 private:
  static constexpr std::size_t kBlobReplays = 200;
  const TraceInputs& in_;
  std::map<std::uint64_t, const HandlerSpan*> handlers_;
  std::map<std::size_t, BlobReplay> blobs_;
  std::size_t unmatched_ = 0;
  std::size_t blob_mismatches_ = 0;
};

struct Waterfall {
  std::size_t jobs = 0;
  double latency_ms = 0.0;  ///< summed over jobs
  double unplaced_ms = 0.0;  ///< replayed work outside the long-poll
  std::vector<std::pair<std::string, double>> rows;  ///< summed self times

  void add(const std::string& name, double value) {
    for (auto& row : rows) {
      if (row.first == name) {
        row.second += value;
        return;
      }
    }
    rows.emplace_back(name, value);
  }
};

/// Layer probes: replays that do not depend on the workload's requests.
struct Probes {
  std::map<std::string, double> topk_ms, dot_fraction;
  double tiles_pruned_frac = 0.0;
  double approx_recall = 0.0;
  double speedup_4v1 = 0.0;
  double engine_build_ms = 0.0;
  double banks_build_ms = 0.0;
  double load_compendium_ms = 0.0;
  double pcl_mb_per_s = 0.0;
  double open_engine_mapped_ms = 0.0;
  bool engine_artifact_found = false;  ///< else the open timed a miss
};

Probes run_probes(const TraceInputs& in) {
  Probes probes;
  ServedCompendium& server = in.server;
  const serve::SharedCompendium& compendium = server.service().compendium();
  const sim::SimilarityEngine& engine = *compendium.engine;
  par::ThreadPool& pool = server.compute_pool();
  constexpr std::size_t kProbeK = 10;

  const auto timed = [](const auto& call) {
    const std::int64_t t0 = now_ns();
    call();
    return ms(now_ns() - t0);
  };
  std::optional<sim::NeighborTable> exact, approx;
  std::size_t total = 0, pruned = 0;
  for (const auto& [name, strategy] :
       {std::pair{"auto", sim::TopKStrategy::kAuto},
        {"exact", sim::TopKStrategy::kExact},
        {"pruned", sim::TopKStrategy::kPruned},
        {"approx", sim::TopKStrategy::kApprox}}) {
    sim::TopKStats stats;
    sim::NeighborTable table;
    probes.topk_ms[name] = timed([&] {
      table = engine.top_k_neighbors(kProbeK, pool, 0, strategy, &stats);
    });
    probes.dot_fraction[name] = stats.exact_dot_fraction;
    if (strategy == sim::TopKStrategy::kPruned) {
      total = stats.tiles_total;
      pruned = stats.tiles_pruned;
    }
    if (strategy == sim::TopKStrategy::kExact) exact = std::move(table);
    if (strategy == sim::TopKStrategy::kApprox) approx = std::move(table);
  }
  probes.tiles_pruned_frac =
      total == 0 ? 0.0 : static_cast<double>(pruned) / static_cast<double>(total);
  std::size_t hits = 0, wanted = 0;
  for (std::size_t i = 0; i < exact->count; ++i) {
    const auto truth = exact->neighbors(i);
    const auto got = approx->neighbors(i);
    wanted += truth.size();
    for (const std::uint32_t j : got) {
      hits += std::find(truth.begin(), truth.end(), j) != truth.end();
    }
  }
  probes.approx_recall =
      wanted == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(wanted);

  par::ThreadPool one(1), four(4);
  const double serial_ms = timed([&] {
    engine.top_k_neighbors(kProbeK, one, 0, sim::TopKStrategy::kExact);
  });
  const double pooled_ms = timed([&] {
    engine.top_k_neighbors(kProbeK, four, 0, sim::TopKStrategy::kExact);
  });
  probes.speedup_4v1 = serial_ms / pooled_ms;

  const std::vector<expr::Dataset>& datasets = *compendium.datasets;
  probes.engine_build_ms = timed([&] {
    sim::SimilarityEngine::from_rows(datasets[0].values(),
                                     sim::Metric::kPearson);
  });
  probes.banks_build_ms = timed([&] { spell::SpellSearch(datasets, pool); });

  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    loads.push_back(
        timed([&] { expr::load_compendium_dir(in.datasets_dir); }));
  }
  probes.load_compendium_ms = median(loads);
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(in.datasets_dir)) {
    if (entry.path().extension() == ".pcl") {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  probes.pcl_mb_per_s = bytes / 1e6 / (probes.load_compendium_ms * 1e-3);

  const store::ArtifactKey key = store::engine_key(
      store::matrix_key(datasets[0].values()), sim::Metric::kPearson,
      sim::Precompute::kAllPairs, sim::DenseKernel::kAuto);
  std::vector<double> opens;
  for (int i = 0; i < 3; ++i) {
    opens.push_back(timed([&] {
      probes.engine_artifact_found =
          store::open_engine_mapped(server.store(), key).has_value();
    }));
  }
  probes.open_engine_mapped_ms = median(opens);
  return probes;
}

}  // namespace

void add_trace_report(const TraceInputs& in, RunReport& report) {
  Analysis analysis(in);
  {
    const std::string scratch_dir =
        (fs::path(in.config.work_dir) / "scratch-store").string();
    store::ArtifactStore scratch(scratch_dir);
    // Set-up first: its few distinct bodies (one per job type) must all be
    // replayed before the traced pass's many fill the cap.
    std::vector<const JobRecord*> all = in.setup_jobs;
    all.insert(all.end(), in.traced_jobs.begin(), in.traced_jobs.end());
    analysis.replay_blobs(all, scratch);
  }
  const LayerSamples load = analysis.samples(in.traced_jobs);
  const LayerSamples setup = analysis.samples(in.setup_jobs);
  const Probes probes = run_probes(in);

  // Session create/delete exchanges and the listener's share of the pass.
  std::vector<double> session_ms, session_ms_pass;
  std::map<std::uint64_t, RpcKind> kind_of;
  for (const Rpc& rpc : in.session_rpcs) {
    const JoinedRpc joined = analysis.join(rpc);
    if (joined.handler == nullptr) continue;
    session_ms.push_back(joined.handle_ms());
    if (rpc.connect_ns >= in.capture.begin_ns &&
        rpc.connect_ns <= in.capture.end_ns) {
      session_ms_pass.push_back(joined.handle_ms());
    }
  }
  for (const JobRecord* job : in.traced_jobs) {
    for (const Rpc& rpc : job->outcome.rpcs) kind_of[rpc.id] = rpc.kind;
  }
  double busy_ns = 0.0, hold_ns = 0.0;
  for (const HandlerSpan& span : in.capture.handler_spans) {
    if (span.enter_ns < in.capture.begin_ns || span.enter_ns > in.capture.end_ns) {
      continue;
    }
    const double d = static_cast<double>(span.exit_ns - span.enter_ns);
    busy_ns += d;
    if (const auto it = kind_of.find(span.rpc_id);
        it != kind_of.end() && it->second == RpcKind::kStatus) {
      hold_ns += d;
    }
  }
  const double pass_ns =
      static_cast<double>(in.capture.end_ns - in.capture.begin_ns);

  std::vector<double> traced_latency;
  for (const JobRecord* job : in.traced_jobs) {
    if (job->valid) traced_latency.push_back(ms(job->outcome.end_ns - job->due_ns));
  }
  const double traced_p50 = median(traced_latency);

  const auto handle = [&](RpcKind kind) {
    const auto find = [&](const LayerSamples& s) {
      const auto it = s.handle.find(kind);
      return it == s.handle.end() ? std::vector<double>{} : it->second;
    };
    return median_or(find(load), find(setup));
  };
  const auto by_type = [&](const std::map<std::string, std::vector<double>>&
                               primary,
                           const std::map<std::string, std::vector<double>>&
                               fallback,
                           const std::string& key) {
    const auto p = primary.find(key);
    if (p != primary.end() && !p->second.empty()) return median(p->second);
    const auto f = fallback.find(key);
    return f == fallback.end() ? 0.0 : median(f->second);
  };

  auto& m = report.per_layer;
  m.push_back({"serve.http.accept_wait_ms.p50", percentile(load.accept, 0.5), "ms"});
  m.push_back({"serve.http.accept_wait_ms.p99", tail(load.accept, 0.99), "ms"});
  m.push_back({"serve.http.listener_busy_frac", busy_ns / pass_ns, "frac"});
  m.push_back({"serve.http.longpoll_hold_frac", hold_ns / pass_ns, "frac"});
  m.push_back({"serve.http.wire_ms.p50", percentile(load.wire, 0.5), "ms"});
  m.push_back({"serve.service.handle_ms.submit.p50", handle(RpcKind::kSubmit), "ms"});
  m.push_back({"serve.service.handle_ms.status.p50", handle(RpcKind::kStatus), "ms"});
  m.push_back({"serve.service.handle_ms.result.p50", handle(RpcKind::kResult), "ms"});
  m.push_back({"serve.service.handle_ms.session.p50",
               median_or(session_ms_pass, session_ms), "ms"});
  m.push_back({"serve.service.cache_hit_ratio",
               in.capture.jobs_submitted == 0
                   ? 0.0
                   : in.capture.cache_hits / in.capture.jobs_submitted,
               "frac"});
  const double samples = static_cast<double>(std::max<std::size_t>(1, in.capture.samples));
  m.push_back({"serve.service.active_jobs_mean", in.capture.active_jobs_sum / samples,
               "jobs"});
  m.push_back({"serve.service.queue_residual_ms.p50",
               median_or(load.queue_residual, setup.queue_residual), "ms"});
  for (const char* type : {"cluster", "topk", "spell"}) {
    m.push_back({std::string("serve.json.encode_ms.") + type,
                 by_type(load.encode, setup.encode, type), "ms"});
  }
  for (const char* type : {"cluster", "topk", "spell"}) {
    m.push_back({std::string("serve.json.decode_ms.") + type,
                 by_type(load.decode, setup.decode, type), "ms"});
  }
  for (const char* type : {"cluster", "topk", "spell"}) {
    m.push_back({std::string("serve.json.result_bytes.") + type,
                 by_type(load.bytes, setup.bytes, type), "bytes"});
  }
  m.push_back({"store.put_blob_ms.p50", median_or(load.put_blob, setup.put_blob), "ms"});
  m.push_back({"store.load_blob_ms.p50", median_or(load.load_blob, setup.load_blob),
               "ms"});
  m.push_back({"store.open_engine_mapped_ms", probes.open_engine_mapped_ms, "ms"});
  m.push_back({"store.warm_opens", in.capture.warm_opens, "count"});
  for (const char* strategy : {"auto", "exact", "pruned", "approx"}) {
    const auto it = load.topk_ms.find(strategy);
    m.push_back({std::string("sim.topk_ms.") + strategy,
                 it != load.topk_ms.end() ? median(it->second)
                                          : probes.topk_ms.at(strategy),
                 "ms"});
  }
  for (const char* strategy : {"auto", "exact", "pruned", "approx"}) {
    const auto it = load.dot_fraction.find(strategy);
    m.push_back({std::string("sim.exact_dot_fraction.") + strategy,
                 it != load.dot_fraction.end() ? median(it->second)
                                               : probes.dot_fraction.at(strategy),
                 "frac"});
  }
  m.push_back({"sim.tiles_pruned_frac",
               load.tiles_total > 0 ? static_cast<double>(load.tiles_pruned) /
                                          static_cast<double>(load.tiles_total)
                                    : probes.tiles_pruned_frac,
               "frac"});
  m.push_back({"sim.approx_recall", probes.approx_recall, "frac"});
  m.push_back({"sim.condensed_ms", median_or(load.condensed, setup.condensed), "ms"});
  m.push_back({"sim.engine_build_ms", probes.engine_build_ms, "ms"});
  m.push_back({"par.compute_pending_mean", in.capture.pending_sum / samples, "tasks"});
  m.push_back({"par.topk_speedup_4v1", probes.speedup_4v1, "x"});
  for (const char* linkage : {"average", "complete"}) {
    m.push_back({std::string("cluster.agglomerate_ms.") + linkage,
                 by_type(load.agglomerate, setup.agglomerate, linkage), "ms"});
  }
  m.push_back({"spell.search_ms.p50", median_or(load.spell, setup.spell), "ms"});
  m.push_back({"spell.banks_build_ms", probes.banks_build_ms, "ms"});
  m.push_back({"expr.load_compendium_ms", probes.load_compendium_ms, "ms"});
  m.push_back({"expr.pcl_mb_per_s", probes.pcl_mb_per_s, "MB/s"});
  m.push_back({"client.late_p99_ms", tail(load.late, 0.99), "ms"});
  m.push_back({"trace.overhead_frac",
               in.untraced_p50_ms > 0 ? traced_p50 / in.untraced_p50_ms - 1.0 : 0.0,
               "frac"});

  // ---- waterfalls ----
  std::map<std::string, Waterfall> falls;
  std::vector<std::string> order;
  std::ofstream spans_out;
  if (!in.spans_path.empty()) {
    fs::create_directories(fs::path(in.spans_path).parent_path());
    spans_out.open(in.spans_path);
    spans_out << "job\tlabel\tspan\tparent\tlayer|name\tbegin_ns\tend_ns\tself_ns\n";
  }
  std::size_t job_index = 0;
  const auto add_jobs = [&](const std::vector<const JobRecord*>& jobs,
                            const std::string& prefix) {
    for (const JobRecord* job : jobs) {
      ++job_index;
      if (!job->valid) continue;
      const std::string label = prefix + job->label;
      if (falls.count(label) == 0) order.push_back(label);
      Waterfall& fall = falls[label];
      const std::vector<Span> spans =
          analysis.job_spans(*job, &fall.unplaced_ms);
      const std::vector<std::int64_t> self = self_times(spans);
      ++fall.jobs;
      fall.latency_ms += ms(job->outcome.end_ns - job->due_ns);
      for (std::size_t i = 1; i < spans.size(); ++i) {
        fall.add(spans[i].name, ms(self[i]));
      }
      fall.add(spans[0].name, ms(self[0]));
      if (spans_out) {
        for (std::size_t i = 0; i < spans.size(); ++i) {
          spans_out << job_index << '\t' << label << '\t' << i << '\t'
                    << spans[i].parent << '\t' << spans[i].name << '\t'
                    << spans[i].begin_ns << '\t' << spans[i].end_ns << '\t'
                    << self[i] << '\n';
        }
      }
    }
  };
  add_jobs(in.traced_jobs, "");
  add_jobs(in.setup_jobs, "set-up ");

  auto& lines = report.lines;
  lines.push_back("server counters: jobs_submitted " +
                  fmt(in.capture.jobs_submitted, 0) + ", computes " +
                  fmt(in.capture.computes, 0) + ", jobs_rejected " +
                  fmt(in.capture.jobs_rejected, 0) + ", store persists " +
                  fmt(in.capture.persists, 0) + ", store recomputes " +
                  fmt(in.capture.recomputes, 0));
  bool trace_ok = analysis.unmatched() == 0;
  for (const std::string& label : order) {
    const Waterfall& fall = falls[label];
    const double n = static_cast<double>(fall.jobs);
    const double latency = fall.latency_ms / n;
    lines.push_back("waterfall " + label + ": " + std::to_string(fall.jobs) +
                    " jobs, mean client-observed latency " + fmt(latency) +
                    " ms");
    double sum = 0.0;
    for (const auto& [name, total] : fall.rows) {
      const double value = total / n;
      if (value == 0.0 && name != "client|gaps") continue;
      sum += value;
      const std::size_t bar = name.find('|');
      std::string layer = name.substr(0, bar);
      std::string row = name.substr(bar + 1);
      if (name == "client|gaps") row = "gaps between exchanges (leftover)";
      layer.resize(14, ' ');
      row.resize(36, ' ');
      lines.push_back("    " + layer + row + fmt(value) + " ms  " +
                      fmt(100.0 * value / latency, 1) + "%");
    }
    // Equal by construction: the leftover is the root span's self time.
    lines.push_back("    rows + leftover = " + fmt(sum) + " ms = latency");
    if (fall.unplaced_ms > 0.0) {
      lines.push_back("    (replayed work before the long-poll connected, "
                      "overlapping earlier rows: " +
                      fmt(fall.unplaced_ms / n) + " ms)");
    }
  }
  if (analysis.unmatched() > 0) {
    lines.push_back("trace: " + std::to_string(analysis.unmatched()) +
                    " exchanges without a handler span");
  }
  if (analysis.blob_mismatches() > 0) {
    lines.push_back("trace: " + std::to_string(analysis.blob_mismatches()) +
                    " replayed blobs read back different bytes");
    trace_ok = false;
  }
  if (!probes.engine_artifact_found) {
    lines.push_back("trace: the engine artifact was not under its expected "
                    "key, so store.open_engine_mapped_ms timed a miss");
    trace_ok = false;
  }
  if (!in.spans_path.empty()) lines.push_back("spans written to " + in.spans_path);
  if (!trace_ok) {
    report.correct = false;
    lines.push_back("FAILED: the trace does not account for what it measured");
  }
}

}  // namespace fv::e2e
