#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <climits>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "cluster/distance.hpp"
#include "cluster/hclust.hpp"
#include "expr/compendium_io.hpp"
#include "serve/json.hpp"
#include "spell/spell.hpp"
#include "trace.hpp"

namespace fv::e2e {

namespace {

namespace fs = std::filesystem;
using serve::JsonValue;

/// Jobs a client runs in one session before it deletes the session and
/// opens the next (deleting drops the session's job records, which keeps
/// the server's job table bounded over a long run).
constexpr std::size_t kJobsPerSession = 16;
constexpr std::size_t kPopularSpell = 12;
/// Warm restarts per restart cycle: fifty a run over the set-up cycles,
/// the samples restart_s is the median of. The warm sessions they replay
/// are reported on the set-up samples line only (README.md, Steadiness).
constexpr std::size_t kWarmRestarts = 10;
/// Closed-loop clients of topk_cold and cached_views. One each: with more,
/// the queue in front of the single listener magnified every slow phase
/// of a shared host into the percentiles (README.md, Workloads).
constexpr std::size_t kTopkClients = 1;
constexpr std::size_t kCachedClients = 1;
/// Slices of the window cached_views' throughput and percentiles are
/// medians over.
constexpr std::size_t kSlices = 10;

const char* const kWorkloads[] = {"spell_interactive", "topk_cold",
                                  "cached_views"};

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

sim::TopKStrategy strategy_of(const std::string& name) {
  if (name == "exact") return sim::TopKStrategy::kExact;
  if (name == "pruned") return sim::TopKStrategy::kPruned;
  if (name == "approx") return sim::TopKStrategy::kApprox;
  return sim::TopKStrategy::kAuto;
}

cluster::Linkage linkage_of(const std::string& name) {
  if (name == "single") return cluster::Linkage::kSingle;
  if (name == "complete") return cluster::Linkage::kComplete;
  return cluster::Linkage::kAverage;
}

/// Confines the calling thread, and every thread it starts from now on, to
/// the last CPU it may run on, and returns the mask it had. Client and
/// server threads then hand requests to each other on one CPU that is
/// already awake. Spread over the CPUs, every exchange woke an idle vCPU,
/// and on a shared host how long that takes moved with the other tenants'
/// load: `cached_views`' p90 had a quartile spread of a quarter of its
/// median between runs, against a tenth pinned (README.md, Steadiness).
cpu_set_t pin_to_one_cpu() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (::sched_getaffinity(0, sizeof all, &all) != 0) return all;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) last = cpu;
  }
  if (last >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }
  return all;
}

/// Resets the kernel's peak-RSS mark (VmHWM) so the next read covers only
/// what follows.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---- validation --------------------------------------------------------

double number(const JsonValue& object, const char* key) {
  const JsonValue* field = object.find(key);
  if (field == nullptr || field->type() != JsonValue::Type::kNumber) {
    throw ParseError(std::string("result lacks number \"") + key + "\"");
  }
  return field->as_number();
}

const std::vector<JsonValue>& array(const JsonValue& object,
                                    const char* key) {
  const JsonValue* field = object.find(key);
  if (field == nullptr || field->type() != JsonValue::Type::kArray) {
    throw ParseError(std::string("result lacks array \"") + key + "\"");
  }
  return field->items();
}

std::string check_cluster(const JsonValue& body,
                          const std::vector<cluster::Merge>& merges,
                          std::size_t n) {
  if (number(body, "n") != static_cast<double>(n)) return "n differs";
  const auto& rows = array(body, "merges");
  if (rows.size() != merges.size()) return "merge count differs";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i].items();
    if (row.size() != 3 || row[0].as_number() != merges[i].left ||
        row[1].as_number() != merges[i].right ||
        row[2].as_number() != merges[i].distance) {
      return "merge " + std::to_string(i) + " differs from agglomerate";
    }
  }
  return "";
}

std::string check_topk(const JsonValue& body, const sim::NeighborTable& table,
                       std::size_t rows) {
  if (number(body, "k") != static_cast<double>(table.k) ||
      number(body, "count") != static_cast<double>(table.count) ||
      number(body, "rows") != static_cast<double>(rows)) {
    return "k/count/rows differ";
  }
  const auto& neighbors = array(body, "neighbors");
  const auto& distances = array(body, "distances");
  if (neighbors.size() != rows || distances.size() != rows) {
    return "row count differs";
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& n_row = neighbors[i].items();
    const auto& d_row = distances[i].items();
    const auto expect_n = table.neighbors(i);
    const auto expect_d = table.neighbor_distances(i);
    if (n_row.size() != expect_n.size() || d_row.size() != expect_d.size()) {
      return "row " + std::to_string(i) + " length differs";
    }
    for (std::size_t j = 0; j < n_row.size(); ++j) {
      // Distances travel as the exact double of the engine's float, so a
      // bit-identical table reads back exactly.
      if (n_row[j].as_number() != static_cast<double>(expect_n[j]) ||
          d_row[j].as_number() != static_cast<double>(expect_d[j])) {
        return "row " + std::to_string(i) + " differs from top_k_neighbors";
      }
    }
  }
  return "";
}

std::string check_spell(const JsonValue& body,
                        const spell::SpellResult& result) {
  if (number(body, "recognized") !=
      static_cast<double>(result.query_genes_recognized)) {
    return "recognized count differs";
  }
  const auto& datasets = array(body, "datasets");
  if (datasets.size() != result.dataset_ranking.size()) {
    return "dataset ranking length differs";
  }
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const auto& row = datasets[i].items();
    const spell::DatasetScore& expect = result.dataset_ranking[i];
    if (row.size() != 3 ||
        row[0].as_number() != static_cast<double>(expect.dataset_index) ||
        row[1].as_number() != expect.weight ||
        row[2].as_number() != static_cast<double>(expect.query_genes_found)) {
      return "dataset ranking differs at " + std::to_string(i);
    }
  }
  const auto& genes = array(body, "genes");
  // The request leaves `limit` at its default of 50.
  if (genes.size() != std::min<std::size_t>(50, result.gene_ranking.size())) {
    return "gene ranking length differs";
  }
  for (std::size_t i = 0; i < genes.size(); ++i) {
    const auto& row = genes[i].items();
    const spell::GeneScore& expect = result.gene_ranking[i];
    if (row.size() != 3 || row[0].as_string() != expect.gene ||
        row[1].as_number() != expect.score ||
        row[2].as_number() != static_cast<double>(expect.support)) {
      return "gene ranking differs at " + std::to_string(i);
    }
  }
  return "";
}

/// Replays a request through the layer functions compute_job calls, on the
/// same compendium and compute pool, and checks `body` against them.
/// Returns "" when the body matches.
std::string replay_and_check(const Request& request, const std::string& body,
                             const serve::SharedCompendium& compendium,
                             par::ThreadPool& pool, Replay& replay) {
  const sim::SimilarityEngine& engine = *compendium.engine;
  std::int64_t t0 = now_ns();
  const JsonValue tree = serve::parse_json(body);
  replay.decode_ms = ms(now_ns() - t0);
  std::string verdict;
  switch (request.type) {
    case JobType::kCluster: {
      cluster::DistanceMatrix distances(engine.size());
      t0 = now_ns();
      engine.condensed_distances(distances.condensed(), pool);
      const std::int64_t t1 = now_ns();
      const std::vector<cluster::Merge> merges = cluster::agglomerate(
          std::move(distances), linkage_of(request.linkage));
      replay.condensed_ms = ms(t1 - t0);
      replay.agglomerate_ms = ms(now_ns() - t1);
      verdict = check_cluster(tree, merges, engine.size());
      break;
    }
    case JobType::kTopk: {
      t0 = now_ns();
      const sim::NeighborTable table = engine.top_k_neighbors(
          request.topk.k, pool, request.topk.min_common,
          strategy_of(request.topk.strategy), &replay.topk_stats);
      replay.topk_ms = ms(now_ns() - t0);
      const std::size_t rows = request.topk.rows == 0
                                   ? engine.size()
                                   : std::min(engine.size(),
                                              request.topk.rows);
      verdict = check_topk(tree, table, rows);
      break;
    }
    case JobType::kSpell: {
      t0 = now_ns();
      const spell::SpellResult result =
          compendium.spell->search(request.query, spell::SpellOptions{}, pool);
      replay.spell_ms = ms(now_ns() - t0);
      verdict = check_spell(tree, result);
      break;
    }
  }
  t0 = now_ns();
  const std::string encoded = tree.dump();
  replay.encode_ms = ms(now_ns() - t0);
  if (verdict.empty() && encoded != body) {
    verdict = "body is not canonical JSON (dump of its parse differs)";
  }
  return verdict;
}

// ---- the run -----------------------------------------------------------

struct Run {
  RunConfig config;
  std::string datasets_dir;
  std::vector<std::string> genes;
  std::vector<Request> requests;
  std::map<std::string, std::size_t> request_index;
  HandlerTrace trace;

  std::mutex mutex;  ///< guards the vectors client threads append to
  std::vector<JobRecord> setup_jobs;
  std::vector<JobRecord> load_jobs;    ///< untraced load pass
  std::vector<JobRecord> traced_jobs;  ///< traced load pass
  std::vector<Rpc> session_rpcs;       ///< traced session create/delete
  std::vector<std::string> errors;     ///< failures outside any job
  std::size_t side_failures = 0;

  std::vector<double> cold_bringups, first_sessions, restarts, warm_sessions;
  std::size_t cycles = 0;
  double clients_done_rss_mb = 0.0;  ///< VmHWM when on_clients last joined

  std::vector<std::size_t> session_requests;  ///< the restart session

  std::size_t add(Request request) {
    const auto [it, inserted] =
        request_index.emplace(request.body, requests.size());
    if (inserted) requests.push_back(std::move(request));
    return it->second;
  }

  std::string store_dir(const std::string& name) const {
    return (fs::path(config.work_dir) / name).string();
  }

  HandlerTrace* tracer() { return config.trace ? &trace : nullptr; }
};

std::size_t add_cluster(Run& run, const std::string& linkage) {
  Request request;
  request.type = JobType::kCluster;
  request.linkage = linkage;
  request.body = cluster_body(linkage);
  return run.add(std::move(request));
}

std::size_t add_topk(Run& run, const TopkParams& params) {
  Request request;
  request.type = JobType::kTopk;
  request.topk = params;
  request.body = topk_body(params);
  return run.add(std::move(request));
}

std::size_t add_spell(Run& run, std::vector<std::string> query) {
  Request request;
  request.type = JobType::kSpell;
  request.body = spell_body(query);
  request.query = std::move(query);
  return run.add(std::move(request));
}

std::string job_label(const Request& request) {
  switch (request.type) {
    case JobType::kCluster: return "cluster." + request.linkage;
    case JobType::kTopk: return "topk." + request.topk.strategy;
    case JobType::kSpell: return "spell";
  }
  return "job";
}

/// One session on one client: open, run `requests` in order, delete.
/// Returns the time from the session open to the last result byte.
double drive_session(Run& run, ServedCompendium& server,
                     const std::vector<std::size_t>& requests, bool warm,
                     std::vector<JobRecord>& into) {
  Client client(server.port());
  Rpc rpc;
  const std::int64_t begin = now_ns();
  const std::string session = open_session(client, &rpc);
  std::vector<Rpc> session_rpcs{rpc};
  std::int64_t end = rpc.end_ns;
  for (const std::size_t request : requests) {
    JobRecord record;
    record.request = request;
    record.ready_ns = end;  // the client was free once its last exchange ended
    record.outcome = run_job(client, session, run.requests[request].body);
    record.due_ns = record.outcome.start_ns;
    record.warm_blob = warm;
    record.label = (warm ? "warm_blob." : "") + job_label(run.requests[request]);
    end = record.outcome.end_ns;
    into.push_back(std::move(record));
  }
  close_session(client, session, &rpc);
  session_rpcs.push_back(rpc);
  if (run.trace.enabled()) {
    run.session_rpcs.insert(run.session_rpcs.end(), session_rpcs.begin(),
                            session_rpcs.end());
  }
  return static_cast<double>(end - begin) * 1e-9;
}

/// Cold bring-up on an empty store, the first session, stop; then
/// kWarmRestarts times: warm restart on the same store, the same session
/// again, stop.
void restart_cycle(Run& run, std::vector<JobRecord>& into) {
  const std::string store = run.store_dir("store-cycle-" +
                                          std::to_string(run.cycles++));
  {
    ServedCompendium cold(run.datasets_dir, store, run.tracer());
    run.cold_bringups.push_back(cold.bringup_s());
    run.first_sessions.push_back(
        drive_session(run, cold, run.session_requests, false, into));
  }
  for (std::size_t i = 0; i < kWarmRestarts; ++i) {
    ServedCompendium warm(run.datasets_dir, store, run.tracer());
    run.restarts.push_back(warm.bringup_s());
    run.warm_sessions.push_back(
        drive_session(run, warm, run.session_requests, true, into));
  }
  fs::remove_all(store);
}

/// One set-up cycle: a bare cold bring-up on a fresh store (a cheap extra setup_s sample), then a
/// restart cycle.
void setup_cycle(Run& run) {
  const std::string store = run.store_dir("store-bare-" +
                                          std::to_string(run.cycles));
  {
    ServedCompendium cold(run.datasets_dir, store, run.tracer());
    run.cold_bringups.push_back(cold.bringup_s());
  }
  fs::remove_all(store);
  restart_cycle(run, run.setup_jobs);
}

/// Runs `body` on `clients` threads and collects their job records; an
/// exception escaping a client thread is a failure of the run. Records
/// grow in deques, which never copy what they hold, and the peak resident
/// set is read once the clients are done, before the records are merged:
/// the harness's own bookkeeping then adds about its size to the figure,
/// not two or three times it.
void on_clients(Run& run, std::size_t clients,
                const std::function<void(std::size_t, std::deque<JobRecord>&)>&
                    body,
                std::vector<JobRecord>& into) {
  std::vector<std::deque<JobRecord>> per_client(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c, per_client[c]);
      } catch (const std::exception& error) {
        std::scoped_lock lock(run.mutex);
        run.errors.push_back(std::string("client thread: ") + error.what());
        ++run.side_failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  run.clients_done_rss_mb = peak_rss_mb();
  std::size_t total = into.size();
  for (const auto& records : per_client) total += records.size();
  into.reserve(total);
  for (auto& records : per_client) {
    for (JobRecord& record : records) into.push_back(std::move(record));
  }
  std::sort(into.begin(), into.end(), [](const JobRecord& a,
                                         const JobRecord& b) {
    return a.outcome.start_ns < b.outcome.start_ns;
  });
}

/// A client's session, rotated every kJobsPerSession jobs.
class SessionRotation {
 public:
  SessionRotation(Run& run, Client& client) : run_(run), client_(client) {
    open();
  }
  ~SessionRotation() {
    try {
      close();
    } catch (const std::exception& error) {
      std::scoped_lock lock(run_.mutex);
      run_.errors.push_back(std::string("closing a session: ") + error.what());
      ++run_.side_failures;
    }
  }
  const std::string& id() const { return id_; }
  void job_done() {
    if (++jobs_ < kJobsPerSession) return;
    close();
    open();
  }

 private:
  void open() {
    Rpc rpc;
    id_ = open_session(client_, &rpc);
    jobs_ = 0;
    keep(rpc);
  }
  void close() {
    if (id_.empty()) return;
    Rpc rpc;
    const std::string id = std::move(id_);
    id_.clear();
    close_session(client_, id, &rpc);
    keep(rpc);
  }
  void keep(const Rpc& rpc) {
    if (!run_.trace.enabled()) return;
    std::scoped_lock lock(run_.mutex);
    run_.session_rpcs.push_back(rpc);
  }

  Run& run_;
  Client& client_;
  std::string id_;
  std::size_t jobs_ = 0;
};

/// Closed loop: each client runs jobs back to back until `seconds` pass;
/// `pick(client)` names the next request (npos ends that client). Bodies of
/// requests in `references` are checked against it and dropped at once.
void closed_loop(Run& run, ServedCompendium& server, std::size_t clients,
                 double seconds,
                 const std::function<std::size_t(std::size_t)>& pick,
                 std::vector<JobRecord>& into,
                 const std::map<std::size_t, std::string>& references = {}) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  on_clients(
      run, clients,
      [&](std::size_t c, std::deque<JobRecord>& out) {
        Client client(server.port());
        SessionRotation session(run, client);
        std::int64_t ready = now_ns();
        while (now_ns() < deadline) {
          const std::size_t request = pick(c);
          if (request == static_cast<std::size_t>(-1)) break;
          JobRecord record;
          record.request = request;
          record.ready_ns = ready;
          record.outcome =
              run_job(client, session.id(), run.requests[request].body);
          record.due_ns = record.outcome.start_ns;
          // Exchange timestamps feed only the traced waterfall.
          if (!run.trace.enabled()) std::vector<Rpc>().swap(record.outcome.rpcs);
          if (const auto it = references.find(request);
              record.outcome.ok && it != references.end()) {
            record.checked = true;
            record.matched = record.outcome.body == it->second;
            std::string().swap(record.outcome.body);
          }
          ready = now_ns();
          out.push_back(std::move(record));
          session.job_done();
        }
      },
      into);
}

/// Open loop: Poisson arrivals at `rate`, each taken by the first free
/// client of `clients`; latency counts from the arrival's due time.
void open_loop(Run& run, ServedCompendium& server, std::size_t clients,
               double seconds, double rate, std::uint64_t stream,
               std::vector<JobRecord>& into) {
  const std::vector<std::int64_t> due = poisson_schedule(
      derive_seed(run.config.seed, stream), rate,
      static_cast<std::int64_t>(seconds * 1e9));
  std::vector<std::size_t> requests;
  for (auto& query : spell_queries(derive_seed(run.config.seed, stream),
                                   run.genes, due.size())) {
    requests.push_back(add_spell(run, std::move(query)));
  }
  std::atomic<std::size_t> cursor{0};
  const std::int64_t t0 = now_ns() + 20'000'000;  // clients settle first
  on_clients(
      run, clients,
      [&](std::size_t, std::deque<JobRecord>& out) {
        Client client(server.port());
        SessionRotation session(run, client);
        while (true) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= due.size()) break;
          const std::int64_t due_at = t0 + due[i];
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due_at)));
          JobRecord record;
          record.request = requests[i];
          record.due_ns = due_at;
          record.ready_ns = due_at;
          record.outcome =
              run_job(client, session.id(), run.requests[requests[i]].body);
          out.push_back(std::move(record));
          session.job_done();
        }
      },
      into);
}

// ---- workload load phases ----------------------------------------------

/// State a load phase carries between its untraced and traced passes.
struct LoadPhase {
  std::vector<std::size_t> topk_requests;
  std::atomic<std::size_t> topk_cursor{0};
  std::vector<std::size_t> popular;
  std::map<std::size_t, std::string> warm_bodies;  ///< popular set, warm-up
  std::size_t passes = 0;
};

void prepare_load(Run& run, ServedCompendium& server, LoadPhase& phase,
                  std::vector<JobRecord>& warmup) {
  const std::string& workload = run.config.workload;
  if (workload == "topk_cold") {
    // More distinct triples than any run can use at today's job rate.
    for (const TopkParams& params : topk_stream(run.config.seed, 2944)) {
      phase.topk_requests.push_back(add_topk(run, params));
    }
  } else if (workload == "cached_views") {
    for (const char* linkage : {"single", "complete", "average"}) {
      phase.popular.push_back(add_cluster(run, linkage));
    }
    phase.popular.push_back(add_topk(run, TopkParams{10, 0, "auto", 0}));
    for (auto& query : spell_queries(derive_seed(run.config.seed, 11),
                                     run.genes, kPopularSpell)) {
      phase.popular.push_back(add_spell(run, std::move(query)));
    }
    // Warm the popular set: every later job of this workload is a hit.
    drive_session(run, server, phase.popular, false, warmup);
    for (const JobRecord& job : warmup) {
      if (job.outcome.ok) phase.warm_bodies.emplace(job.request, job.outcome.body);
    }
  }
}

void load_pass(Run& run, ServedCompendium& server, LoadPhase& phase,
               double seconds, std::vector<JobRecord>& into) {
  const std::string& workload = run.config.workload;
  const std::size_t pass = phase.passes++;
  if (workload == "spell_interactive") {
    open_loop(run, server, 4, seconds, kSpellRate, 20 + pass, into);
  } else if (workload == "topk_cold") {
    closed_loop(run, server, kTopkClients, seconds,
                [&](std::size_t) {
                  const std::size_t i = phase.topk_cursor.fetch_add(1);
                  return i < phase.topk_requests.size()
                             ? phase.topk_requests[i]
                             : static_cast<std::size_t>(-1);
                },
                into);
  } else if (workload == "cached_views") {
    // Each client deals the popular set like a deck, reshuffled every
    // round, so every run serves the same mix of body sizes and the tail
    // percentiles do not move with how often the seed drew the 0.67 MB
    // table.
    std::vector<SeededRng> rngs;
    std::vector<std::vector<std::size_t>> decks(kCachedClients);
    std::vector<std::size_t> dealt(kCachedClients, 0);
    for (std::size_t c = 0; c < kCachedClients; ++c) {
      rngs.emplace_back(derive_seed(run.config.seed, 40 + 8 * pass + c));
    }
    closed_loop(run, server, kCachedClients, seconds,
                [&](std::size_t c) {
                  std::vector<std::size_t>& deck = decks[c];
                  if (dealt[c] == deck.size()) {
                    deck = phase.popular;
                    for (std::size_t i = deck.size(); i > 1; --i) {
                      std::swap(deck[i - 1], deck[rngs[c].between(0, i - 1)]);
                    }
                    dealt[c] = 0;
                  }
                  return deck[dealt[c]++];
                },
                into, phase.warm_bodies);
  }
  for (JobRecord& record : into) {
    if (record.label.empty()) {
      record.label = record.outcome.cached
                         ? "cached"
                         : job_label(run.requests[record.request]);
    }
  }
}

// ---- summaries ---------------------------------------------------------

struct LatencySummary {
  std::size_t samples = 0;
  double jobs_per_s = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double q90 = 0.9, q99 = 0.99;  ///< quantiles actually reported
};

/// Throughput and latency percentiles of a load pass. Throughput is the
/// validated jobs over the time from the first job's ready time to the last
/// result byte, so in the open loop a backlog lowers it. With `slices` > 1
/// (closed loop only) that span is cut into equal slices by when each job's
/// last byte arrived, and the throughput and every percentile are medians
/// of their per-slice values, so a noisy second of the host moves one
/// slice rather than the result. The reported tails are the ones the
/// smallest slice supports.
LatencySummary summarize(const std::vector<JobRecord>& jobs,
                         std::size_t slices = 1) {
  LatencySummary out;
  std::vector<std::pair<std::int64_t, double>> samples;  // (end, latency)
  std::int64_t first = INT64_MAX, last_end = 0;
  for (const JobRecord& job : jobs) {
    first = std::min(first, job.ready_ns);
    last_end = std::max(last_end, job.outcome.end_ns);
    if (!job.outcome.ok || !job.valid) continue;
    samples.emplace_back(
        job.outcome.end_ns,
        ms(due_times(job.due_ns, job.outcome.start_ns, job.outcome.end_ns)
               .latency_ns));
  }
  out.samples = samples.size();
  if (samples.empty()) return out;
  const double span_s = static_cast<double>(last_end - first) * 1e-9;
  if (slices <= 1) {
    std::vector<double> latencies;
    for (const auto& sample : samples) latencies.push_back(sample.second);
    out.jobs_per_s = static_cast<double>(samples.size()) / span_s;
    out.q90 = supported_quantile(latencies.size(), 0.9);
    out.q99 = supported_quantile(latencies.size(), 0.99);
    out.p50 = percentile(latencies, 0.5);
    out.p90 = percentile(latencies, out.q90);
    out.p99 = percentile(latencies, out.q99);
    return out;
  }
  const double width =
      static_cast<double>(last_end - first + 1) / static_cast<double>(slices);
  std::vector<std::vector<double>> slice(slices);
  for (const auto& [end, latency] : samples) {
    slice[static_cast<std::size_t>(static_cast<double>(end - first) / width)]
        .push_back(latency);
  }
  std::size_t smallest = samples.size();
  for (const auto& s : slice) smallest = std::min(smallest, s.size());
  out.q90 = supported_quantile(smallest, 0.9);
  out.q99 = supported_quantile(smallest, 0.99);
  std::vector<double> rate, p50, p90, p99;
  for (const auto& s : slice) {
    rate.push_back(static_cast<double>(s.size()) / (span_s / slices));
    p50.push_back(percentile(s, 0.5));
    p90.push_back(percentile(s, out.q90));
    p99.push_back(percentile(s, out.q99));
  }
  out.jobs_per_s = median(rate);
  out.p50 = median(p50);
  out.p90 = median(p90);
  out.p99 = median(p99);
  return out;
}

std::string fmt(double value, int precision = 4) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

/// Validates every job in start order. The first successful body of a
/// request is checked against a replay and becomes its reference; every
/// later body of it (cache hits, warm restarts, repeat cold computes) must
/// equal the reference byte for byte.
void validate(Run& run, const serve::SharedCompendium& compendium,
              par::ThreadPool& pool, std::vector<JobRecord*>& jobs,
              std::map<std::size_t, Replay>& replays) {
  std::sort(jobs.begin(), jobs.end(), [](const JobRecord* a,
                                         const JobRecord* b) {
    return a->outcome.start_ns < b->outcome.start_ns;
  });
  std::map<std::size_t, std::string> reference;
  for (JobRecord* job : jobs) {
    job->valid = false;
    if (!job->outcome.ok) {
      job->invalid_reason = job->outcome.error;
      continue;
    }
    const Request& request = run.requests[job->request];
    const bool cold = !job->outcome.cached && !job->warm_blob;
    if (job->checked) {
      job->valid = job->matched;
      if (!job->valid) {
        job->invalid_reason = "body differs from the warm-up body of " +
                              request.body;
      }
    } else if (const auto it = reference.find(job->request);
               it != reference.end()) {
      job->valid = job->outcome.body == it->second;
      if (!job->valid) {
        job->invalid_reason = "body differs from the first body of " +
                              request.body;
      }
    } else {
      Replay replay;
      std::string verdict;
      try {
        verdict = replay_and_check(request, job->outcome.body, compendium,
                                   pool, replay);
      } catch (const std::exception& error) {
        verdict = error.what();
      }
      job->valid = verdict.empty();
      if (job->valid) {
        reference.emplace(job->request, job->outcome.body);
        replays.emplace(job->request, replay);
      } else {
        job->invalid_reason = verdict + " (" + request.body + ")";
      }
    }
    if (cold) {
      if (const auto it = replays.find(job->request); it != replays.end()) {
        job->replay = &it->second;
      }
    }
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

const char* job_type_name(JobType type) {
  switch (type) {
    case JobType::kCluster: return "cluster";
    case JobType::kTopk: return "topk";
    case JobType::kSpell: return "spell";
  }
  return "job";
}

namespace {

/// Generates the compendium and the restart session's requests.
void prepare_inputs(Run& run) {
  fs::create_directories(run.config.work_dir);
  run.datasets_dir = run.store_dir("datasets");
  run.genes = write_compendium(run.config.seed, run.datasets_dir);
  run.session_requests = {
      add_topk(run, TopkParams{10, 0, "auto", 0}), add_cluster(run, "average"),
      add_cluster(run, "complete"),
      add_spell(run, spell_queries(derive_seed(run.config.seed, 7), run.genes,
                                   1)[0])};
}

}  // namespace

double calibrate_spell_capacity(const RunConfig& config, std::size_t clients) {
  Run run;
  run.config = config;
  prepare_inputs(run);
  ServedCompendium server(run.datasets_dir, run.store_dir("store-calibrate"),
                          nullptr);
  std::vector<std::size_t> requests;
  for (auto& query : spell_queries(derive_seed(config.seed, 99), run.genes,
                                   100000)) {
    requests.push_back(add_spell(run, std::move(query)));
  }
  std::atomic<std::size_t> cursor{0};
  std::vector<JobRecord> jobs;
  closed_loop(run, server, clients, config.seconds,
              [&](std::size_t) { return requests[cursor.fetch_add(1)]; },
              jobs);
  for (JobRecord& job : jobs) job.valid = job.outcome.ok;
  return summarize(jobs).jobs_per_s;
}

namespace {

/// Starts sampling the load server and marks the traced pass's start.
std::unique_ptr<Sampler> begin_capture(ServedCompendium& server,
                                       TraceCapture& capture) {
  capture.begin_ns = now_ns();
  return std::make_unique<Sampler>(
      [&server, &capture] {
        capture.active_jobs_sum +=
            static_cast<double>(server.service().active_jobs());
        capture.pending_sum +=
            static_cast<double>(server.compute_pool().pending());
        ++capture.samples;
      },
      std::chrono::microseconds(2000));
}

/// Ends the traced pass: spans, then the server's own counters.
void end_capture(Run& run, ServedCompendium& server, TraceCapture& capture) {
  capture.end_ns = now_ns();
  capture.handler_spans = run.trace.take();
  run.trace.set_enabled(false);
  Client client(server.port());
  const JsonValue stats =
      serve::parse_json(client.request(RpcKind::kOther, "GET", "/stats", "").body);
  capture.cache_hits = number(stats, "cache_hits");
  capture.jobs_submitted = number(stats, "jobs_submitted");
  capture.computes = number(stats, "computes");
  capture.jobs_rejected = number(stats, "jobs_rejected");
  const store::StoreStats& store = server.store().stats();
  capture.persists = static_cast<double>(store.persists.load());
  capture.warm_opens = static_cast<double>(store.warm_opens.load());
  capture.recomputes = static_cast<double>(store.recomputes.load());
}

}  // namespace

RunReport run_workload(const RunConfig& config) {
  Run run;
  run.config = config;
  RunReport report;
  std::vector<std::pair<const char*, std::int64_t>> phases{{"", now_ns()}};
  const auto phase_done = [&](const char* name) {
    phases.emplace_back(name, now_ns());
  };
  prepare_inputs(run);
  phase_done("inputs");
  // Everything up to validation runs on one CPU; the server's compute pool
  // has one thread (kComputeThreads), so it loses no parallelism there.
  const cpu_set_t all_cpus = pin_to_one_cpu();

  LoadPhase phase;
  std::vector<JobRecord> warmup;
  TraceCapture capture;
  double rss_mb = 0.0;

  // The load server comes up first, in a process that has run nothing
  // else, so that peak_rss_mb measures the workload and not the heap the
  // allocator kept from the set-up cycles' twenty servers (which moved it
  // by a quarter between runs). The set-up cycles run after the window.
  run.trace.set_enabled(config.trace);
  ServedCompendium server(run.datasets_dir, run.store_dir("store-load"),
                          run.tracer());
  run.cold_bringups.push_back(server.bringup_s());
  prepare_load(run, server, phase, warmup);
  run.trace.set_enabled(false);
  phase_done("load server");

  // The measured window. A traced run splits it: an untraced pass, then a
  // traced pass of the same workload, so trace.overhead_frac compares the
  // two on one server.
  const double pass_seconds = config.trace ? config.seconds / 2 : config.seconds;
  reset_peak_rss();
  for (int pass = 0; pass < (config.trace ? 2 : 1); ++pass) {
    const bool traced = pass == 1;
    std::vector<JobRecord>& into = traced ? run.traced_jobs : run.load_jobs;
    std::unique_ptr<Sampler> sampler;
    if (traced) {
      run.trace.set_enabled(true);
      sampler = begin_capture(server, capture);
    }
    load_pass(run, server, phase, pass_seconds, into);
    if (pass == 0) rss_mb = run.clients_done_rss_mb;
    if (traced) {
      sampler.reset();
      end_capture(run, server, capture);
    }
    phase_done(traced ? "traced pass" : "window");
  }

  // Set-up cycles, which give setup_s its several cold bring-ups and
  // first_session_s and restart_s their samples. Traced runs trace them
  // too, so layers the load never reaches still get samples.
  run.trace.set_enabled(config.trace);
  for (std::size_t i = 0; i < kSetupCycles; ++i) setup_cycle(run);
  run.trace.set_enabled(false);
  for (HandlerSpan& span : run.trace.take()) {
    capture.handler_spans.push_back(span);
  }
  phase_done("set-up");

  // ---- validation, outside every timed window ----
  ::sched_setaffinity(0, sizeof all_cpus, &all_cpus);
  std::vector<JobRecord*> all;
  for (auto* list : {&run.setup_jobs, &warmup, &run.load_jobs,
                     &run.traced_jobs}) {
    for (JobRecord& job : *list) all.push_back(&job);
  }
  // Replays time their layer calls for the traced run's waterfall, so a
  // traced run replays on the server's own pool; otherwise on all cores,
  // which keeps a run short (results do not depend on the pool's size).
  std::map<std::size_t, Replay> replays;
  std::unique_ptr<par::ThreadPool> validation_pool;
  if (!config.trace) validation_pool = std::make_unique<par::ThreadPool>();
  validate(run, server.service().compendium(),
           config.trace ? server.compute_pool() : *validation_pool, all,
           replays);
  report.attempted = all.size() + run.side_failures;
  report.failed = run.side_failures;
  std::vector<std::string> reasons = run.errors;
  for (const JobRecord* job : all) {
    if (!job->valid) {
      ++report.failed;
      if (reasons.size() < 8) reasons.push_back(job->invalid_reason);
    }
  }
  report.correct = report.failed == 0;
  phase_done("validation");

  // ---- end-to-end metrics ----
  // cached_views has tens of thousands of jobs, enough for per-slice
  // tails; the other workloads have hundreds and are summarized whole.
  const bool sliced = config.workload == "cached_views";
  const LatencySummary load = summarize(run.load_jobs, sliced ? kSlices : 1);
  report.end_to_end = {
      {"setup_s", median(run.cold_bringups), "s"},
      {"jobs_per_s", load.jobs_per_s, "1/s"},
      {"job_p50_ms", load.p50, "ms"},
      {"job_p90_ms", load.p90, "ms"},
      {"job_p99_ms", load.p99, "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"first_session_s", median(run.first_sessions), "s"},
      {"restart_s", median(run.restarts), "s"},
  };

  auto& lines = report.lines;
  lines.push_back("workload " + config.workload + "  seed " +
                  std::to_string(config.seed) + "  window " +
                  fmt(pass_seconds, 1) + " s" +
                  (config.trace ? " untraced + " + fmt(pass_seconds, 1) +
                                      " s traced"
                                : ""));
  lines.push_back("jobs: " + std::to_string(report.attempted) +
                  " attempted, " + std::to_string(report.failed) +
                  " failed (failed_frac " +
                  fmt(static_cast<double>(report.failed) /
                          static_cast<double>(std::max<std::size_t>(
                              1, report.attempted)),
                      6) +
                  "); load-pass latency samples " +
                  std::to_string(load.samples) + "; restart cycles " +
                  std::to_string(run.cycles) + "; cold bring-ups " +
                  std::to_string(run.cold_bringups.size()));
  if (load.q90 != 0.9 || load.q99 != 0.99) {
    lines.push_back(
        "note: " + std::to_string(load.samples) + " samples" +
        (sliced ? " in " + std::to_string(kSlices) + " slices" : "") +
        " hold fewer than " + std::to_string(kTailSupport) +
        " beyond the wanted tail, so job_p90_ms reports p" +
        fmt(load.q90 * 100, 0) + " and job_p99_ms reports p" +
        fmt(load.q99 * 100, 0));
  }
  std::string spread = "set-up samples (p25 p50 p75):";
  for (const auto& [name, samples] :
       {std::pair<const char*, const std::vector<double>*>{
            "setup_s", &run.cold_bringups},
        {"first_session_s", &run.first_sessions},
        {"restart_s", &run.restarts},
        {"warm_session_s", &run.warm_sessions}}) {
    spread += std::string(" ") + name + " " + std::to_string(samples->size()) +
              " × " + fmt(percentile(*samples, 0.25)) + " " +
              fmt(percentile(*samples, 0.5)) + " " +
              fmt(percentile(*samples, 0.75)) + ";";
  }
  lines.push_back(spread);
  for (const Metric& metric : report.end_to_end) {
    lines.push_back("  " + metric.name + " = " + fmt(metric.value) + " " +
                    metric.unit);
  }
  for (const std::string& reason : reasons) {
    lines.push_back("FAILED: " + reason);
  }

  std::string timeline = "phases:";
  for (std::size_t i = 1; i < phases.size(); ++i) {
    timeline += std::string(" ") + phases[i].first + " " +
                fmt(static_cast<double>(phases[i].second - phases[i - 1].second) *
                        1e-9,
                    2) +
                " s;";
  }
  lines.push_back(timeline);

  if (config.trace) {
    std::vector<const JobRecord*> setup, traced;
    for (auto* list : {&run.setup_jobs, &warmup}) {
      for (const JobRecord& job : *list) setup.push_back(&job);
    }
    for (const JobRecord& job : run.traced_jobs) traced.push_back(&job);
    const TraceInputs inputs{config,           run.datasets_dir,
                             std::move(setup), std::move(traced),
                             run.session_rpcs, run.requests,
                             capture,          load.p50,
                             server,           config.spans_path};
    add_trace_report(inputs, report);
  }

  return report;
}

}  // namespace fv::e2e
