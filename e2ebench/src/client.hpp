// The server under test and the client that drives it.
//
// ServedCompendium assembles the analysis server as
// `fv_serve --datasets DIR --store DIR` does — PCL files parsed from disk,
// open_shared_compendium over the store, AnalysisService and HttpServer
// with their library defaults, only the compute pool pinned to one
// thread — and times the bring-up to the first
// `/healthz` 200. Client speaks the documented protocol over loopback
// sockets, one connection per request, and timestamps every exchange.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "expr/dataset.hpp"
#include "par/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"

namespace fv::e2e {

enum class RpcKind { kSubmit, kStatus, kResult, kSession, kOther };
const char* rpc_kind_name(RpcKind kind);

/// One HTTP exchange as the client saw it, joined after the run to the
/// handler span the server side recorded under the same id.
struct Rpc {
  RpcKind kind = RpcKind::kOther;
  std::uint64_t id = 0;         ///< sent as the X-E2E-Rpc request header
  std::int64_t connect_ns = 0;  ///< before connect()
  std::int64_t end_ns = 0;      ///< after the last response byte
  int status = 0;
};

/// Handler entry/exit of one request, recorded by the traced handler.
struct HandlerSpan {
  std::uint64_t rpc_id = 0;
  std::int64_t enter_ns = 0;
  std::int64_t exit_ns = 0;
};

/// The server-side half of the trace: the Handler the benchmark passes to
/// HttpServer stamps entry and exit of every request while enabled.
class HandlerTrace {
 public:
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const HandlerSpan& span);
  /// Moves out everything recorded so far.
  std::vector<HandlerSpan> take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<HandlerSpan> spans_;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Loopback HTTP/1.1 client. The server answers Connection: close, so
/// every request opens a fresh connection, as any client of it must.
///
/// It does not use serve::http_exchange: that helper reads 4 KB at a time,
/// about 170 recv calls on the 0.67 MB full top-k body, client work that
/// would land inside cached_views' timed latency; it also reads a recv
/// error as the end of the response and sets no timeouts, so a stalled
/// server would hang the run rather than fail one job.
class Client {
 public:
  explicit Client(std::uint16_t port) : port_(port) {}

  /// One exchange. Throws fv::IoError on a transport failure. `record`,
  /// when non-null, receives the exchange's timestamps.
  HttpReply request(RpcKind kind, const char* method,
                    const std::string& target, const std::string& body,
                    Rpc* record = nullptr);

 private:
  std::uint16_t port_;
  std::string raw_;
};

/// Outcome of one job driven through submit → ?wait_ms long-poll → fetch.
struct JobOutcome {
  bool ok = false;
  bool cached = false;      ///< submit answered "done" (memory-cache hit)
  std::string error;        ///< why it failed, when !ok
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last result byte
  std::vector<Rpc> rpcs;
  std::string body;         ///< result bytes
};

/// Long-poll bound of every status request (the endpoint allows 60000).
inline constexpr int kWaitMs = 10000;

/// Runs one job in `session`. A submit answered "done" is fetched at once;
/// otherwise one bounded long-poll must reach "done" — an expired poll or a
/// failed job is a failed job, never re-polled.
JobOutcome run_job(Client& client, const std::string& session,
                   const std::string& request_body);

/// POST /sessions → the new session id. DELETE /sessions/<id>.
std::string open_session(Client& client, Rpc* record = nullptr);
void close_session(Client& client, const std::string& session,
                   Rpc* record = nullptr);

/// Threads of the server's compute pool. tools/fv_serve takes the pool's
/// default of one per hardware thread; the benchmark pins one, because on
/// a shared 4-vCPU host a fixed loop split over four threads varied by
/// ±15% from one repetition to the next against ±3% on one thread, and
/// that spread reached every compute-bound metric (README.md,
/// Steadiness). Everything else keeps the library defaults.
inline constexpr std::size_t kComputeThreads = 1;

/// The analysis server over the PCL compendium in `datasets_dir` with its
/// artifact store at `store_dir`, assembled as tools/fv_serve assembles it
/// except for the compute pool's size (kComputeThreads).
class ServedCompendium {
 public:
  /// Brings the server up and waits for the first `/healthz` 200;
  /// `bringup_s()` is that time. `trace` (may be null) is consulted by the
  /// handler on every request.
  ServedCompendium(const std::string& datasets_dir,
                   const std::string& store_dir, HandlerTrace* trace);
  /// Stops the listener, then drains the job queue.
  ~ServedCompendium();

  ServedCompendium(const ServedCompendium&) = delete;
  ServedCompendium& operator=(const ServedCompendium&) = delete;

  double bringup_s() const { return bringup_s_; }
  std::uint16_t port() const { return server_->port(); }
  serve::AnalysisService& service() { return *service_; }
  par::ThreadPool& compute_pool() { return *compute_pool_; }
  store::ArtifactStore& store() { return *store_; }
  const std::vector<expr::Dataset>& datasets() const { return *datasets_; }

 private:
  std::shared_ptr<std::vector<expr::Dataset>> datasets_;
  std::unique_ptr<par::ThreadPool> compute_pool_;
  std::unique_ptr<store::ArtifactStore> store_;
  std::unique_ptr<serve::AnalysisService> service_;
  std::unique_ptr<serve::HttpServer> server_;
  double bringup_s_ = 0.0;
};

}  // namespace fv::e2e
