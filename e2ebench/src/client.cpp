#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "expr/compendium_io.hpp"
#include "harness.hpp"
#include "serve/json.hpp"
#include "store/cached.hpp"

namespace fv::e2e {

namespace {

std::atomic<std::uint64_t> g_next_rpc{1};

[[noreturn]] void io_fail(const char* what) {
  throw IoError(std::string("e2e client: ") + what + ": " +
                std::strerror(errno));
}

/// Closes the descriptor on every path out of an exchange.
struct FdGuard {
  int fd;
  ~FdGuard() { ::close(fd); }
};

std::string string_member(const serve::JsonValue& value, const char* key) {
  const serve::JsonValue* field = value.find(key);
  if (field == nullptr || field->type() != serve::JsonValue::Type::kString) {
    throw ParseError(std::string("response lacks string field \"") + key +
                     "\"");
  }
  return field->as_string();
}

}  // namespace

const char* rpc_kind_name(RpcKind kind) {
  switch (kind) {
    case RpcKind::kSubmit: return "submit";
    case RpcKind::kStatus: return "status";
    case RpcKind::kResult: return "result";
    case RpcKind::kSession: return "session";
    case RpcKind::kOther: return "other";
  }
  return "other";
}

void HandlerTrace::record(const HandlerSpan& span) {
  std::scoped_lock lock(mutex_);
  spans_.push_back(span);
}

std::vector<HandlerSpan> HandlerTrace::take() {
  std::scoped_lock lock(mutex_);
  return std::move(spans_);
}

HttpReply Client::request(RpcKind kind, const char* method,
                          const std::string& target, const std::string& body,
                          Rpc* record) {
  const std::uint64_t id = g_next_rpc.fetch_add(1, std::memory_order_relaxed);
  raw_.clear();
  raw_.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-E2E-Rpc: ");
  raw_.append(std::to_string(id));
  raw_.append("\r\nContent-Length: ").append(std::to_string(body.size()));
  raw_.append("\r\n\r\n").append(body);

  const std::int64_t connect_ns = now_ns();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket");
  FdGuard guard{fd};
  // A server that stops answering becomes a transport failure of this job
  // instead of a hung benchmark (the longest legitimate wait is kWaitMs).
  const timeval timeout{static_cast<time_t>(kWaitMs / 1000 + 20), 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    io_fail("connect");
  }
  std::size_t sent = 0;
  while (sent < raw_.size()) {
    const ssize_t n =
        ::send(fd, raw_.data() + sent, raw_.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[65536];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) io_fail("recv");
    if (got == 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  const std::int64_t end_ns = now_ns();

  // "HTTP/1.1 200 OK\r\n...Content-Length: N\r\n...\r\n\r\n<body>"
  const std::size_t header_end = response.find("\r\n\r\n");
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
      header_end == std::string::npos) {
    throw ParseError("malformed HTTP response");
  }
  HttpReply reply;
  reply.status = std::atoi(response.c_str() + 9);
  const std::size_t cl = response.find("Content-Length: ");
  if (cl == std::string::npos || cl > header_end) {
    throw ParseError("response without Content-Length");
  }
  const auto length =
      static_cast<std::size_t>(std::strtoull(response.c_str() + cl + 16,
                                             nullptr, 10));
  if (response.size() - header_end - 4 != length) {
    throw ParseError("response body shorter or longer than Content-Length");
  }
  reply.body = response.substr(header_end + 4);
  if (record != nullptr) {
    *record = Rpc{kind, id, connect_ns, end_ns, reply.status};
  }
  return reply;
}

JobOutcome run_job(Client& client, const std::string& session,
                   const std::string& request_body) {
  JobOutcome out;
  out.start_ns = now_ns();
  const std::string jobs = "/sessions/" + session + "/jobs";
  try {
    Rpc rpc;
    const HttpReply submitted =
        client.request(RpcKind::kSubmit, "POST", jobs, request_body, &rpc);
    out.rpcs.push_back(rpc);
    if (submitted.status != 200 && submitted.status != 202) {
      out.error = "submit answered " + std::to_string(submitted.status) +
                  ": " + submitted.body;
      out.end_ns = rpc.end_ns;
      return out;
    }
    const serve::JsonValue ticket = serve::parse_json(submitted.body);
    const std::string job = jobs + "/" + string_member(ticket, "job");
    out.cached = string_member(ticket, "state") == "done";
    if (!out.cached) {
      const HttpReply status = client.request(
          RpcKind::kStatus, "GET",
          job + "?wait_ms=" + std::to_string(kWaitMs), "", &rpc);
      out.rpcs.push_back(rpc);
      const std::string state =
          status.status == 200
              ? string_member(serve::parse_json(status.body), "state")
              : "";
      if (state != "done") {
        out.error = "long-poll answered " + std::to_string(status.status) +
                    " state \"" + state + "\": " + status.body;
        out.end_ns = rpc.end_ns;
        return out;
      }
    }
    HttpReply result =
        client.request(RpcKind::kResult, "GET", job + "/result", "", &rpc);
    out.rpcs.push_back(rpc);
    out.end_ns = rpc.end_ns;
    if (result.status != 200) {
      out.error = "result answered " + std::to_string(result.status) + ": " +
                  result.body;
      return out;
    }
    out.body = std::move(result.body);
    out.ok = true;
  } catch (const std::exception& error) {
    out.error = error.what();
    out.end_ns = now_ns();
  }
  return out;
}

std::string open_session(Client& client, Rpc* record) {
  const HttpReply reply =
      client.request(RpcKind::kSession, "POST", "/sessions", "", record);
  if (reply.status != 201) {
    throw IoError("POST /sessions answered " + std::to_string(reply.status) +
                  ": " + reply.body);
  }
  return string_member(serve::parse_json(reply.body), "session");
}

void close_session(Client& client, const std::string& session, Rpc* record) {
  const HttpReply reply = client.request(RpcKind::kSession, "DELETE",
                                         "/sessions/" + session, "", record);
  if (reply.status != 200) {
    throw IoError("DELETE /sessions/" + session + " answered " +
                  std::to_string(reply.status) + ": " + reply.body);
  }
}

ServedCompendium::ServedCompendium(const std::string& datasets_dir,
                                   const std::string& store_dir,
                                   HandlerTrace* trace) {
  const std::int64_t begin = now_ns();
  datasets_ = std::make_shared<std::vector<expr::Dataset>>(
      expr::load_compendium_dir(datasets_dir));
  FV_REQUIRE(!datasets_->empty(), "no datasets in " + datasets_dir);
  compute_pool_ = std::make_unique<par::ThreadPool>(kComputeThreads);
  store_ = std::make_unique<store::ArtifactStore>(store_dir);
  const expr::ExpressionMatrix& engine_matrix = (*datasets_)[0].values();
  serve::SharedCompendium compendium = serve::open_shared_compendium(
      *store_, store::matrix_key(engine_matrix),
      [&] { return engine_matrix; }, datasets_, sim::Metric::kPearson,
      *compute_pool_);
  serve::AnalysisService::Options options;
  options.store = store_.get();
  service_ = std::make_unique<serve::AnalysisService>(
      std::move(compendium), *compute_pool_, options);

  serve::AnalysisService* service = service_.get();
  serve::HttpServer::Handler handler;
  if (trace == nullptr) {
    handler = [service](const serve::HttpRequest& request) {
      return service->handle(request);
    };
  } else {
    handler = [service, trace](const serve::HttpRequest& request) {
      if (!trace->enabled()) return service->handle(request);
      HandlerSpan span;
      span.enter_ns = now_ns();
      serve::HttpResponse response = service->handle(request);
      span.exit_ns = now_ns();
      if (const auto it = request.headers.find("x-e2e-rpc");
          it != request.headers.end()) {
        span.rpc_id = std::strtoull(it->second.c_str(), nullptr, 10);
      }
      trace->record(span);
      return response;
    };
  }
  server_ = std::make_unique<serve::HttpServer>(std::move(handler),
                                                serve::HttpServer::Options{});

  Client client(server_->port());
  const HttpReply health = client.request(RpcKind::kOther, "GET", "/healthz",
                                          "");
  if (health.status != 200) {
    throw IoError("/healthz answered " + std::to_string(health.status));
  }
  bringup_s_ = static_cast<double>(now_ns() - begin) * 1e-9;
}

ServedCompendium::~ServedCompendium() {
  if (server_ != nullptr) server_->stop();
  server_.reset();
  service_.reset();
}

}  // namespace fv::e2e
