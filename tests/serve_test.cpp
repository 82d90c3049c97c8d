// Endpoint contract suite for the serving layer (src/serve).
//
// Drives AnalysisService::handle directly (request-in/response-out — the
// HTTP socket layer is exercised separately at the end) and pins the
// contracts the clients and the chaos/bench layers rely on:
//   * session CRUD with a bounded session table,
//   * the async job lifecycle (submit 202 → poll → fetch),
//   * typed fv::Error → HTTP status mapping, malformed JSON → 400,
//   * cache-hit bit-identity, proven by the compute counter,
//   * deterministic request-path fault injection,
//   * client-abandoned job reaping on the logical request clock,
//   * the persistent blob cache across service restarts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/distance.hpp"
#include "cluster/hclust.hpp"
#include "expr/synth.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "store/fsck.hpp"

namespace {

namespace fs = std::filesystem;
using fv::serve::AnalysisService;
using fv::serve::HttpRequest;
using fv::serve::HttpResponse;
using fv::serve::JsonValue;

/// One small synthetic compendium + engine + SPELL banks, built once and
/// shared by every test (construction dominates test runtime otherwise).
struct Fixture {
  std::shared_ptr<const std::vector<fv::expr::Dataset>> datasets;
  fv::serve::SharedCompendium compendium;
  fv::par::ThreadPool compute_pool{2};

  Fixture() {
    fv::expr::CompendiumSpec spec;
    spec.genome = fv::expr::GenomeSpec::yeast_like(120);
    spec.seed = 7;
    auto owned = std::make_shared<std::vector<fv::expr::Dataset>>(
        fv::expr::make_compendium(spec).datasets);
    datasets = owned;
    auto engine = std::make_shared<fv::sim::SimilarityEngine>(
        fv::sim::SimilarityEngine::from_rows((*datasets)[0].values(),
                                             fv::sim::Metric::kPearson));
    auto spell = std::make_shared<fv::spell::SpellSearch>(*datasets,
                                                          compute_pool);
    compendium = fv::serve::make_shared_compendium(engine, datasets, spell);
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture;
  return *f;
}

HttpRequest make_request(const std::string& method, const std::string& path,
                         const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

/// Extracts a top-level string field from a JSON response body.
std::string field(const HttpResponse& response, const std::string& key) {
  const JsonValue body = fv::serve::parse_json(response.body);
  const JsonValue* value = body.find(key);
  if (value == nullptr) return "";
  if (value->type() == JsonValue::Type::kString) return value->as_string();
  return fv::serve::format_json_number(value->as_number());
}

std::string create_session(AnalysisService& service) {
  const HttpResponse response =
      service.handle(make_request("POST", "/sessions"));
  EXPECT_EQ(response.status, 201);
  return field(response, "session");
}

/// Submits a job and runs it to completion; returns the result bytes.
std::string run_to_result(AnalysisService& service, const std::string& sid,
                          const std::string& job_body) {
  const HttpResponse submit =
      service.handle(make_request("POST", "/sessions/" + sid + "/jobs",
                                  job_body));
  EXPECT_TRUE(submit.status == 202 || submit.status == 200) << submit.body;
  const std::string job = field(submit, "job");
  service.wait_job(job, std::chrono::seconds(60));
  const HttpResponse result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  EXPECT_EQ(result.status, 200) << result.body;
  return result.body;
}

TEST(Serve, HealthzStatsAndUnknownEndpoints) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).status, 200);
  EXPECT_EQ(service.handle(make_request("GET", "/stats")).status, 200);
  EXPECT_EQ(service.handle(make_request("GET", "/no/such/path")).status, 404);
  EXPECT_EQ(service.handle(make_request("PUT", "/healthz")).status, 405);
  EXPECT_EQ(service.handle(make_request("PUT", "/sessions")).status, 405);
}

TEST(Serve, SessionCrudLifecycle) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  EXPECT_EQ(sid, "s1");

  HttpResponse list = service.handle(make_request("GET", "/sessions"));
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(field(list, "count"), "1");

  HttpResponse get = service.handle(make_request("GET", "/sessions/" + sid));
  EXPECT_EQ(get.status, 200);
  const JsonValue body = fv::serve::parse_json(get.body);
  EXPECT_EQ(body.find("id")->as_string(), sid);
  EXPECT_EQ(body.find("datasets")->as_number(),
            static_cast<double>(fixture().datasets->size()));
  EXPECT_EQ(body.find("selection")->as_number(), 0.0);

  EXPECT_EQ(service.handle(make_request("DELETE", "/sessions/" + sid)).status,
            200);
  EXPECT_EQ(service.handle(make_request("GET", "/sessions/" + sid)).status,
            404);
  EXPECT_EQ(service.handle(make_request("DELETE", "/sessions/" + sid)).status,
            404);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST(Serve, SessionTableIsBounded) {
  AnalysisService::Options options;
  options.max_sessions = 2;
  AnalysisService service(fixture().compendium, fixture().compute_pool,
                          options);
  create_session(service);
  create_session(service);
  const HttpResponse third = service.handle(make_request("POST", "/sessions"));
  EXPECT_EQ(third.status, 503);
  EXPECT_NE(third.body.find("session table full"), std::string::npos);
}

TEST(Serve, SelectByNamesMutatesOnlyThatSession) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string a = create_session(service);
  const std::string b = create_session(service);
  const std::string gene = (*fixture().datasets)[0].gene(0).systematic_name;
  const HttpResponse select = service.handle(make_request(
      "POST", "/sessions/" + a + "/select", "{\"names\":[\"" + gene + "\"]}"));
  EXPECT_EQ(select.status, 200);
  EXPECT_EQ(field(select, "found"), "1");

  EXPECT_EQ(field(service.handle(make_request("GET", "/sessions/" + a)),
                  "selection"),
            "1");
  EXPECT_EQ(field(service.handle(make_request("GET", "/sessions/" + b)),
                  "selection"),
            "0");
}

TEST(Serve, MalformedAndInvalidRequestsAre400) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string jobs = "/sessions/" + sid + "/jobs";
  // Malformed JSON body.
  EXPECT_EQ(service.handle(make_request("POST", jobs, "{bad")).status, 400);
  // Missing type.
  EXPECT_EQ(service.handle(make_request("POST", jobs, "{}")).status, 400);
  // Unknown type.
  EXPECT_EQ(
      service.handle(make_request("POST", jobs, "{\"type\":\"nope\"}")).status,
      400);
  // Ward linkage needs squared Euclidean input; this engine is Pearson.
  EXPECT_EQ(service
                .handle(make_request(
                    "POST", jobs,
                    "{\"type\":\"cluster\",\"linkage\":\"ward\"}"))
                .status,
            400);
  // k = 0 is meaningless.
  EXPECT_EQ(
      service.handle(make_request("POST", jobs, "{\"type\":\"topk\",\"k\":0}"))
          .status,
      400);
  // Empty SPELL query.
  EXPECT_EQ(service
                .handle(make_request("POST", jobs,
                                     "{\"type\":\"spell\",\"query\":[]}"))
                .status,
            400);
  // No job was admitted by any of these.
  EXPECT_EQ(service.stats().jobs_submitted.load(), 0u);
}

TEST(Serve, ErrorStatusMapping) {
  using fv::serve::error_http_status;
  EXPECT_EQ(error_http_status(fv::InvalidArgument("x")), 400);
  EXPECT_EQ(error_http_status(fv::ParseError("x")), 400);
  EXPECT_EQ(error_http_status(fv::OverloadedError("x")), 503);
  EXPECT_EQ(error_http_status(fv::TimeoutError("x")), 504);
  EXPECT_EQ(error_http_status(fv::CorruptArtifactError("x")), 502);
  EXPECT_EQ(error_http_status(fv::CorruptMessageError("x")), 502);
  EXPECT_EQ(error_http_status(fv::StaleArtifactError("x")), 502);
  EXPECT_EQ(error_http_status(fv::IoError("x")), 500);
  EXPECT_EQ(error_http_status(fv::LogicError("x")), 500);
  EXPECT_EQ(error_http_status(fv::Error("x")), 500);
}

TEST(Serve, JobLifecycleSubmitPollFetch) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":3}"));
  EXPECT_EQ(submit.status, 202);
  const std::string job = field(submit, "job");
  EXPECT_EQ(job, "j1");
  EXPECT_EQ(field(submit, "state"), "queued");

  // Result before completion is 409 or (if the tiny job already finished)
  // 200 — never a dropped request. Poll with a bounded long-poll wait.
  // (query is a separate HttpRequest field; the socket parser splits it.)
  HttpRequest poll = make_request("GET", "/sessions/" + sid + "/jobs/" + job);
  poll.query["wait_ms"] = "30000";
  const HttpResponse status = service.handle(poll);
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(field(status, "state"), "done");

  const HttpResponse result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  EXPECT_EQ(result.status, 200);
  const JsonValue body = fv::serve::parse_json(result.body);
  EXPECT_EQ(body.find("type")->as_string(), "topk");
  EXPECT_EQ(body.find("k")->as_number(), 3.0);

  // Unknown job / wrong session are 404.
  EXPECT_EQ(service
                .handle(make_request("GET",
                                     "/sessions/" + sid + "/jobs/j999"))
                .status,
            404);
  EXPECT_EQ(
      service.handle(make_request("GET", "/sessions/s999/jobs/" + job)).status,
      404);
}

TEST(Serve, CacheHitServesIdenticalBytesWithoutRecompute) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string gene = (*fixture().datasets)[0].gene(0).systematic_name;
  const std::string params = "{\"type\":\"spell\",\"query\":[\"" + gene + "\"]}";

  const std::string first = run_to_result(service, sid, params);
  EXPECT_EQ(service.stats().computes.load(), 1u);
  EXPECT_EQ(service.stats().cache_hits.load(), 0u);

  // Same params again — even spelled differently (defaults explicit,
  // fields reordered) — must be served from the cache: born done, zero
  // extra computes, and the response bytes BIT-IDENTICAL to the cold ones.
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs",
      "{\"limit\":50,\"query\":[\"" + gene + "\"],\"type\":\"spell\"}"));
  EXPECT_EQ(submit.status, 200);
  const JsonValue submit_body = fv::serve::parse_json(submit.body);
  EXPECT_TRUE(submit_body.find("cached")->as_bool());
  EXPECT_EQ(submit_body.find("state")->as_string(), "done");

  const std::string job = submit_body.find("job")->as_string();
  const HttpResponse result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  EXPECT_EQ(result.body, first);
  EXPECT_EQ(service.stats().computes.load(), 1u);
  EXPECT_EQ(service.stats().cache_hits.load(), 1u);

  // Different params are a different cache entry.
  run_to_result(service, sid,
                "{\"type\":\"spell\",\"query\":[\"" + gene +
                    "\"],\"limit\":5}");
  EXPECT_EQ(service.stats().computes.load(), 2u);
}

TEST(Serve, ClusterJobMatchesDirectComputation) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string body = run_to_result(
      service, sid, "{\"type\":\"cluster\",\"linkage\":\"average\"}");
  const JsonValue parsed = fv::serve::parse_json(body);
  const std::size_t n = fixture().compendium.engine->size();
  EXPECT_EQ(parsed.find("n")->as_number(), static_cast<double>(n));
  ASSERT_EQ(parsed.find("merges")->items().size(), n - 1);

  // The served merges are exactly agglomerate() over the engine distances.
  fv::cluster::DistanceMatrix distances(n);
  fixture().compendium.engine->condensed_distances(distances.condensed(),
                                                   fixture().compute_pool);
  const std::vector<fv::cluster::Merge> merges = fv::cluster::agglomerate(
      std::move(distances), fv::cluster::Linkage::kAverage);
  const auto& served = parsed.find("merges")->items();
  ASSERT_EQ(served.size(), merges.size());
  for (std::size_t i = 0; i < merges.size(); ++i) {
    EXPECT_EQ(served[i].items()[0].as_number(),
              static_cast<double>(merges[i].left));
    EXPECT_EQ(served[i].items()[1].as_number(),
              static_cast<double>(merges[i].right));
    EXPECT_EQ(served[i].items()[2].as_number(), merges[i].distance);
  }
}

TEST(Serve, QueueSaturationIsTypedRejection) {
  AnalysisService::Options options;
  options.job_workers = 1;
  options.max_active_jobs = 2;
  AnalysisService service(fixture().compendium, fixture().compute_pool,
                          options);
  const std::string sid = create_session(service);
  // Three distinct jobs: with one worker and an admission bound of 2, the
  // third submit must be refused while the first two occupy the queue.
  std::vector<std::string> jobs;
  std::size_t rejected = 0;
  for (int k = 2; k <= 4; ++k) {
    const HttpResponse submit = service.handle(make_request(
        "POST", "/sessions/" + sid + "/jobs",
        "{\"type\":\"cluster\",\"linkage\":\"" +
            std::string(k == 2 ? "average" : k == 3 ? "single" : "complete") +
            "\"}"));
    if (submit.status == 503) {
      ++rejected;
      EXPECT_NE(submit.body.find("job queue full"), std::string::npos);
    } else {
      EXPECT_EQ(submit.status, 202);
      jobs.push_back(field(submit, "job"));
    }
  }
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(service.stats().jobs_rejected.load(), 1u);
  // The admitted jobs complete normally — saturation refused work, it
  // never corrupted the queue.
  for (const std::string& job : jobs) {
    service.wait_job(job, std::chrono::seconds(60));
  }
}

TEST(Serve, WaitJobTimesOutTyped) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  EXPECT_THROW(service.wait_job("j999", std::chrono::milliseconds(1)),
               fv::InvalidArgument);
}

TEST(Serve, AbandonedJobsAreReaped) {
  AnalysisService::Options options;
  options.job_ttl_requests = 3;
  AnalysisService service(fixture().compendium, fixture().compute_pool,
                          options);
  const std::string sid = create_session(service);
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":2}"));
  const std::string job = field(submit, "job");
  service.wait_job(job, std::chrono::seconds(60));

  // The client walks away: 4 requests that never touch the job.
  for (int i = 0; i < 4; ++i) {
    service.handle(make_request("GET", "/healthz"));
  }
  EXPECT_GE(service.reap_abandoned(), 1u);
  EXPECT_EQ(service
                .handle(make_request("GET",
                                     "/sessions/" + sid + "/jobs/" + job))
                .status,
            404);
  // The session itself is untouched, and its job list no longer lists it.
  const HttpResponse get = service.handle(make_request("GET", "/sessions/" + sid));
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(fv::serve::parse_json(get.body).find("jobs")->items().size(), 0u);
}

TEST(Serve, FaultInjectionIsDeterministic) {
  AnalysisService::Options options;
  options.faults.seed = 99;
  options.faults.reject_rate = 0.3;

  const auto run = [&options]() {
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    std::vector<int> statuses;
    for (int i = 0; i < 40; ++i) {
      const HttpResponse response =
          service.handle(make_request("GET", "/healthz"));
      statuses.push_back(response.status);
      if (response.status == 503) {
        EXPECT_NE(response.body.find("\"injected\":true"), std::string::npos);
      }
    }
    EXPECT_GT(service.stats().injected_rejects.load(), 0u);
    return statuses;
  };

  EXPECT_EQ(run(), run());  // same seed → same rejected request set
}

TEST(Serve, PersistentBlobCacheSurvivesRestart) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("fv_serve_blob_test." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string params = "{\"type\":\"topk\",\"k\":4,\"rows\":8}";

  std::string cold;
  {
    fv::store::ArtifactStore store(dir);
    AnalysisService::Options options;
    options.store = &store;
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    const std::string sid = create_session(service);
    cold = run_to_result(service, sid, params);
    EXPECT_EQ(service.stats().computes.load(), 1u);
  }
  {
    // A "restarted server": fresh service, same store, empty memory cache.
    fv::store::ArtifactStore store(dir);
    AnalysisService::Options options;
    options.store = &store;
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    const std::string sid = create_session(service);
    const std::string warm = run_to_result(service, sid, params);
    EXPECT_EQ(warm, cold);  // bit-identical across processes
    EXPECT_EQ(service.stats().computes.load(), 0u);
    EXPECT_EQ(service.stats().cache_hits.load(), 1u);
  }
  EXPECT_TRUE(fv::store::fsck_scan(dir).clean());
  fs::remove_all(dir);
}

TEST(Serve, HttpRoundTripOverSockets) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  fv::serve::HttpServer server(
      [&service](const HttpRequest& request) { return service.handle(request); });

  const auto exchange = [&server](const std::string& raw) {
    return fv::serve::http_exchange(server.port(), raw);
  };

  // Create a session over the wire.
  const std::string created =
      exchange("POST /sessions HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(created.find("HTTP/1.1 201 Created"), std::string::npos);
  EXPECT_NE(created.find("\"session\":\"s1\""), std::string::npos);

  // Submit + long-poll + fetch; the wire result equals the direct result.
  const std::string body = "{\"type\":\"topk\",\"k\":2,\"rows\":4}";
  const std::string submitted = exchange(
      "POST /sessions/s1/jobs HTTP/1.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);

  const std::string polled =
      exchange("GET /sessions/s1/jobs/j1?wait_ms=30000 HTTP/1.1\r\n\r\n");
  EXPECT_NE(polled.find("\"state\":\"done\""), std::string::npos);

  const std::string fetched =
      exchange("GET /sessions/s1/jobs/j1/result HTTP/1.1\r\n\r\n");
  const std::size_t split = fetched.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const std::string wire_body = fetched.substr(split + 4);
  const std::string direct = run_to_result(service, "s1", body);
  EXPECT_EQ(wire_body, direct);

  // Malformed request line → 400 from the HTTP layer itself.
  EXPECT_NE(exchange("NONSENSE\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
}

TEST(ServeJson, ParseDumpRoundTripIsCanonical) {
  const std::string canonical =
      "{\"a\":[1,2.5,true,null,\"x\"],\"b\":{\"nested\":-3}}";
  const JsonValue parsed = fv::serve::parse_json(canonical);
  EXPECT_EQ(parsed.dump(), canonical);
  // Key order in the input does not matter — dump() sorts.
  EXPECT_EQ(fv::serve::parse_json("{\"b\":1,\"a\":2}").dump(),
            "{\"a\":2,\"b\":1}");
  // Escapes round-trip.
  EXPECT_EQ(fv::serve::parse_json("\"a\\nb\\u0041\"").dump(), "\"a\\nbA\"");
}

TEST(ServeJson, MalformedInputIsTypedParseError) {
  EXPECT_THROW(fv::serve::parse_json(""), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("{"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("{}x"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("{'a':1}"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("[1,]"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("\"\\ud800\""), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("1e999"), fv::ParseError);  // infinite
  // Nesting bound: 100 levels deep must be refused, not crash the stack.
  EXPECT_THROW(
      fv::serve::parse_json(std::string(100, '[') + std::string(100, ']')),
      fv::ParseError);
}

TEST(ServeJson, NumberFormattingIsFixed) {
  EXPECT_EQ(fv::serve::format_json_number(0.0), "0");
  EXPECT_EQ(fv::serve::format_json_number(42.0), "42");
  EXPECT_EQ(fv::serve::format_json_number(-7.0), "-7");
  EXPECT_EQ(fv::serve::format_json_number(2.5), "2.5");
  // Round-trip: parse(dump(x)) == x bit-exactly.
  const double value = 0.30479964613914490;
  const std::string printed = fv::serve::format_json_number(value);
  EXPECT_EQ(fv::serve::parse_json(printed).as_number(), value);
}

TEST(ServeHttp, RequestParsing) {
  const HttpRequest request = fv::serve::parse_http_request(
      "POST /a/b?x=1&y=hello%20world HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 2\r\n"
      "\r\n"
      "{}");
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/a/b");
  EXPECT_EQ(request.query.at("x"), "1");
  EXPECT_EQ(request.query.at("y"), "hello world");
  EXPECT_EQ(request.headers.at("content-type"), "application/json");
  EXPECT_EQ(request.body, "{}");

  EXPECT_THROW(fv::serve::parse_http_request("GET\r\n\r\n"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_http_request("GET / HTTP/1.1\r\n"),
               fv::ParseError);
  EXPECT_THROW(fv::serve::parse_http_request(
                   "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
               fv::ParseError);
  EXPECT_THROW(
      fv::serve::parse_http_request(std::string(64, 'x'), /*max_bytes=*/16),
      fv::ParseError);
}

TEST(ServeHttp, ContentLengthIsParsedExactly) {
  using fv::serve::parse_http_request;
  const auto with_length = [](const std::string& header) {
    return "POST /a HTTP/1.1\r\n" + header + "\r\n\r\n{}";
  };
  // Blanks around the digits and an agreeing repeat are accepted.
  EXPECT_EQ(parse_http_request(with_length("Content-Length: \t2 ")).body,
            "{}");
  EXPECT_EQ(parse_http_request(
                with_length("content-length: 2\r\nContent-Length: 2"))
                .body,
            "{}");
  // Every other spelling is a typed parse error, never a guessed length.
  for (const char* value :
       {"-1", "+2", "2x", "0x2", "2 3", "", "1e1", "18446744073709551616",
        "99999999999999999999999999"}) {
    EXPECT_THROW(
        parse_http_request(with_length(std::string("Content-Length: ") +
                                       value)),
        fv::ParseError)
        << "Content-Length: " << value;
  }
  EXPECT_THROW(parse_http_request(
                   with_length("Content-Length: 2\r\nContent-Length: 3")),
               fv::ParseError);
  // "content-length:" outside a header name declares nothing.
  const HttpRequest request = parse_http_request(
      "GET /a?content-length:5 HTTP/1.1\r\nX-Note: content-length: 7\r\n"
      "\r\n");
  EXPECT_EQ(request.path, "/a");
  EXPECT_EQ(request.body, "");
}

TEST(ServeHttp, ListenerFramesBodiesByTheExactContentLength) {
  fv::serve::HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.body = "{\"bytes\":" + std::to_string(request.body.size()) + "}";
    return response;
  });
  const auto exchange = [&server](const std::string& raw) {
    return fv::serve::http_exchange(server.port(), raw);
  };
  const auto status_of = [](const std::string& response) {
    return response.substr(0, response.find("\r\n"));
  };
  for (const char* value :
       {"-1", "+2", "2x", "2 3", "", "18446744073709551616"}) {
    EXPECT_EQ(status_of(exchange(std::string("POST /x HTTP/1.1\r\n"
                                             "Content-Length: ") +
                                 value + "\r\n\r\n{}")),
              "HTTP/1.1 400 Bad Request")
        << "Content-Length: " << value;
  }
  EXPECT_EQ(status_of(exchange("POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
                               "Content-Length: 3\r\n\r\n{}")),
            "HTTP/1.1 400 Bad Request");
  // A query string or header value mentioning content-length used to set
  // the framed body size: the listener then waited for bytes that never
  // came and answered 413. Only the header name counts now.
  const std::string queried =
      exchange("GET /x?content-length:5 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(queried), "HTTP/1.1 200 OK");
  EXPECT_NE(queried.find("{\"bytes\":0}"), std::string::npos);
  EXPECT_EQ(status_of(exchange("GET /x HTTP/1.1\r\nX-Note: content-length: 7"
                               "\r\n\r\n")),
            "HTTP/1.1 200 OK");
  // A valid length still frames the body exactly.
  const std::string posted =
      exchange("POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
  EXPECT_NE(posted.find("{\"bytes\":2}"), std::string::npos);
  server.stop();
}

}  // namespace
