// `svc_stream` and `svc_fleet`: the diagnosis service under closed-loop
// load from three client threads, one session each.
//
// Inputs: the episodes exp::Runner::record_trace records (untimed, alarm
// threshold 2) for a seed-derived campaign scenario — a T− baseline, the
// failure round with its control-plane observations, and the diagnosis
// the recording troubleshooter produced.
//
// svc_stream, per episode: set_baseline, two failure `observe` rounds (the
// second fires the diagnosis), then `query`. Ephemeral server.
//
// svc_fleet, per episode: set_baseline, then kHealthy healthy rounds (the
// T− mesh re-observed) and kFailure failure rounds, shipped as
// `observe_batch` frames of kBatchItems items with per-source seq. Durable
// server (state dir, fsync batch). Afterwards the server is stopped and
// restarted on the same state dir several times; each restart must
// recover every session and answer `query` as before the restart.
//
// Traced, the client loop runs once untraced and once with a span around
// every call, then the workload's frames are re-run outside the server
// through the layers' public functions: the svc::serialize /
// parse_request / parse_response codec, core::Troubleshooter::observe,
// and svc::SessionJournal append and open.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/json_export.h"
#include "core/troubleshooter.h"
#include "exp/runner.h"
#include "ledger.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/trace.h"

namespace perfbench {

namespace {

using namespace netd;
namespace fs = std::filesystem;

constexpr std::size_t kClients = 3;
constexpr std::size_t kServerThreads = 4;
constexpr std::size_t kAlarmThreshold = 2;
// svc_fleet episode shape: 18 healthy + 2 failure rounds (90% healthy),
// shipped 5 rounds per observe_batch frame.
constexpr std::size_t kHealthy = 18;
constexpr std::size_t kFailure = kAlarmThreshold;
constexpr std::size_t kBatchItems = 5;
constexpr std::size_t kRounds = kHealthy + kFailure;
static_assert(kRounds % kBatchItems == 0);
// Journal records per fleet episode: set_baseline plus one per round. The
// server snapshots every kSnapshotEpisodes episodes' worth of records, and
// the clients stop only at episode kStopPhase of that cycle, so every run
// leaves the same number of records to replay after the last snapshot
// (1 hello + kStopPhase episodes) and recovery does a fixed amount of work.
constexpr std::size_t kRecordsPerEpisode = 1 + kRounds;
constexpr std::size_t kSnapshotEpisodes = 6;
constexpr std::size_t kStopPhase = 3;
/// Untimed closed-loop warm-up before the timed phase, seconds.
constexpr double kWarmupS = 3.0;

struct Episode {
  probe::Mesh before;
  probe::Mesh after;
  core::ControlPlaneObs cp;
  std::string diagnosis;  ///< what the recording troubleshooter produced
};

svc::SessionConfig session_config() {
  svc::SessionConfig c;
  c.alarm_threshold = kAlarmThreshold;
  return c;
}

std::vector<Episode> record_episodes(const Options& o, Outcome& out) {
  exp::ScenarioConfig cfg;
  cfg.seed = mix_seed(o.seed, 4, 0);
  // Episodes from many placements (frame sizes follow the placement's
  // path lengths), so one seed's inputs stay close to another's.
  cfg.num_placements = o.tiny ? 1 : 8;
  cfg.trials_per_placement = 3;
  // Bounds the untimed recording: a trial whose failures keep rerouting
  // would otherwise draw up to 60 times (a reconverge and a restore each).
  cfg.max_attempts_per_trial = 8;
  cfg.num_link_failures = 1;
  cfg.num_threads = 1;
  exp::Runner runner(cfg);
  std::ostringstream os;
  std::string error;
  std::vector<Episode> eps;
  if (!runner.record_trace(os, session_config(), &error)) {
    out.fail("record_trace: " + error);
    return eps;
  }
  std::istringstream is(os.str());
  const auto recs = svc::read_trace(is, &error);
  if (!recs) {
    out.fail("read_trace: " + error);
    return eps;
  }
  for (const svc::TraceRecord& r : *recs) {
    switch (r.type) {
      case svc::TraceRecord::Type::kConfig:
        break;
      case svc::TraceRecord::Type::kBaseline:
        eps.push_back(Episode{r.mesh, {}, {}, {}});
        break;
      case svc::TraceRecord::Type::kRound:
        // Every round of an episode repeats the same failure mesh.
        eps.back().after = r.mesh;
        eps.back().cp = r.cp.value_or(core::ControlPlaneObs{});
        break;
      case svc::TraceRecord::Type::kDiagnosis:
        eps.back().diagnosis = r.diagnosis;
        break;
    }
  }
  return eps;
}

std::string session_name(std::size_t c) { return "s" + std::to_string(c); }
std::string src_name(std::size_t c) { return "agent-" + std::to_string(c); }

const char* verb(const svc::Request& r) {
  static_assert(std::variant_size_v<svc::Request> == 9);
  static constexpr const char* kNames[] = {
      "hello", "set_baseline", "observe", "observe_batch", "query",
      "stats", "metrics",      "events",  "shutdown"};
  return kNames[r.index()];
}

/// The requests one episode sends, in order (hello excluded).
std::vector<svc::Request> episode_requests(bool fleet, const Episode& ep,
                                           std::size_t c) {
  std::vector<svc::Request> reqs;
  reqs.push_back(svc::SetBaselineRequest{session_name(c), ep.before, {}});
  if (!fleet) {
    for (std::size_t r = 0; r < kFailure; ++r) {
      reqs.push_back(svc::ObserveRequest(session_name(c), ep.after, ep.cp));
    }
    reqs.push_back(svc::QueryRequest{session_name(c), {}});
    return reqs;
  }
  for (std::size_t b = 0; b < kRounds / kBatchItems; ++b) {
    svc::ObserveBatchRequest req;
    req.session = session_name(c);
    req.src = src_name(c);
    for (std::size_t i = 0; i < kBatchItems; ++i) {
      const std::size_t seq = b * kBatchItems + i + 1;
      svc::ObserveItem item;
      item.seq = seq;
      if (seq <= kHealthy) {
        item.mesh = ep.before;
      } else {
        item.mesh = ep.after;
        item.cp = ep.cp;
      }
      req.items.push_back(std::move(item));
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// Checks one response against what the recording implies. Returns an
/// error description, or "" when it is right.
std::string check_response(bool fleet, const Episode& ep, std::size_t call,
                           const svc::Response& rsp, std::uint64_t* deduped) {
  if (const auto* e = std::get_if<svc::ErrorResponse>(&rsp)) {
    return "error response: " + e->message;
  }
  if (call == 0) {
    const auto* r = std::get_if<svc::SetBaselineResponse>(&rsp);
    return r != nullptr && r->pairs == ep.before.paths.size()
               ? ""
               : "bad set_baseline response";
  }
  const std::size_t last = fleet ? kRounds / kBatchItems : kFailure;
  const bool fires = call == last;
  std::optional<std::string> got;
  if (fleet) {
    const auto* r = std::get_if<svc::ObserveBatchResponse>(&rsp);
    if (r == nullptr) return "bad observe_batch response";
    *deduped += r->deduped;
    if (r->applied != kBatchItems || r->ack != call * kBatchItems) {
      return "observe_batch applied/ack mismatch";
    }
    got = r->diagnosis;
  } else if (call <= kFailure) {
    const auto* r = std::get_if<svc::ObserveResponse>(&rsp);
    if (r == nullptr || r->round != call) return "bad observe response";
    got = r->diagnosis;
  } else {
    const auto* r = std::get_if<svc::QueryResponse>(&rsp);
    if (r == nullptr || r->round != kFailure) return "bad query response";
    got = r->diagnosis;
    if (!got || *got != ep.diagnosis) return "query diagnosis differs";
    return "";
  }
  if (got.has_value() != fires) return "diagnosis fired on the wrong round";
  if (fires && *got != ep.diagnosis) {
    return "diagnosis differs from the recording";
  }
  return "";
}

svc::Server::Options server_options(const Options& o, const std::string& sock,
                                    const std::string& state_dir) {
  svc::Server::Options so;
  so.endpoint.kind = svc::Endpoint::Kind::kUnix;
  so.endpoint.path = sock;
  so.num_threads = kServerThreads;
  if (!state_dir.empty()) {
    so.state_dir = state_dir;
    so.fsync = svc::FsyncPolicy::kBatch;
    so.snapshot_every = kSnapshotEpisodes * kRecordsPerEpisode;
  }
  if (o.inject == Inject::kDropResponse) {
    so.fault_plan.seed = o.seed;
    so.fault_plan.drop_prob = 0.05;
  }
  return so;
}

svc::Client::Options client_options(const Options& o) {
  svc::Client::Options co;
  co.connect_timeout_ms = 5000;
  co.request_timeout_ms = o.inject == Inject::kDropResponse ? 1000 : 30000;
  return co;
}

/// What one client thread saw.
struct ClientRun {
  std::vector<double> op_ms;     ///< observe (stream) / observe_batch (fleet)
  std::vector<double> query_ms;  ///< stream only
  std::size_t rounds = 0;
  std::size_t episodes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t deduped = 0;
  std::vector<std::string> errors;
  /// Request + response frame bytes of every call, newline included.
  std::uint64_t wire_bytes = 0;
  /// Responses of the first visit of each episode, for the codec replay.
  std::vector<std::vector<svc::Response>> first_rsp;
};

/// Closed loop: each call waits for its reply. Client `c` starts at
/// episode c·n/kClients and cycles; it stops at the deadline (fleet: at
/// the first episode boundary on the snapshot-aligned stop phase after it).
void client_loop(bool fleet, const Options& o, const std::vector<Episode>& eps,
                 std::size_t c, svc::Client& client, Clock::time_point deadline,
                 Ledger& led, ClientRun& run) {
  run.first_rsp.assign(eps.size(), {});
  std::vector<std::size_t> visits(eps.size(), 0);
  std::vector<std::uint64_t> bytes(eps.size(), 0);
  bool corrupt_pending = o.inject == Inject::kCorruptDiagnosis && c == 0;
  led.begin();
  for (std::size_t k = c * eps.size() / kClients;; ++k) {
    const std::size_t e = k % eps.size();
    const Episode& ep = eps[e];
    std::vector<svc::Request> reqs = episode_requests(fleet, ep, c);
    for (std::size_t call = 0; call < reqs.size(); ++call) {
      const svc::Request& req = reqs[call];
      const char* span_name = "svc.call.set_baseline";
      if (call > 0) {
        span_name = fleet ? "svc.call.observe_batch"
                    : call <= kFailure ? "svc.call.observe"
                                       : "svc.call.query";
      }
      std::string error;
      const auto t0 = Clock::now();
      std::optional<svc::Response> rsp;
      {
        auto sp = led.span(span_name);
        rsp = client.call(req, &error);
      }
      const double ms = ms_since(t0);
      ++run.attempted;
      if (!rsp) {
        run.errors.push_back("client " + std::to_string(c) + ": " + error);
        led.end();
        return;  // the connection is gone; stop this client
      }
      if (corrupt_pending) {
        // Self-test: corrupt the first diagnosis this client receives.
        std::optional<std::string>* d = nullptr;
        if (auto* r = std::get_if<svc::ObserveResponse>(&*rsp)) {
          d = &r->diagnosis;
        } else if (auto* b = std::get_if<svc::ObserveBatchResponse>(&*rsp)) {
          d = &b->diagnosis;
        }
        if (d != nullptr && d->has_value() && !(*d)->empty()) {
          (**d)[(*d)->size() / 2] ^= 0x01;
          corrupt_pending = false;
        }
      }
      const std::string bad = check_response(fleet, ep, call, *rsp,
                                             &run.deduped);
      if (!bad.empty()) {
        run.errors.push_back("client " + std::to_string(c) + " episode " +
                             std::to_string(e) + " call " +
                             std::to_string(call) + ": " + bad);
      }
      if (call > 0 && (fleet || call <= kFailure)) {
        run.op_ms.push_back(ms);
      } else if (call > 0) {
        run.query_ms.push_back(ms);
      }
      if (visits[e] == 0) {
        bytes[e] += svc::serialize(req).size() + svc::serialize(*rsp).size() + 2;
        run.first_rsp[e].push_back(std::move(*rsp));
      }
    }
    ++visits[e];
    ++run.episodes;
    run.rounds += fleet ? kRounds : kFailure;
    if (Clock::now() >= deadline &&
        (!fleet || o.tiny ||
         run.episodes % kSnapshotEpisodes == kStopPhase)) {
      break;
    }
  }
  led.end();
  for (std::size_t e = 0; e < eps.size(); ++e) {
    run.wire_bytes += visits[e] * bytes[e];
  }
}

struct Phase {
  double wall_ms = 0.0;
  std::vector<ClientRun> runs;
  [[nodiscard]] std::size_t rounds() const {
    std::size_t n = 0;
    for (const auto& r : runs) n += r.rounds;
    return n;
  }
  [[nodiscard]] std::vector<double> op_ms() const {
    std::vector<double> v;
    for (const auto& r : runs) v.insert(v.end(), r.op_ms.begin(), r.op_ms.end());
    return v;
  }
  [[nodiscard]] std::vector<double> query_ms() const {
    std::vector<double> v;
    for (const auto& r : runs) {
      v.insert(v.end(), r.query_ms.begin(), r.query_ms.end());
    }
    return v;
  }
};

Phase run_phase(bool fleet, const Options& o, const std::vector<Episode>& eps,
                std::vector<svc::Client>& clients, double seconds,
                std::vector<Ledger>& ledgers, Outcome& out) {
  Phase ph;
  ph.runs.resize(kClients);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(fleet, o, eps, c, clients[c], deadline, ledgers[c],
                  ph.runs[c]);
    });
  }
  for (auto& t : threads) t.join();
  ph.wall_ms = ms_since(t0);
  for (const ClientRun& r : ph.runs) {
    out.attempted += r.attempted;
    for (const auto& e : r.errors) out.fail(e);
  }
  return ph;
}

/// A running server with one connected, hello'd client per session.
struct Deployment {
  std::unique_ptr<svc::Server> server;
  std::vector<svc::Client> clients;

  void stop() {
    for (auto& c : clients) c.close();
    clients.clear();
    if (server) server->stop();
    server.reset();
  }
};

/// Starts a server and says hello on every session; `ms` gets the set-up
/// time (server start until every hello is answered).
bool deploy(const Options& o, const std::string& sock,
            const std::string& state_dir, Deployment& d, double* ms,
            Outcome& out) {
  const auto t0 = Clock::now();
  std::string error;
  d.server = std::make_unique<svc::Server>(server_options(o, sock, state_dir));
  if (!d.server->start(&error)) {
    out.fail("server start: " + error);
    return false;
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    auto client =
        svc::Client::connect(d.server->endpoint(), client_options(o), &error);
    ++out.attempted;
    if (!client) {
      out.fail("connect: " + error);
      return false;
    }
    svc::HelloResponse hello;
    if (!svc::expect_response(
            client->call(svc::HelloRequest{session_name(c), session_config(),
                                           {}},
                         &error),
            &hello, &error)) {
      out.fail("hello: " + error);
      return false;
    }
    d.clients.push_back(std::move(*client));
  }
  *ms = ms_since(t0);
  return true;
}

/// Per-verb codec costs over the frames client 0 exchanged on its first
/// visit of each episode, re-run outside the server `reps` times.
void codec_layers(bool fleet, const std::vector<Episode>& eps,
                  const ClientRun& run0, std::size_t reps, Ledger& led,
                  Outcome& out) {
  struct Acc {
    double ser_req = 0, parse_req = 0, ser_rsp = 0, parse_rsp = 0;
    double bytes = 0;
    std::size_t n = 0;
  };
  std::map<std::string, Acc> acc;
  std::vector<std::pair<svc::Request, svc::Response>> frames;
  frames.emplace_back(
      svc::HelloRequest{session_name(0), session_config(), {}},
      svc::HelloResponse{session_name(0), true, session_config(), 0});
  for (std::size_t e = 0; e < eps.size(); ++e) {
    const auto& rsps = run0.first_rsp[e];
    std::vector<svc::Request> reqs = episode_requests(fleet, eps[e], 0);
    for (std::size_t i = 0; i < rsps.size() && i < reqs.size(); ++i) {
      frames.emplace_back(std::move(reqs[i]), rsps[i]);
    }
  }
  std::string error;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const auto& [req, rsp] : frames) {
      Acc& a = acc[verb(req)];
      std::string req_frame;
      std::string rsp_frame;
      auto t0 = Clock::now();
      {
        auto sp = led.span("codec.serialize_request");
        req_frame = svc::serialize(req);
      }
      auto t1 = Clock::now();
      {
        auto sp = led.span("codec.parse_request");
        if (!svc::parse_request(req_frame, &error)) out.fail(error);
      }
      auto t2 = Clock::now();
      {
        auto sp = led.span("codec.serialize_response");
        rsp_frame = svc::serialize(rsp);
      }
      auto t3 = Clock::now();
      {
        auto sp = led.span("codec.parse_response");
        if (!svc::parse_response(rsp_frame, &error)) out.fail(error);
      }
      auto t4 = Clock::now();
      a.ser_req += ms_between(t0, t1) * 1e3;
      a.parse_req += ms_between(t1, t2) * 1e3;
      a.ser_rsp += ms_between(t2, t3) * 1e3;
      a.parse_rsp += ms_between(t3, t4) * 1e3;
      a.bytes += static_cast<double>(req_frame.size() + rsp_frame.size() + 2);
      ++a.n;
    }
  }
  for (const auto& [v, a] : acc) {
    const double n = static_cast<double>(a.n);
    out.set("codec.serialize_request_us." + v, a.ser_req / n);
    out.set("codec.parse_request_us." + v, a.parse_req / n);
    out.set("codec.serialize_response_us." + v, a.ser_rsp / n);
    out.set("codec.parse_response_us." + v, a.parse_rsp / n);
    out.set("codec.frame_bytes." + v, a.bytes / n);
  }
}

/// core::Troubleshooter::observe on the workload's rounds; checks each
/// diagnosis against the recording. Returns mean µs per observe.
double core_layer(bool fleet, const std::vector<Episode>& eps, Ledger& led,
                  Outcome& out) {
  const auto resolved = session_config().resolve(nullptr);
  core::Troubleshooter ts(*resolved);
  std::vector<double> us;
  std::size_t diagnoses = 0;
  for (const Episode& ep : eps) {
    ts.set_baseline(ep.before);
    const std::size_t healthy = fleet ? kHealthy : 0;
    for (std::size_t r = 0; r < healthy + kFailure; ++r) {
      const bool failing = r >= healthy;
      const auto t0 = Clock::now();
      std::optional<core::AlgorithmOutput> fired;
      {
        auto sp = led.span("core.observe");
        fired = failing ? ts.observe(ep.after, &ep.cp) : ts.observe(ep.before);
      }
      us.push_back(ms_since(t0) * 1e3);
      if (fired) {
        ++diagnoses;
        ++out.attempted;
        if (core::to_json(fired->graph, fired->result) != ep.diagnosis) {
          out.fail("in-process diagnosis differs from the recording");
        }
      }
    }
  }
  out.set("core.observe_us", mean(us));
  out.set("core.diagnoses", static_cast<double>(diagnoses));
  return mean(us);
}

/// SessionJournal::append on per-round payloads (mesh_to_json, as the
/// server journals rounds) into a fresh journal; then SessionJournal::open
/// on a copy of a session directory the fleet server left. Returns mean
/// µs per append.
double journal_layer(const Options& o, const std::vector<Episode>& eps,
                     const std::string& session_dir, Ledger& led,
                     Outcome& out) {
  std::string error;
  svc::SessionJournal::Options jo;
  jo.dir = o.work_dir + "/journal-layer";
  jo.fsync = svc::FsyncPolicy::kBatch;
  jo.snapshot_every = static_cast<std::size_t>(-1);
  auto journal = svc::SessionJournal::open(jo, &error);
  if (!journal) {
    out.fail("journal open: " + error);
    return 0.0;
  }
  std::vector<double> us;
  for (const Episode& ep : eps) {
    const std::string healthy = svc::mesh_to_json(ep.before).dump();
    const std::string failing = svc::mesh_to_json(ep.after).dump();
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::string& payload = r < kHealthy ? healthy : failing;
      const auto t0 = Clock::now();
      auto sp = led.span("journal.append");
      if (journal->append(payload, &error) == 0) out.fail(error);
      us.push_back(ms_since(t0) * 1e3);
    }
  }
  journal.reset();
  out.set("journal.append_us", mean(us));
  out.set("journal.records", static_cast<double>(us.size()));

  std::vector<double> open_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string copy = o.work_dir + "/journal-copy";
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::copy(session_dir, copy, fs::copy_options::recursive, ec);
    if (ec) {
      out.fail("copy " + session_dir + ": " + ec.message());
      return mean(us);
    }
    svc::SessionJournal::Options co;
    co.dir = copy;
    co.snapshot_every = kSnapshotEpisodes * kRecordsPerEpisode;
    const auto t0 = Clock::now();
    std::unique_ptr<svc::SessionJournal> reopened;
    {
      auto sp = led.span("journal.open");
      reopened = svc::SessionJournal::open(co, &error);
    }
    open_ms.push_back(ms_since(t0));
    if (!reopened) out.fail("journal reopen: " + error);
  }
  out.set("journal.open_ms", median(open_ms));
  return mean(us);
}

std::vector<svc::QueryResponse> query_all(const Options& o,
                                          const svc::Endpoint& ep,
                                          Outcome& out) {
  std::vector<svc::QueryResponse> answers(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    std::string error;
    ++out.attempted;
    auto client = svc::Client::connect(ep, client_options(o), &error);
    if (!client ||
        !svc::expect_response(
            client->call(svc::QueryRequest{session_name(c), {}}, &error),
            &answers[c], &error)) {
      out.fail("query " + session_name(c) + ": " + error);
    }
  }
  return answers;
}

Outcome run_service(bool fleet, const Options& o) {
  Outcome out;
  const std::vector<Episode> eps = record_episodes(o, out);
  if (eps.empty()) {
    if (out.failed == 0) out.fail("recording produced no episodes");
    return out;
  }
  const std::string sock = o.work_dir + "/svc.sock";

  std::vector<Ledger> off;
  std::vector<Ledger> on;
  for (std::size_t c = 0; c < kClients; ++c) {
    off.emplace_back(false, 0);
    on.emplace_back(true, static_cast<std::uint32_t>(c + 1));
  }

  // Set-up, several times: server start until every hello is answered.
  // Deployment 0 is not timed: the clients warm up on it, because after
  // the host has been idle the closed loop (set-up included) ran up to 3x
  // slower for its first seconds. Its state dir is removed with it, so
  // the fleet's snapshot-aligned stop is unchanged.
  const std::size_t setups = o.tiny ? 2 : 101;
  std::vector<double> setup_ms;
  Deployment d;
  std::string state_dir;
  for (std::size_t i = 0; i <= setups; ++i) {
    d.stop();
    std::error_code ec;
    if (!state_dir.empty()) fs::remove_all(state_dir, ec);
    // Hand the warm-up's freed heap back to the system, so that peak RSS
    // does not depend on how the warm-up left the heap fragmented.
    if (i == 1) malloc_trim(0);
    if (fleet) state_dir = o.work_dir + "/state-" + std::to_string(i);
    double ms = 0.0;
    if (!deploy(o, sock, state_dir, d, &ms, out)) {
      d.stop();
      return out;
    }
    if (i > 0) {
      setup_ms.push_back(ms);
    } else if (!o.tiny) {
      run_phase(fleet, o, eps, d.clients, kWarmupS, off, out);
    }
  }

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const Phase ph = run_phase(fleet, o, eps, d.clients, budget, off, out);
  std::optional<Phase> traced;
  if (o.trace) traced = run_phase(fleet, o, eps, d.clients, budget, on, out);

  std::vector<svc::QueryResponse> before_restart;
  if (fleet) before_restart = query_all(o, d.server->endpoint(), out);
  d.stop();

  const double rounds = static_cast<double>(ph.rounds());
  const double rps = rounds / (ph.wall_ms / 1e3);
  const std::vector<double> op_ms = ph.op_ms();
  const char* op = fleet ? "observe_batch" : "observe";
  std::uint64_t wire = 0;
  std::uint64_t deduped = 0;
  for (const ClientRun& r : ph.runs) {
    wire += r.wire_bytes;
    deduped += r.deduped;
  }

  if (!o.trace) {
    const double p50 = quantile(op_ms, 0.5);
    const double iqm = interquartile_mean(op_ms);
    const double p90 = quantile(op_ms, 0.9);
    const double p99 = quantile(op_ms, 0.99);
    out.set("setup_s", median(setup_ms) / 1e3);
    out.set("ops_per_s", rps);
    out.set("op_ms_iqm", iqm);
    // The gated tail is p90: on a shared host, p99 of the same 15 s closed
    // loop moved 2x between identical runs (interference from other
    // tenants).
    out.set("op_ms_tail", p90);
    out.show("setup_s", median(setup_ms) / 1e3, "s");
    out.show("rounds_per_s", rps, "1/s");
    // observe_ms_* time `observe` calls on svc_stream and `observe_batch`
    // calls on svc_fleet.
    out.show("observe_ms_p50", p50, "ms");
    out.show("observe_ms_iqm", iqm, "ms");
    out.show("observe_ms_p90", p90, "ms");
    out.show("observe_ms_p99", p99, "ms");
    if (!fleet) {
      out.show("query_ms_p50", quantile(ph.query_ms(), 0.5), "ms");
      out.show("query_ms_p99", quantile(ph.query_ms(), 0.99), "ms");
    }
    out.show("wire_bytes_per_round", static_cast<double>(wire) / rounds,
             "bytes");
    out.show(std::string(op) + "_calls", static_cast<double>(op_ms.size()),
             "count");
  }

  if (fleet && !o.trace) {
    // WAL bytes per applied round: bytes per record over the segments
    // the run left, times the records each round costs (set_baseline
    // records amortised over the episode's rounds).
    std::uint64_t seg_bytes = 0;
    std::uint64_t seg_records = 0;
    for (const std::string& name : svc::list_session_dirs(state_dir)) {
      const svc::Inspection in =
          svc::inspect_session_dir(state_dir + "/sessions/" + name);
      for (const auto& s : in.segments) {
        seg_bytes += s.scan.good_bytes;
        seg_records += s.scan.records;
      }
    }
    const double per_record = static_cast<double>(seg_bytes) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  seg_records, 1));
    out.show("journal_bytes_per_round",
             per_record * static_cast<double>(kRecordsPerEpisode) /
                 static_cast<double>(kRounds),
             "bytes");

    // Restart on the same state dir: recover, then one query per session.
    std::vector<double> recover_ms;
    const std::size_t restarts = o.tiny ? 1 : 5;
    for (std::size_t i = 0; i < restarts; ++i) {
      const auto t0 = Clock::now();
      svc::Server server(server_options(o, sock, state_dir));
      std::string error;
      if (!server.start(&error)) {
        out.fail("restart: " + error);
        break;
      }
      const auto after = query_all(o, server.endpoint(), out);
      recover_ms.push_back(ms_since(t0));
      server.stop();
      for (std::size_t c = 0; c < kClients; ++c) {
        ++out.attempted;
        if (after[c].round != before_restart[c].round ||
            after[c].diagnosis != before_restart[c].diagnosis) {
          out.fail("post-restart query of " + session_name(c) +
                   " differs from the pre-restart answer");
        }
      }
    }
    out.show("recover_s", median(recover_ms) / 1e3, "s");
  }

  if (o.trace) {
    Ledger led(true, 0);
    led.begin();
    codec_layers(fleet, eps, traced->runs[0], o.tiny ? 1 : 3, led, out);
    const double core_us = core_layer(fleet, eps, led, out);
    double journal_us = 0.0;
    if (fleet) {
      const auto dirs = svc::list_session_dirs(state_dir);
      if (dirs.empty()) {
        out.fail("fleet state dir holds no session");
      } else {
        journal_us = journal_layer(o, eps, state_dir + "/sessions/" +
                                               dirs.front(), led, out);
      }
    }
    led.end();
    // Derived, not measured: what a client call costs beyond the codec,
    // the troubleshooter and the journal — socket, dispatch, locks and
    // the metrics store.
    const std::string v = op;
    const double codec_us = out.values["codec.serialize_request_us." + v] +
                            out.values["codec.parse_request_us." + v] +
                            out.values["codec.serialize_response_us." + v] +
                            out.values["codec.parse_response_us." + v];
    const double items = fleet ? static_cast<double>(kBatchItems) : 1.0;
    out.set("svc.dispatch_us",
            mean(op_ms) * 1e3 - codec_us - items * (core_us + journal_us));
    out.set("svc.batch_deduped", static_cast<double>(deduped));
    const double traced_rps =
        static_cast<double>(traced->rounds()) / (traced->wall_ms / 1e3);
    out.set("trace_overhead_frac", rps / traced_rps - 1.0);
    std::vector<const Ledger*> all = {&led};
    for (const Ledger& l : on) all.push_back(&l);
    out.profile = profile_table(all);
    if (!o.trace_out.empty()) {
      std::string error;
      if (!write_chrome_trace(o.trace_out, all, &error)) out.fail(error);
    }
  }
  ++out.attempted;
  if (deduped != 0) {
    out.fail(std::to_string(deduped) + " batch items deduplicated");
  }

  out.show("failed_frac",
           static_cast<double>(out.failed) /
               static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
           "ratio");
  out.set("peak_rss_mib", peak_rss_mib());
  out.show("peak_rss_mib", peak_rss_mib(), "MiB");
  return out;
}

}  // namespace

Outcome run_svc_stream(const Options& opts) {
  return run_service(/*fleet=*/false, opts);
}

Outcome run_svc_fleet(const Options& opts) {
  return run_service(/*fleet=*/true, opts);
}

}  // namespace perfbench
