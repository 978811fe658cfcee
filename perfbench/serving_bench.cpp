// Open-loop serving benchmark of the live request path.
//
// Starts the real server::Server over a real SearchService fixture in this
// process and drives it open-loop through server::Client: requests are due
// on a Poisson schedule drawn from the seed, at most kClients are in
// flight (one connection and one thread each), and every request is timed
// from its due time, so a stall also charges the requests queued behind
// it. Every full-tier or fresh cached answer is checked against the exact
// top-k computed on the same service before the timed phase.
//
//   serving_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//   serving_bench --selftest
//
// Prints one JSON object (the whole result, every metric with its unit and
// sample count) as the last line of stdout. perfbench/run.py builds this
// program, runs it and reduces that object to the benchmark contract.
// Workloads, metric definitions and the known-defect register are in
// perfbench/NOTES.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <sys/prctl.h>

#include "common/rng.h"
#include "common/sharded_executor.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/zipf.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "services/search/query_cache.h"
#include "services/search/service.h"
#include "workload/corpus.h"

#include "trace.h"

namespace perfbench {
namespace {

using namespace at;
namespace protocol = at::server::protocol;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kK = 10;                  // service and request k
constexpr std::size_t kCalibrationQueries = 16;  // as in bench_serving
constexpr int kSetupRepeats = 3;                 // setup_s is their median
constexpr double kWarmupSeconds = 1.0;
// Traced-run replay sizes: bounded so a traced run stays within ~2 s of
// replay work on the large corpus.
constexpr std::size_t kReplayQueries = 1000;
constexpr std::size_t kSynopsisReplayQueries = 200;
constexpr std::size_t kUpdateReplays = 12;
// Tolerances of the traced run's consistency checks (see NOTES.md).
constexpr double kNestingToleranceMs = 0.01;
constexpr double kRttAccountingTolerancePct = 25.0;

std::size_t client_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class QueryMix {
  kZipfPool,  // Zipf-drawn from a fixed pool: repeats hit the answer cache
  kDistinct,  // every query new: no cache hits
};

struct WorkloadSpec {
  std::string name;
  workload::CorpusConfig corpus;
  double slo_ms = 100.0;
  double read_rate = 0.0;  // Poisson arrivals per second
  QueryMix mix = QueryMix::kDistinct;
  std::size_t pool_size = 0;
  double zipf_s = 0.0;
  double update_rate = 0.0;  // evenly spaced op-5 updates per second
  std::uint32_t update_adds = 4;
  std::uint32_t update_changes = 4;
  // Read-only workloads keep one data epoch, so their answers are gated
  // against exact top-k and their accuracy loss is measured.
  bool read_only() const { return update_rate == 0.0; }
};

workload::CorpusConfig small_corpus() {
  // bench_common.h's default corpus.
  workload::CorpusConfig cfg;
  cfg.num_components = 12;
  cfg.docs_per_component = 400;
  cfg.vocab_size = 4000;
  cfg.num_topics = 24;
  cfg.topic_vocab = 100;
  cfg.seed = 20160816;
  return cfg;
}

workload::CorpusConfig large_corpus() {
  workload::CorpusConfig cfg = small_corpus();
  cfg.num_components = 16;
  cfg.docs_per_component = 10000;
  cfg.vocab_size = 20000;
  cfg.num_topics = 64;
  return cfg;
}

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "rpc-small") {
    // Pool and skew sized so that about half the requests hit the
    // server's 4096-entry answer cache over a 10 s run.
    w.corpus = small_corpus();
    w.read_rate = 3000.0;
    w.mix = QueryMix::kZipfPool;
    w.pool_size = 30000;
    w.zipf_s = 0.8;
  } else if (name == "scan-large") {
    w.corpus = large_corpus();
    w.read_rate = 2000.0;
  } else if (name == "update-mix") {
    w.corpus = large_corpus();
    w.read_rate = 1000.0;
    // Sized so that about 30% of reads hit the cache between publishes,
    // well clear of the 50% at which latency_p50_ms would sit on the
    // boundary between cached and scanned answers (a 256-query pool put
    // it there: 51% cached).
    w.mix = QueryMix::kZipfPool;
    w.pool_size = 2048;
    w.zipf_s = 0.9;
    // Low enough that fewer than half the reads queue behind an update:
    // at 10/s about 40-50% did, and latency_p50_ms flipped between the
    // unqueued (~0.5 ms) and queued (~5 ms) modes from run to run.
    w.update_rate = 6.0;
  } else if (name == "overload") {
    w.corpus = large_corpus();
    w.read_rate = 10000.0;
    w.slo_ms = 10.0;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// Executor, service and started server. Members are destroyed in reverse
/// order: the server stops before the service and executor it uses.
struct Stack {
  std::unique_ptr<common::ShardedExecutor> exec;
  std::unique_ptr<search::SearchService> svc;
  std::unique_ptr<server::Server> srv;
  double build_s = 0.0;   // corpus + components + synopses + service
  double start_ms = 0.0;  // Server::start, calibration included

  static std::unique_ptr<Stack> build(const WorkloadSpec& spec) {
    auto st = std::make_unique<Stack>();
    common::Stopwatch sw;
    st->exec = std::make_unique<common::ShardedExecutor>();
    common::ShardedExecutor& exec = *st->exec;
    const workload::CorpusGen gen(spec.corpus);
    auto wl = gen.generate(kCalibrationQueries);
    // As bench_common.h's sharded fixture: each component is built on its
    // home group and the executor is installed on the service.
    const std::size_t n = wl.shards.size();
    std::vector<std::optional<search::SearchComponent>> built(n);
    std::vector<std::uint64_t> bases(n);
    std::uint64_t base = 0;
    for (std::size_t c = 0; c < n; ++c) {
      bases[c] = base;
      base += wl.shards[c].rows();
    }
    synopsis::BuildConfig bcfg;
    bcfg.svd.rank = 3;
    bcfg.svd.epochs_per_dim = 60;
    bcfg.size_ratio = 12.0;
    exec.for_each_shard(n, [&](std::size_t c) {
      built[c].emplace(std::move(wl.shards[c]), bases[c], bcfg,
                       search::ScorerParams{},
                       &exec.group(exec.home_group(c)));
    });
    std::vector<search::SearchComponent> comps;
    comps.reserve(n);
    for (auto& b : built) comps.push_back(std::move(*b));
    st->svc = std::make_unique<search::SearchService>(std::move(comps), kK);
    st->svc->set_executor(&exec);
    st->build_s = sw.elapsed_seconds();

    server::ServerConfig scfg;
    scfg.calibration_queries = wl.queries;
    st->srv = std::make_unique<server::Server>(*st->svc, nullptr, exec, scfg);
    sw.reset();
    st->srv->start();
    st->start_ms = sw.elapsed_ms();
    return st;
  }
};

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint32_t>& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint32_t t : k) h = (h ^ t) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};

/// Query table of a run plus the draw that picks the next one. Queries are
/// distinct by canonical key, so a query id is also a cache key.
class QuerySource {
 public:
  QuerySource(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec), gen_(spec.corpus), rng_(seed) {
    if (spec_.mix == QueryMix::kZipfPool) {
      while (queries_.size() < spec_.pool_size) add_distinct();
      zipf_.emplace(spec_.pool_size, spec_.zipf_s);
    }
  }

  std::uint32_t next() {
    if (zipf_) return static_cast<std::uint32_t>(zipf_->sample(rng_));
    return add_distinct();
  }

  const std::vector<search::SearchRequest>& queries() const {
    return queries_;
  }

 private:
  std::uint32_t add_distinct() {
    for (;;) {
      search::SearchRequest q = gen_.sample_query(rng_);
      if (!seen_.insert(search::QueryCache::canonical_key(q.terms)).second)
        continue;
      queries_.push_back(std::move(q));
      return static_cast<std::uint32_t>(queries_.size() - 1);
    }
  }

  const WorkloadSpec& spec_;
  workload::CorpusGen gen_;
  common::Rng rng_;
  std::optional<common::ZipfDistribution> zipf_;
  std::vector<search::SearchRequest> queries_;
  std::unordered_set<std::vector<std::uint32_t>, KeyHash> seen_;
};

struct Item {
  double due_ms = 0.0;  // offset from the phase start
  bool update = false;
  std::uint32_t query = 0;
  std::uint32_t component = 0;
  std::uint64_t update_seed = 0;
};

/// Poisson reads plus evenly spaced updates (rotating over components),
/// all due within [0, window).
std::vector<Item> make_schedule(const WorkloadSpec& spec, double seconds,
                                QuerySource& src, common::Rng& rng,
                                std::uint32_t* next_component) {
  std::vector<Item> items;
  const double window_ms = seconds * 1e3;
  for (double t = rng.exponential(spec.read_rate) * 1e3; t < window_ms;
       t += rng.exponential(spec.read_rate) * 1e3) {
    Item it;
    it.due_ms = t;
    it.query = src.next();
    items.push_back(it);
  }
  if (spec.update_rate > 0.0) {
    const double gap_ms = 1e3 / spec.update_rate;
    for (double t = 0.5 * gap_ms; t < window_ms; t += gap_ms) {
      Item it;
      it.due_ms = t;
      it.update = true;
      it.component = (*next_component)++ %
                     static_cast<std::uint32_t>(spec.corpus.num_components);
      it.update_seed = rng();
      items.push_back(it);
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                       return a.due_ms < b.due_ms;
                     });
  }
  return items;
}

using ExactTable = std::vector<std::optional<std::vector<search::ScoredDoc>>>;

/// Exact top-k, on the service under test, of every query `items` will
/// send that the table does not hold yet. Runs on a few threads; the
/// service is not serving during this.
void compute_exact(const search::SearchService& svc,
                   const std::vector<search::SearchRequest>& queries,
                   const std::vector<Item>& items, ExactTable* table) {
  table->resize(queries.size());
  std::vector<std::uint32_t> todo;
  std::vector<char> queued(queries.size(), 0);
  for (const Item& it : items) {
    if (it.update || (*table)[it.query] || queued[it.query]) continue;
    queued[it.query] = 1;
    todo.push_back(it.query);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < client_threads(); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < todo.size();
           i = next.fetch_add(1)) {
        (*table)[todo[i]] = svc.exact_topk(queries[todo[i]]);
      }
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t {
  kDropped,   // no client was free within the SLO of its due time
  kAnswered,  // status kOk
  kShed,      // status kShed
  kError,     // status kError / kBadRequest
  kFailed,    // transport failure
};

struct Outcome {
  Kind kind = Kind::kDropped;
  protocol::Tier tier = protocol::Tier::kNone;
  bool admission_shed = false;  // shed at enqueue (server_ms == 0)
  double lag_ms = 0.0;          // send time - due time
  double rtt_ms = 0.0;          // Client::call duration
  double latency_ms = kInf;     // response time - due time (answered)
  double server_ms = 0.0;
  double est_loss_pct = 0.0;
  std::vector<search::ScoredDoc> docs;
  std::string text;  // update report JSON
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double stop_ms = 0.0;  // last response, from the phase start
  server::ClientStats client;  // summed over the clients
  double response_bytes_sum = 0.0;
  std::uint64_t responses_encoded = 0;
  std::uint64_t epoch_live_max = 0;
};

std::uint32_t deadline_for(double slo_ms, double lag_ms) {
  return static_cast<std::uint32_t>(
      std::max(1.0, std::round(slo_ms - lag_ms)));
}

/// Sends `items` open-loop: request i is sent at its due time, or as soon
/// as a client is free after it. A request no client could take within
/// the SLO of its due time is dropped (it could no longer be answered in
/// time; sending it would only delay the requests behind it). With `log`
/// set, spans are recorded around each call and its protocol encode and
/// decode.
PhaseResult run_open_loop(const Stack& st, const WorkloadSpec& spec,
                          const std::vector<search::SearchRequest>& queries,
                          const std::vector<Item>& items, std::uint64_t seed,
                          SpanLog* log) {
  PhaseResult res;
  res.outcomes.resize(items.size());
  const std::size_t nclients = client_threads();
  std::vector<std::unique_ptr<server::Client>> clients;
  for (std::size_t id = 0; id < nclients; ++id) {
    server::ClientConfig cc;
    cc.port = st.srv->port();
    cc.max_retries = 0;  // a shed is a miss; backoff stays at its default
    cc.jitter_seed = seed ^ (0x9e3779b97f4a7c15ULL * (id + 1));
    clients.push_back(std::make_unique<server::Client>(cc));
    std::string err;
    if (!clients.back()->connect(&err))
      throw std::runtime_error("client connect failed: " + err);
  }

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<std::size_t> next{0};
  std::vector<SpanLog> logs;
  if (log != nullptr) {
    for (std::size_t id = 0; id < nclients; ++id)
      logs.emplace_back(log->origin(), id + 8);
  }
  std::vector<double> bytes(nclients, 0.0);
  std::vector<std::uint64_t> encoded(nclients, 0);

  auto client_loop = [&](std::size_t id) {
    // Wake at the due time, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    server::Client& client = *clients[id];
    SpanLog* tl = log != nullptr ? &logs[id] : nullptr;
    for (std::size_t i = next.fetch_add(1); i < items.size();
         i = next.fetch_add(1)) {
      const Item& it = items[i];
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       it.due_ms));
      std::this_thread::sleep_until(due);
      const auto t_send = Clock::now();
      Outcome& o = res.outcomes[i];
      o.lag_ms = ms_between(due, t_send);
      if (o.lag_ms > spec.slo_ms) continue;  // stays kDropped

      protocol::Request req;
      req.deadline_ms = deadline_for(spec.slo_ms, o.lag_ms);
      if (it.update) {
        req.op = protocol::Op::kUpdate;
        req.update_component = it.component;
        req.update_adds = spec.update_adds;
        req.update_changes = spec.update_changes;
        req.update_seed = it.update_seed;
      } else {
        req.op = protocol::Op::kSearch;
        req.k = static_cast<std::uint32_t>(kK);
        req.terms = queries[it.query].terms;
      }
      protocol::Response resp;
      std::string err;
      const bool delivered = client.call(req, &resp, &err);
      const auto t_recv = Clock::now();
      o.rtt_ms = ms_between(t_send, t_recv);
      o.server_ms = resp.server_ms;
      if (delivered) {
        o.kind = resp.status == protocol::Status::kOk ? Kind::kAnswered
                                                      : Kind::kError;
      } else if (resp.status == protocol::Status::kShed) {
        o.kind = Kind::kShed;
        o.admission_shed = resp.server_ms == 0.0;
      } else {
        o.kind = Kind::kFailed;
      }
      if (o.kind == Kind::kAnswered) {
        o.latency_ms = ms_between(due, t_recv);
        o.tier = resp.tier;
        o.est_loss_pct = resp.est_loss_pct;
        o.docs = std::move(resp.docs);
        if (it.update) o.text = resp.text;
      }

      if (tl != nullptr) {
        const std::uint64_t call =
            tl->add("client.call", i, 0, t_send, t_recv);
        if (resp.server_ms > 0.0 && resp.server_ms <= o.rtt_ms) {
          // The server reports only a duration; the span is placed with
          // the wire time split evenly around it.
          const double wire_ns = (o.rtt_ms - resp.server_ms) * 1e6;
          const std::int64_t s =
              tl->ns(t_send) + static_cast<std::int64_t>(wire_ns / 2.0);
          tl->add_ns("server", i, call, s,
                     s + static_cast<std::int64_t>(resp.server_ms * 1e6));
        }
        // Protocol layer: the same request and response, encoded and
        // decoded again outside the call (Client::call does both inside).
        protocol::Request copy = req;
        copy.request_id = i + 1;
        auto t0 = Clock::now();
        protocol::encode_request(copy);
        tl->add("protocol.encode_request", i, 0, t0, Clock::now());
        protocol::Response echo;
        echo.status = o.kind == Kind::kAnswered ? protocol::Status::kOk
                                                : resp.status;
        echo.tier = o.tier;
        echo.op = req.op;
        echo.docs = o.docs;
        echo.text = o.text;
        const auto rframe = protocol::encode_response(echo);
        protocol::Response decoded;
        decoded.op = req.op;
        std::string derr;
        t0 = Clock::now();
        protocol::decode_response(rframe.data() + 4, rframe.size() - 4,
                                  &decoded, &derr);
        tl->add("protocol.decode_response", i, 0, t0, Clock::now());
        bytes[id] += static_cast<double>(rframe.size());
        ++encoded[id];
      }
    }
  };

  std::atomic<bool> sampling{log != nullptr};
  std::thread sampler;
  if (log != nullptr) {
    sampler = std::thread([&] {
      while (sampling.load()) {
        res.epoch_live_max =
            std::max(res.epoch_live_max, st.svc->epoch_stats().live);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < nclients; ++id)
    threads.emplace_back(client_loop, id);
  for (auto& t : threads) t.join();
  res.stop_ms = ms_between(start, Clock::now());
  sampling.store(false);
  if (sampler.joinable()) sampler.join();

  for (std::size_t id = 0; id < nclients; ++id) {
    const server::ClientStats cs = clients[id]->stats_counters();
    res.client.calls += cs.calls;
    res.client.retries += cs.retries;
    res.client.transport_errors += cs.transport_errors;
    res.client.sheds_seen += cs.sheds_seen;
    res.client.reconnects += cs.reconnects;
    res.client.backoff_total_ms += cs.backoff_total_ms;
    res.response_bytes_sum += bytes[id];
    res.responses_encoded += encoded[id];
    if (log != nullptr) log->append(logs[id]);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Server stats (the stats op) and accounting
// ---------------------------------------------------------------------------

struct ServerStats {
  double accepted = 0, shed = 0, errors = 0, updates = 0;
  double est_full_ms = 0, est_synopsis_ms = 0, synopsis_loss_pct = 0;
  double epoch_published = 0, epoch_retired = 0;
};

double json_field(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const auto pos = json.find(pat);
  if (pos == std::string::npos)
    throw std::runtime_error("stats op: missing field " + key);
  return std::strtod(json.c_str() + pos + pat.size(), nullptr);
}

ServerStats fetch_stats(std::uint16_t port) {
  server::ClientConfig cc;
  cc.port = port;
  server::Client client(cc);
  std::string json, err;
  if (!client.stats(&json, &err))
    throw std::runtime_error("stats op failed: " + err);
  ServerStats s;
  s.accepted = json_field(json, "accepted");
  s.shed = json_field(json, "shed");
  s.errors = json_field(json, "errors");
  s.updates = json_field(json, "updates");
  s.est_full_ms = json_field(json, "est_full_ms");
  s.est_synopsis_ms = json_field(json, "est_synopsis_ms");
  s.synopsis_loss_pct = json_field(json, "synopsis_loss_pct");
  s.epoch_published = json_field(json, "epoch_published");
  s.epoch_retired = json_field(json, "epoch_retired");
  return s;
}

/// Requests of one phase by outcome, plus the end-to-end metrics.
struct Evaluation {
  std::uint64_t offered = 0, sent = 0, dropped = 0, answered = 0, shed = 0,
                shed_admission = 0, shed_ladder = 0, errors = 0, failed = 0;
  std::uint64_t searches = 0, updates = 0, within_slo = 0;
  std::uint64_t searches_answered = 0, updates_answered = 0;
  std::uint64_t full = 0, synopsis = 0, cached = 0, cached_stale = 0;
  std::uint64_t exact_checked = 0, mismatches = 0;
  std::string first_mismatch;
  common::PercentileTracker latency, update_latency, lag;
  double loss_sum = 0.0;  // over offered searches (read-only workloads)
};

bool same_answer(const std::vector<search::ScoredDoc>& a,
                 const std::vector<search::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].doc != b[i].doc || a[i].score != b[i].score) return false;
  return true;
}

/// Counts outcomes, and — with `exact` — gates every full-tier or fresh
/// cached answer against the exact top-k (doc ids and scores, bit for bit)
/// and accumulates the measured accuracy loss.
///
/// Unanswered requests are infinitely slow. A percentile must still be a
/// number, so an unanswered request enters the latency percentiles
/// right-censored at (phase stop - due) + window: above every answered
/// latency of the phase (each is at most phase stop - due), so answering
/// it instead can only lower a percentile.
Evaluation evaluate(const WorkloadSpec& spec, const std::vector<Item>& items,
                    const PhaseResult& phase, double window_s,
                    const ExactTable* exact) {
  Evaluation ev;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    const Outcome& o = phase.outcomes[i];
    const double censored = phase.stop_ms - it.due_ms + window_s * 1e3;
    ++ev.offered;
    switch (o.kind) {
      case Kind::kDropped: ++ev.dropped; break;
      case Kind::kAnswered: ++ev.answered; break;
      case Kind::kShed:
        ++ev.shed;
        ++(o.admission_shed ? ev.shed_admission : ev.shed_ladder);
        break;
      case Kind::kError: ++ev.errors; break;
      case Kind::kFailed: ++ev.failed; break;
    }
    if (o.kind != Kind::kDropped) {
      ++ev.sent;
      ev.lag.add(o.lag_ms);
    }
    const bool answered = o.kind == Kind::kAnswered;
    const bool in_slo = answered && o.latency_ms <= spec.slo_ms;
    if (it.update) {
      ++ev.updates;
      ev.update_latency.add(answered ? o.latency_ms : censored);
      if (answered) ++ev.updates_answered;
      continue;
    }
    ++ev.searches;
    ev.latency.add(answered ? o.latency_ms : censored);
    if (answered) ++ev.searches_answered;
    if (in_slo) ++ev.within_slo;
    if (answered) {
      if (o.tier == protocol::Tier::kFull) ++ev.full;
      if (o.tier == protocol::Tier::kSynopsis) ++ev.synopsis;
      if (o.tier == protocol::Tier::kCached) {
        ++ev.cached;
        if (o.est_loss_pct > 0.0) ++ev.cached_stale;
      }
    }
    if (exact == nullptr) continue;
    const auto& truth = *(*exact)[it.query];
    if (answered &&
        (o.tier == protocol::Tier::kFull ||
         (o.tier == protocol::Tier::kCached && o.est_loss_pct == 0.0))) {
      ++ev.exact_checked;
      if (!same_answer(o.docs, truth)) {
        if (ev.mismatches++ == 0) {
          std::ostringstream os;
          os << "request " << i << " (" << protocol::to_string(o.tier)
             << ") differs from exact top-k";
          ev.first_mismatch = os.str();
        }
      }
    }
    ev.loss_sum +=
        in_slo ? (1.0 - search::topk_overlap(o.docs, truth)) * 100.0 : 100.0;
  }
  return ev;
}

/// Client-side counts against the server's stats-op deltas. Returns an
/// empty string when they agree.
std::string check_accounting(const Evaluation& ev, const ServerStats& before,
                             const ServerStats& after) {
  std::ostringstream os;
  if (ev.offered !=
      ev.dropped + ev.answered + ev.shed + ev.errors + ev.failed)
    os << "offered != dropped + answered + shed + error + failed; ";
  const double accepted = after.accepted - before.accepted;
  const double admitted =
      static_cast<double>(ev.sent - ev.shed_admission);
  if (ev.failed == 0) {
    // Every sent request reached the server and got a response.
    if (accepted != admitted)
      os << "server accepted " << accepted << " != client-side admitted "
         << admitted << "; ";
  } else if (accepted > admitted) {
    os << "server accepted " << accepted << " > requests sent " << admitted
       << "; ";
  }
  const auto expect = [&os](const char* what, double server,
                            std::uint64_t client) {
    if (server != static_cast<double>(client))
      os << "server " << what << " " << server << " != client-side " << client
         << "; ";
  };
  expect("shed", after.shed - before.shed, ev.shed);
  expect("errors", after.errors - before.errors, ev.errors);
  expect("updates", after.updates - before.updates, ev.updates_answered);
  return os.str();
}

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
  bool censored = false;  // the percentile fell on an unanswered request
};

/// Whether nearest-rank percentile p of n samples, of which `answered`
/// are finite and rank first, falls on a censored one.
bool censored_rank(double p, std::uint64_t n, std::uint64_t answered) {
  return static_cast<double>(answered) <
         std::ceil(p / 100.0 * static_cast<double>(n));
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  common::PercentileTracker t;
  for (const double x : v) t.add(x);
  return t.percentile(p);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void add_end_to_end(const WorkloadSpec& spec, const Evaluation& ev,
                    std::vector<Metric>* m) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {50.0, 99.0, 99.9}) {
    const std::string name = p == 50.0   ? "latency_p50_ms"
                             : p == 99.0 ? "latency_p99_ms"
                                         : "latency_p999_ms";
    m->push_back({name, ev.latency.percentile(p), "ms", ev.searches,
                  censored_rank(p, ev.searches, ev.searches_answered)});
  }
  m->push_back({"deadline_miss_pct", pct(ev.searches - ev.within_slo,
                                         ev.searches),
                "%", ev.searches});
  m->push_back({"shed_pct", pct(ev.shed, ev.offered), "%", ev.offered});
  m->push_back({"error_pct", pct(ev.errors + ev.failed, ev.offered), "%",
                ev.offered});
  m->push_back({"dropped_pct", pct(ev.dropped, ev.offered), "%",
                ev.offered});
  const bool ro = spec.read_only();
  const double loss =
      ro && ev.searches > 0 ? ev.loss_sum / static_cast<double>(ev.searches)
                            : nan;
  m->push_back({"accuracy_loss_pct", loss, "%", ro ? ev.searches : 0});
  const bool upd = ev.updates > 0;
  m->push_back({"update_latency_p50_ms",
                upd ? ev.update_latency.median() : nan, "ms", ev.updates,
                censored_rank(50.0, ev.updates, ev.updates_answered)});
  m->push_back({"update_latency_p90_ms",
                upd ? ev.update_latency.percentile(90.0) : nan, "ms",
                ev.updates,
                censored_rank(90.0, ev.updates, ev.updates_answered)});
  m->push_back({"gen.send_lag_p99_ms", ev.lag.p99(), "ms", ev.sent});
}

// ---------------------------------------------------------------------------
// Traced run: offline replays through each layer's public functions
// ---------------------------------------------------------------------------

struct ReplayResult {
  std::unordered_map<std::uint32_t, double> full_ms;  // query -> service ms
  double postings_sum = 0.0;
  double component_ns_sum = 0.0;
  double service_ms_sum = 0.0;
  std::vector<double> straggler;  // per query: max / mean component time
  double synopsis_loss_pct = 0.0;
  std::uint64_t synopsis_samples = 0;
  std::vector<double> dirty_groups;
};

ReplayResult replay_layers(const WorkloadSpec& spec, Stack& st,
                           const std::vector<search::SearchRequest>& queries,
                           const std::vector<Item>& items,
                           const std::vector<Outcome>& outs,
                           std::uint64_t seed, SpanLog* log) {
  ReplayResult r;
  search::SearchService& svc = *st.svc;
  const std::size_t ncomp = svc.num_components();

  // Distinct queries of the traced phase, in order of first appearance.
  std::vector<std::uint32_t> sample;
  std::unordered_set<std::uint32_t> seen;
  for (const Item& it : items) {
    if (it.update || sample.size() >= kReplayQueries) continue;
    if (seen.insert(it.query).second) sample.push_back(it.query);
  }

  // Corpus-global document frequencies: postings a query's scan touches.
  std::vector<double> df(spec.corpus.vocab_size, 0.0);
  for (std::size_t c = 0; c < ncomp; ++c) {
    const auto f = svc.component(c).doc_frequencies();
    for (std::size_t t = 0; t < f.size() && t < df.size(); ++t) df[t] += f[t];
  }

  std::vector<std::shared_ptr<const search::SearchSnapshot>> snaps(ncomp);
  for (std::size_t c = 0; c < ncomp; ++c)
    snaps[c] = svc.component(c).snapshot();

  for (std::size_t n = 0; n < sample.size(); ++n) {
    const std::uint32_t q = sample[n];
    const search::SearchRequest& req = queries[q];
    auto t0 = Clock::now();
    std::size_t ok = 0;
    const auto exact = svc.exact_topk_partial(req, &ok);
    auto t1 = Clock::now();
    log->add("service.exact_topk_partial", q, 0, t0, t1);
    r.full_ms[q] = ms_between(t0, t1);
    r.service_ms_sum += ms_between(t0, t1);

    double cmax = 0.0, csum = 0.0;
    for (std::size_t c = 0; c < ncomp; ++c) {
      t0 = Clock::now();
      snaps[c]->exact_topk(req, kK);
      t1 = Clock::now();
      log->add("component.exact_topk", q, 0, t0, t1);
      const double ms = ms_between(t0, t1);
      cmax = std::max(cmax, ms);
      csum += ms;
    }
    r.component_ns_sum += csum * 1e6;
    if (csum > 0.0)
      r.straggler.push_back(cmax / (csum / static_cast<double>(ncomp)));
    for (const std::uint32_t t : req.terms)
      if (t < df.size()) r.postings_sum += df[t];

    if (n < kSynopsisReplayQueries) {
      t0 = Clock::now();
      const auto syn = svc.synopsis_topk(req);
      t1 = Clock::now();
      log->add("service.synopsis_topk", q, 0, t0, t1);
      r.synopsis_loss_pct += (1.0 - search::topk_overlap(syn, exact)) * 100.0;
      ++r.synopsis_samples;
      for (std::size_t c = 0; c < ncomp; ++c) {
        t0 = Clock::now();
        snaps[c]->synopsis_topk(req, kK);
        t1 = Clock::now();
        log->add("component.synopsis_topk", q, 0, t0, t1);
        t0 = Clock::now();
        snaps[c]->analyze(req);
        t1 = Clock::now();
        log->add("component.analyze", q, 0, t0, t1);
      }
    }
  }
  if (r.synopsis_samples > 0)
    r.synopsis_loss_pct /= static_cast<double>(r.synopsis_samples);

  // Answer cache with the server's bounds, fed the phase's search stream
  // in send order; a miss inserts the answer the server gave.
  const server::ServerConfig defaults;
  search::QueryCache cache(defaults.cache_capacity, defaults.cache_max_bytes);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].update || outs[i].kind == Kind::kDropped) continue;
    const auto& terms = queries[items[i].query].terms;
    std::vector<search::ScoredDoc> hit;
    auto t0 = Clock::now();
    const bool found = cache.lookup(terms, &hit);
    log->add("cache.lookup", items[i].query, 0, t0, Clock::now());
    if (found) continue;
    t0 = Clock::now();
    cache.insert(terms, outs[i].docs);
    log->add("cache.insert", items[i].query, 0, t0, Clock::now());
  }

  // Online retraining through SearchService::update_component, last: it
  // publishes new epochs, and everything above reads the served ones.
  const workload::CorpusGen gen(spec.corpus);
  common::Rng rng(seed ^ 0x5eedULL);
  for (std::size_t u = 0; u < kUpdateReplays; ++u) {
    const std::size_t c = u % ncomp;
    const std::size_t rows = svc.component(c).num_docs();
    synopsis::UpdateBatch batch;
    for (std::uint32_t a = 0; a < spec.update_adds; ++a)
      batch.added.push_back(gen.sample_doc(rng));
    for (std::uint32_t a = 0; a < spec.update_changes; ++a)
      batch.changed.emplace_back(
          static_cast<std::uint32_t>(rng.uniform_index(rows)),
          gen.sample_doc(rng));
    const auto t0 = Clock::now();
    const auto report = svc.update_component(c, batch);
    log->add("service.update_component", u, 0, t0, Clock::now());
    r.dirty_groups.push_back(static_cast<double>(report.dirty_groups));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool selftest = false;
};

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return common::splitmix64(s);
}

void print_result(const Args& a, const WorkloadSpec& spec, bool correct,
                  const Evaluation& ev, const std::vector<Metric>& metrics,
                  const std::vector<std::pair<std::string, std::string>>&
                      checks) {
  std::ostringstream os;
  os << "{\"workload\": " << quoted(spec.name) << ", \"seed\": " << a.seed
     << ", \"seconds\": " << number(a.seconds)
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << ev.offered
     << ", \"failed\": " << ev.errors + ev.failed << ", \"counts\": {"
     << "\"offered\": " << ev.offered << ", \"sent\": " << ev.sent
     << ", \"dropped\": " << ev.dropped << ", \"answered\": " << ev.answered
     << ", \"shed\": " << ev.shed
     << ", \"shed_admission\": " << ev.shed_admission
     << ", \"shed_ladder\": " << ev.shed_ladder
     << ", \"errors\": " << ev.errors << ", \"failed\": " << ev.failed
     << ", \"searches\": " << ev.searches << ", \"updates\": " << ev.updates
     << ", \"within_slo\": " << ev.within_slo << ", \"full\": " << ev.full
     << ", \"synopsis\": " << ev.synopsis << ", \"cached\": " << ev.cached
     << ", \"cached_stale\": " << ev.cached_stale
     << ", \"exact_checked\": " << ev.exact_checked
     << ", \"mismatches\": " << ev.mismatches << "}, \"checks\": {";
  for (std::size_t i = 0; i < checks.size(); ++i)
    os << (i ? ", " : "") << quoted(checks[i].first) << ": "
       << quoted(checks[i].second);
  os << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
       << number(m.value) << ", \"unit\": " << quoted(m.unit)
       << ", \"samples\": " << m.samples
       << (m.censored ? ", \"censored\": true" : "") << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run_workload(const Args& a) {
  const auto found = find_workload(a.workload);
  if (!found) {
    std::cerr << "unknown workload: " << a.workload << "\n";
    return 2;
  }
  const WorkloadSpec& spec = *found;

  // Setup, several times; the last stack is the one measured.
  std::vector<double> setup_s, build_s, start_ms;
  std::unique_ptr<Stack> st;
  for (int r = 0; r < (a.trace ? 1 : kSetupRepeats); ++r) {
    st.reset();
    st = Stack::build(spec);
    build_s.push_back(st->build_s);
    start_ms.push_back(st->start_ms);
    setup_s.push_back(st->build_s + st->start_ms * 1e-3);
  }

  QuerySource src(spec, sub_seed(a.seed, 1));
  common::Rng rng(sub_seed(a.seed, 2));
  std::uint32_t next_component = 0;
  const auto warm =
      make_schedule(spec, kWarmupSeconds, src, rng, &next_component);
  const auto measured =
      make_schedule(spec, a.seconds, src, rng, &next_component);
  std::vector<Item> traced;
  if (a.trace)
    traced = make_schedule(spec, a.seconds, src, rng, &next_component);

  ExactTable exact;
  if (spec.read_only()) {
    compute_exact(*st->svc, src.queries(), measured, &exact);
    if (a.trace) compute_exact(*st->svc, src.queries(), traced, &exact);
  }
  const ExactTable* gate = spec.read_only() ? &exact : nullptr;

  run_open_loop(*st, spec, src.queries(), warm, sub_seed(a.seed, 3),
                nullptr);
  const ServerStats s0 = fetch_stats(st->srv->port());
  const PhaseResult phase = run_open_loop(*st, spec, src.queries(), measured,
                                          sub_seed(a.seed, 4), nullptr);
  const ServerStats s1 = fetch_stats(st->srv->port());
  const Evaluation ev = evaluate(spec, measured, phase, a.seconds, gate);

  std::vector<std::pair<std::string, std::string>> checks;
  bool correct = true;
  // Non-fatal checks test the measurement rather than the program's
  // output; they are reported but leave `correct` alone.
  auto check = [&](const std::string& name, const std::string& failure,
                   bool fatal = true) {
    checks.emplace_back(name, failure.empty() ? "ok" : failure);
    if (!failure.empty() && fatal) correct = false;
  };
  check("accounting", check_accounting(ev, s0, s1));
  if (gate != nullptr) {
    check("exact_answers",
          ev.mismatches == 0
              ? ""
              : std::to_string(ev.mismatches) + " mismatches; first: " +
                    ev.first_mismatch);
  }

  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", quantile(setup_s, 50.0), "s",
                     setup_s.size()});
  add_end_to_end(spec, ev, &metrics);
  if (!a.trace) {
    metrics.push_back({"client.backoff_ms", phase.client.backoff_total_ms,
                       "ms", phase.client.calls});
  }

  if (a.trace) {
    // A second phase of the same length with spans on; its per-layer
    // table, plus its latency_p50_ms against the untraced phase above.
    const Clock::time_point origin = Clock::now();
    SpanLog log(origin, 1);
    const ServerStats t0 = fetch_stats(st->srv->port());
    const PhaseResult tp = run_open_loop(*st, spec, src.queries(), traced,
                                         sub_seed(a.seed, 5), &log);
    const ServerStats t1 = fetch_stats(st->srv->port());
    const Evaluation tev = evaluate(spec, traced, tp, a.seconds, gate);
    check("traced_accounting", check_accounting(tev, t0, t1));
    if (gate != nullptr) {
      check("traced_exact_answers",
            tev.mismatches == 0
                ? ""
                : std::to_string(tev.mismatches) + " mismatches; first: " +
                      tev.first_mismatch);
    }
    SpanLog replay(origin, 2);
    const ReplayResult rr = replay_layers(spec, *st, src.queries(), traced,
                                          tp.outcomes, a.seed, &replay);
    log.append(replay);
    const std::vector<Span>& spans = log.spans();

    // Client and protocol.
    std::vector<double> rtt, wire, server_ms, queue_ms;
    std::size_t nesting_violations = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const Outcome& o = tp.outcomes[i];
      if (o.kind != Kind::kAnswered) continue;
      rtt.push_back(o.rtt_ms);
      wire.push_back(o.rtt_ms - o.server_ms);
      if (o.server_ms > o.rtt_ms + kNestingToleranceMs) ++nesting_violations;
      if (traced[i].update) continue;
      server_ms.push_back(o.server_ms);
      if (o.tier == protocol::Tier::kFull) {
        const auto f = rr.full_ms.find(traced[i].query);
        if (f != rr.full_ms.end()) queue_ms.push_back(o.server_ms - f->second);
      }
    }
    const double rtt_p50 = quantile(rtt, 50.0);
    const double wire_p50 = quantile(wire, 50.0);
    const double server_p50 = quantile(server_ms, 50.0);
    metrics.push_back({"client.rtt_p50_ms", rtt_p50, "ms", rtt.size()});
    metrics.push_back({"client.rtt_p99_ms", quantile(rtt, 99.0), "ms",
                       rtt.size()});
    metrics.push_back({"client.wire_ms_p50", wire_p50, "ms", wire.size()});
    metrics.push_back({"client.sheds_seen",
                       static_cast<double>(tp.client.sheds_seen), "count",
                       tp.client.calls});
    metrics.push_back({"client.backoff_ms", tp.client.backoff_total_ms, "ms",
                       tp.client.calls});
    const auto enc = durations_ms(spans, "protocol.encode_request");
    const auto dec = durations_ms(spans, "protocol.decode_response");
    metrics.push_back({"protocol.request_encode_us",
                       quantile(enc, 50.0) * 1e3, "us", enc.size()});
    metrics.push_back({"protocol.response_decode_us",
                       quantile(dec, 50.0) * 1e3, "us", dec.size()});
    metrics.push_back(
        {"protocol.response_bytes",
         tp.responses_encoded > 0
             ? tp.response_bytes_sum / static_cast<double>(tp.responses_encoded)
             : 0.0,
         "bytes", tp.responses_encoded});

    // Server and ladder.
    const auto full = durations_ms(spans, "service.exact_topk_partial");
    const double full_p50 = quantile(full, 50.0);
    metrics.push_back({"server.server_ms_p50", server_p50, "ms",
                       server_ms.size()});
    metrics.push_back({"server.server_ms_p99", quantile(server_ms, 99.0),
                       "ms", server_ms.size()});
    metrics.push_back({"server.queue_ms_p50", quantile(queue_ms, 50.0), "ms",
                       queue_ms.size()});
    metrics.push_back({"server.tier_full_pct", pct(tev.full, tev.searches),
                       "%", tev.searches});
    metrics.push_back({"server.tier_synopsis_pct",
                       pct(tev.synopsis, tev.searches), "%", tev.searches});
    metrics.push_back({"server.tier_cached_pct",
                       pct(tev.cached, tev.searches), "%", tev.searches});
    metrics.push_back({"server.shed_admission",
                       static_cast<double>(tev.shed_admission), "count",
                       tev.sent});
    metrics.push_back({"server.shed_ladder",
                       static_cast<double>(tev.shed_ladder), "count",
                       tev.sent});
    metrics.push_back({"server.est_full_ms", t1.est_full_ms, "ms", 1});
    metrics.push_back({"server.est_synopsis_ms", t1.est_synopsis_ms, "ms", 1});
    metrics.push_back({"ladder.cost_error_ratio",
                       full_p50 > 0.0 ? t1.est_full_ms / full_p50 : 0.0,
                       "ratio", full.size()});
    metrics.push_back({"ladder.loss_error_pct",
                       t1.synopsis_loss_pct - rr.synopsis_loss_pct, "%",
                       rr.synopsis_samples});
    metrics.push_back({"ladder.synopsis_loss_pct", rr.synopsis_loss_pct, "%",
                       rr.synopsis_samples});

    // Cache.
    metrics.push_back({"cache.hit_pct",
                       pct(tev.cached - tev.cached_stale,
                           tev.searches_answered),
                       "%", tev.searches_answered});
    const auto lookups = durations_ms(spans, "cache.lookup");
    metrics.push_back({"cache.lookup_us", quantile(lookups, 50.0) * 1e3, "us",
                       lookups.size()});
    metrics.push_back({"cache.stale_served_pct",
                       pct(tev.cached_stale, tev.cached), "%", tev.cached});

    // Service, component, index.
    const auto syn = durations_ms(spans, "service.synopsis_topk");
    const auto cex = durations_ms(spans, "component.exact_topk");
    const auto csyn = durations_ms(spans, "component.synopsis_topk");
    const auto can = durations_ms(spans, "component.analyze");
    metrics.push_back({"service.full_ms_p50", full_p50, "ms", full.size()});
    metrics.push_back({"service.full_ms_p99", quantile(full, 99.0), "ms",
                       full.size()});
    metrics.push_back({"service.synopsis_ms_p50", quantile(syn, 50.0), "ms",
                       syn.size()});
    metrics.push_back({"service.fanout_speedup",
                       rr.service_ms_sum > 0.0
                           ? rr.component_ns_sum * 1e-6 / rr.service_ms_sum
                           : 0.0,
                       "x", full.size()});
    metrics.push_back({"component.exact_us_p50", quantile(cex, 50.0) * 1e3,
                       "us", cex.size()});
    metrics.push_back({"component.straggler_ratio",
                       quantile(rr.straggler, 50.0), "ratio",
                       rr.straggler.size()});
    metrics.push_back({"component.synopsis_us_p50",
                       quantile(csyn, 50.0) * 1e3, "us", csyn.size()});
    metrics.push_back({"component.analyze_us_p50", quantile(can, 50.0) * 1e3,
                       "us", can.size()});
    const double nq = static_cast<double>(full.size());
    metrics.push_back({"index.postings_per_query",
                       nq > 0 ? rr.postings_sum / nq : 0.0, "count",
                       full.size()});
    metrics.push_back({"index.ns_per_posting",
                       rr.postings_sum > 0 ? rr.component_ns_sum /
                                                 rr.postings_sum
                                           : 0.0,
                       "ns", full.size()});
    metrics.push_back(
        {"index.compressed_mb",
         static_cast<double>(st->svc->index_size().compressed_bytes) / 1e6,
         "MB", 1});

    // Update and epochs.
    const auto upd = durations_ms(spans, "service.update_component");
    metrics.push_back({"update.service_ms_p50", quantile(upd, 50.0), "ms",
                       upd.size()});
    metrics.push_back({"update.dirty_groups_mean", mean(rr.dirty_groups),
                       "count", rr.dirty_groups.size()});
    metrics.push_back({"epoch.published",
                       t1.epoch_published - t0.epoch_published, "count", 1});
    metrics.push_back({"epoch.retired", t1.epoch_retired - t0.epoch_retired,
                       "count", 1});
    metrics.push_back({"epoch.live_max",
                       static_cast<double>(tp.epoch_live_max), "count", 1});

    // Setup and the generator.
    metrics.push_back({"setup.build_s", quantile(build_s, 50.0), "s",
                       build_s.size()});
    metrics.push_back({"setup.calibrate_ms", quantile(start_ms, 50.0), "ms",
                       start_ms.size()});

    // Tracing overhead: latency_p50_ms with spans on minus without. When
    // more than half the requests go unanswered the p50 is censored; the
    // RTT p50 of answered requests stands in then.
    double overhead = tev.latency.median() - ev.latency.median();
    if (censored_rank(50.0, ev.searches, ev.searches_answered) ||
        censored_rank(50.0, tev.searches, tev.searches_answered)) {
      std::vector<double> base_rtt;
      for (const Outcome& o : phase.outcomes)
        if (o.kind == Kind::kAnswered) base_rtt.push_back(o.rtt_ms);
      overhead = rtt_p50 - quantile(base_rtt, 50.0);
    }
    metrics.push_back({"trace.overhead_p50_ms", overhead, "ms", tev.searches});

    // Consistency of the per-layer split: the server's time nests inside
    // each call, and wire + server_ms medians account for the RTT median.
    const double accounting_err =
        rtt_p50 > 0.0
            ? std::fabs(wire_p50 + server_p50 - rtt_p50) / rtt_p50 * 100.0
            : 0.0;
    metrics.push_back({"trace.rtt_accounting_error_pct", accounting_err, "%",
                       rtt.size()});
    check("server_ms_nests_in_rtt",
          nesting_violations == 0
              ? ""
              : std::to_string(nesting_violations) +
                    " answers report server_ms above their RTT");
    if (spec.name == "scan-large") {
      std::ostringstream e1, e2;
      if (accounting_err > kRttAccountingTolerancePct)
        e1 << "wire p50 " << wire_p50 << " + server p50 " << server_p50
           << " misses RTT p50 " << rtt_p50 << " by " << accounting_err
           << "% (tolerance " << kRttAccountingTolerancePct << "%)";
      check("rtt_accounting", e1.str(), false);
      if (full_p50 > server_p50)
        e2 << "service.full_ms_p50 " << full_p50
           << " > server.server_ms_p50 " << server_p50;
      check("service_within_server", e2.str(), false);
    }

    if (!a.spans_path.empty()) {
      std::ofstream os(a.spans_path);
      write_spans(os, spans);
      if (!os) std::cerr << "warning: could not write " << a.spans_path << "\n";
    }
  }
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});

  st.reset();
  print_result(a, spec, correct, ev, metrics, checks);
  return 0;
}

/// The gate must pass on untouched answers and catch perturbed ones: one
/// score nudged by one ulp, one doc id swapped.
int run_selftest() {
  auto spec = *find_workload("rpc-small");
  auto st = Stack::build(spec);
  QuerySource src(spec, 11);
  common::Rng rng(12);
  std::uint32_t next_component = 0;
  const auto items = make_schedule(spec, 1.0, src, rng, &next_component);
  ExactTable exact;
  compute_exact(*st->svc, src.queries(), items, &exact);
  PhaseResult res =
      run_open_loop(*st, spec, src.queries(), items, 13, nullptr);
  const Evaluation clean = evaluate(spec, items, res, 1.0, &exact);

  std::size_t perturbed = 0;
  for (Outcome& o : res.outcomes) {
    if (o.kind != Kind::kAnswered || o.docs.size() < 2) continue;
    if (perturbed == 0 && o.tier == protocol::Tier::kFull) {
      o.docs[0].score = std::nextafter(o.docs[0].score, kInf);
      ++perturbed;
    } else if (perturbed == 1 && o.tier == protocol::Tier::kCached) {
      std::swap(o.docs[0].doc, o.docs[1].doc);
      ++perturbed;
    }
  }
  const Evaluation dirty = evaluate(spec, items, res, 1.0, &exact);
  const bool ok = clean.exact_checked > 0 && clean.mismatches == 0 &&
                  perturbed == 2 && dirty.mismatches == 2;
  std::cout << "selftest: " << clean.exact_checked << " answers checked, "
            << clean.mismatches << " mismatches untouched; " << perturbed
            << " perturbed -> " << dirty.mismatches << " mismatches: "
            << (ok ? "ok" : "FAILED") << std::endl;
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0.0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::cerr << "usage: serving_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>] | "
                 "--selftest\n";
    return 2;
  }
  try {
    return args.selftest ? perfbench::run_selftest()
                         : perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "serving_bench: " << e.what() << "\n";
    return 1;
  }
}
