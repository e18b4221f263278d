// `campaign`: the paper's §4 protocol through exp::Runner.
//
// Untraced, each pass builds a fresh Runner (the set-up: topology
// generation, IGP SPF, initial BGP convergence) and scores every
// diagnosable episode with all four algorithms, exactly as Runner::run
// does, on one thread. Passes repeat, each from its own sub-seed, until
// the time budget is spent. An episode's time runs from the end of the
// previous episode to the end of its scoring: failure draws, reconverge,
// the T+ measurement, control-plane collection, the four algorithms and
// the previous episode's restore.
//
// Traced, the same passes also run through a benchmark-side episode
// driver that replays Runner's protocol call by call (same RNG draws, so
// the same episodes and the same digest) and wraps each public call in a
// span. Its untraced wall time against Runner's is the driver's fidelity;
// what its spans leave uncovered is the ledger's unattributed share.
#include <array>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/algorithms.h"
#include "core/diagnosability.h"
#include "core/metrics.h"
#include "core/solver.h"
#include "exp/runner.h"
#include "ledger.h"
#include "lg/looking_glass.h"
#include "probe/prober.h"
#include "probe/sensors.h"
#include "sim/network.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace netd;

/// Passes the traced run repeats per variant (Runner, driver, traced
/// driver): fixed, so its counters read the same on every run of a seed.
constexpr std::size_t kTracedPasses = 2;
/// Unattributed time above this share of the traced driver's wall fails
/// the traced run: the ledger no longer explains where time goes.
constexpr double kMaxUnattributed = 0.10;

exp::ScenarioConfig pass_config(const Options& o, std::size_t pass) {
  // The topology is the generator's default 165-AS instance; the seed
  // drives sensor placements and failure draws.
  exp::ScenarioConfig cfg;
  cfg.seed = mix_seed(o.seed, 2, pass);
  cfg.num_sensors = 10;
  cfg.placement = probe::PlacementKind::kRandomStub;
  cfg.mode = exp::FailureMode::kLinks;
  cfg.num_link_failures = 1;
  // Many placements with few trials each: sensor placement sets mesh size
  // and failure impact, so spreading a run's episodes over more
  // placements keeps one seed's inputs close to another's.
  cfg.num_placements = o.tiny ? 1 : 5;
  cfg.trials_per_placement = o.tiny ? 3 : 4;
  cfg.num_threads = 1;
  return cfg;
}

constexpr std::array<const char*, 4> kAlgoNames = {"Tomo", "ND-edge",
                                                   "ND-bgpigp", "ND-LG"};

struct Scored {
  std::array<core::AlgorithmOutput, 4> out;
  std::array<core::LinkMetrics, 4> link;
  std::array<core::AsMetrics, 4> as;
};

/// Runs and scores the four algorithms as exp::Runner::run does.
Scored score(const exp::EpisodeContext& ep, Ledger& led) {
  Scored s;
  {
    auto sp = led.span("core.tomo");
    s.out[0] = core::run_tomo(ep.before, ep.after);
  }
  {
    auto sp = led.span("core.nd_edge");
    s.out[1] = core::run_nd_edge(ep.before, ep.after);
  }
  {
    auto sp = led.span("core.nd_bgpigp");
    s.out[2] = core::run_nd_bgpigp(ep.before, ep.after, ep.cp);
  }
  {
    auto sp = led.span("core.nd_lg");
    s.out[3] = core::run_nd_lg(ep.before, ep.after, ep.cp, *ep.lg,
                               ep.operator_as);
  }
  auto sp = led.span("core.metrics");
  for (std::size_t a = 0; a < 4; ++a) {
    s.link[a] = core::link_metrics(s.out[a].result.links, ep.failed_links,
                                   s.out[a].graph.probed_keys);
    s.as[a] = core::as_metrics(s.out[a].result.ases, ep.failed_ases,
                               ep.universe);
  }
  return s;
}

/// Untimed checks on one scored episode: Tomo and ND-edge against the
/// reference solver on the same graph. Folds the episode into `digest`.
void check(const exp::EpisodeContext& ep, const Scored& s, Outcome& out,
           std::uint64_t* digest) {
  ++out.attempted;
  const std::array<core::SolverOptions, 2> presets = {core::tomo_options(),
                                                      core::nd_edge_options()};
  for (std::size_t a = 0; a < presets.size(); ++a) {
    const core::Result ref = core::solve_reference(s.out[a].graph, presets[a]);
    if (ref.links != s.out[a].result.links ||
        ref.ases != s.out[a].result.ases) {
      out.fail(std::string(kAlgoNames[a]) +
               " hypothesis differs from core::solve_reference");
      break;
    }
  }
  char buf[128];
  std::string text;
  std::snprintf(buf, sizeof(buf), "D=%.6f;", ep.diagnosability);
  text += buf;
  for (std::size_t a = 0; a < 4; ++a) {
    text += kAlgoNames[a];
    text += ':';
    for (const auto& l : s.out[a].result.links) text += l + ",";
    text += '|';
    for (int as : s.out[a].result.ases) text += std::to_string(as) + ",";
    std::snprintf(buf, sizeof(buf), "|%.6f,%.6f,%.6f,%.6f;",
                  s.link[a].sensitivity, s.link[a].specificity,
                  s.as[a].sensitivity, s.as[a].specificity);
    text += buf;
  }
  *digest = fnv1a(*digest, text);
}

struct Pass {
  double setup_ms = 0.0;
  double wall_ms = 0.0;  ///< set-up excluded, untimed checks excluded
  std::vector<double> episode_ms;
  std::size_t attempts = 0;  ///< failure draws (driver passes only)
  std::uint64_t digest = kFnvBasis;
};

/// One pass through exp::Runner, as a user of the library runs it.
Pass runner_pass(const exp::ScenarioConfig& cfg, Outcome& out) {
  Pass p;
  Ledger off(false, 0);
  const auto t0 = Clock::now();
  exp::Runner runner(cfg);
  const auto t1 = Clock::now();
  p.setup_ms = ms_between(t0, t1);
  double check_ms = 0.0;
  auto last = Clock::now();
  runner.for_each_episode(
      [&](const exp::EpisodeContext& ep) {
        const Scored s = score(ep, off);
        const auto scored = Clock::now();
        p.episode_ms.push_back(ms_between(last, scored));
        check(ep, s, out, &p.digest);
        last = Clock::now();
        check_ms += ms_between(scored, last);
      },
      /*deploy_lg=*/true);
  p.wall_ms = ms_since(t1) - check_ms;
  return p;
}

/// The same pass replayed call by call (exp::Runner's serial protocol for
/// random-stub placement, operator AS at the core, single link failures,
/// no traceroute blocking, Looking Glasses deployed), each public call in
/// a span of `led`.
Pass driver_pass(const exp::ScenarioConfig& cfg, Ledger& led, Outcome& out) {
  Pass p;
  led.begin();
  const auto t0 = Clock::now();
  std::optional<sim::Network> net_slot;
  {
    auto sp = led.span("topo.generate");
    topo::Topology topo = topo::generate(cfg.topo_params);
    net_slot.emplace(std::move(topo));
  }
  sim::Network& net = *net_slot;
  {
    auto sp = led.span("sim.converge");
    net.converge();
  }
  const auto t1 = Clock::now();
  p.setup_ms = ms_between(t0, t1);
  const topo::Topology& topo = net.topology();
  std::optional<lg::LgTable> table;
  {
    auto sp = led.span("lg.table");
    table.emplace(net);
  }
  std::optional<sim::Network::Snapshot> base;
  {
    auto sp = led.span("sim.snapshot");
    base.emplace(net.snapshot());
  }
  util::Rng root(cfg.seed);
  std::vector<std::uint64_t> seeds(cfg.num_placements);
  for (auto& s : seeds) s = root.fork();

  double check_ms = 0.0;
  auto last = Clock::now();
  for (std::size_t pl = 0; pl < cfg.num_placements; ++pl) {
    util::Rng rng(seeds[pl]);
    std::vector<probe::Sensor> sensors;
    {
      auto sp = led.span("probe.place_sensors");
      sensors = probe::place_sensors(topo, cfg.placement, cfg.num_sensors, rng);
    }
    const topo::AsId op_as{0};
    net.set_operator_as(op_as);
    probe::Mesh gmesh;
    {
      auto sp = led.span("probe.measure");
      gmesh = probe::Prober(net, sensors).measure();
    }
    std::optional<lg::LookingGlassService> lg_svc;
    {
      auto sp = led.span("lg.service");
      std::set<std::uint32_t> avail;
      for (const auto& as : topo.ases()) {
        if (rng.bernoulli(cfg.frac_lg)) avail.insert(as.id.value());
      }
      lg_svc.emplace(*table, std::move(avail), op_as);
    }
    probe::Prober prober(net, sensors);
    probe::Mesh before;
    {
      auto sp = led.span("probe.measure");
      before = prober.measure();
    }
    std::vector<topo::LinkId> pool;
    {
      auto sp = led.span("probe.probed_links");
      pool = gmesh.probed_links();
    }
    if (pool.size() < cfg.num_link_failures) continue;
    double diag = 0.0;
    {
      auto sp = led.span("core.diagnosability");
      diag = core::diagnosability(
          core::build_diagnosis_graph(before, before, /*logical_links=*/false));
    }

    for (std::size_t trial = 0; trial < cfg.trials_per_placement; ++trial) {
      bool invoked = false;
      std::vector<topo::LinkId> failed;
      probe::Mesh after;
      for (std::size_t attempt = 0;
           attempt < cfg.max_attempts_per_trial && !invoked; ++attempt) {
        ++p.attempts;
        {
          auto sp = led.span("exp.draw_failure");
          failed = rng.sample(pool, cfg.num_link_failures);
        }
        {
          auto sp = led.span("sim.fail");
          net.start_recording();
          for (topo::LinkId l : failed) net.fail_link(l);
        }
        {
          auto sp = led.span("sim.reconverge");
          net.reconverge();
        }
        {
          auto sp = led.span("sim.trace_flow");
          for (const auto& path : before.paths) {
            if (!path.ok) continue;
            if (!net.trace_flow(sensors[path.src].attach,
                                sensors[path.dst].attach, prober.flow())
                     .ok) {
              invoked = true;
              break;
            }
          }
        }
        if (invoked) {
          auto sp = led.span("probe.measure");
          after = prober.measure();
        } else {
          auto sp = led.span("sim.restore");
          net.restore(*base);
        }
      }
      if (!invoked) continue;

      std::set<std::string> f_links;
      std::set<int> f_ases;
      std::set<int> universe;
      {
        auto sp = led.span("exp.ground_truth");
        for (topo::LinkId l : failed) {
          f_links.insert(exp::link_key(topo, l));
          const auto& link = topo.link(l);
          f_ases.insert(static_cast<int>(topo.as_of_router(link.a).value()));
          f_ases.insert(static_cast<int>(topo.as_of_router(link.b).value()));
        }
        universe = gmesh.covered_ases(topo);
        for (int a : after.covered_ases(topo)) universe.insert(a);
        for (int a : f_ases) universe.insert(a);
      }
      std::optional<core::ControlPlaneObs> cp;
      {
        auto sp = led.span("exp.collect_cp");
        cp.emplace(exp::collect_control_plane(net));
      }
      const exp::EpisodeContext ctx{before, after,  *cp,     &*lg_svc, op_as,
                                    f_links, f_ases, universe, diag};
      const Scored s = score(ctx, led);
      const auto scored = Clock::now();
      p.episode_ms.push_back(ms_between(last, scored));
      led.end();
      check(ctx, s, out, &p.digest);
      led.begin();
      last = Clock::now();
      check_ms += ms_between(scored, last);
      {
        auto sp = led.span("sim.restore");
        net.restore(*base);
      }
      net.set_operator_as(op_as);
    }
  }
  p.wall_ms = ms_since(t1) - check_ms;
  led.end();
  return p;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void check_digest(const Options& o, std::uint64_t digest, Outcome& out) {
  std::printf("campaign digest (pass 0, seed %" PRIu64 "): %s\n", o.seed,
              hex64(digest).c_str());
  if (!o.expect_digest.empty()) {
    ++out.attempted;
    if (o.expect_digest != hex64(digest)) {
      out.fail("campaign digest " + hex64(digest) + " != pinned " +
               o.expect_digest);
    }
  }
}

void untraced(const Options& o, Outcome& out) {
  std::vector<double> setup_ms;
  std::vector<double> episode_ms;
  double wall_ms = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const Pass p = runner_pass(pass_config(o, pass), out);
    if (pass == 0) check_digest(o, p.digest, out);
    setup_ms.push_back(p.setup_ms);
    wall_ms += p.wall_ms;
    episode_ms.insert(episode_ms.end(), p.episode_ms.begin(),
                      p.episode_ms.end());
    if (o.tiny || ms_since(t0) >= o.seconds * 1e3) break;
  }
  const double eps = static_cast<double>(episode_ms.size()) / (wall_ms / 1e3);
  const double p50 = quantile(episode_ms, 0.5);
  const double iqm = interquartile_mean(episode_ms);
  const double p90 = quantile(episode_ms, 0.9);
  // The gated centre is the interquartile mean: episode times cluster by
  // the number of failure draws (each wasted draw adds a reconverge and a
  // restore, ~30 ms), and the median jumps between the 2-draw and 3-draw
  // clusters from one seed to the next.
  out.set("setup_s", median(setup_ms) / 1e3);
  out.set("ops_per_s", eps);
  out.set("op_ms_iqm", iqm);
  out.set("op_ms_tail", p90);
  out.show("setup_s", median(setup_ms) / 1e3, "s");
  out.show("episodes_per_s", eps, "1/s");
  out.show("episode_ms_p50", p50, "ms");
  out.show("episode_ms_iqm", iqm, "ms");
  out.show("episode_ms_p90", p90, "ms");
  out.show("episodes", static_cast<double>(episode_ms.size()), "count");
  out.show("passes", static_cast<double>(setup_ms.size()), "count");
}

void traced(const Options& o, Outcome& out) {
  const std::size_t passes = o.tiny ? 1 : kTracedPasses;
  double runner_ms = 0.0;
  double plain_ms = 0.0;
  Ledger plain(false, 0);
  Ledger led(true, 0);
  std::size_t episodes = 0;
  std::size_t attempts = 0;
  double traced_ms = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const exp::ScenarioConfig cfg = pass_config(o, pass);
    const Pass r = runner_pass(cfg, out);
    const Pass d = driver_pass(cfg, plain, out);
    const Pass t = driver_pass(cfg, led, out);
    if (pass == 0) check_digest(o, r.digest, out);
    ++out.attempted;
    if (d.digest != r.digest || t.digest != r.digest) {
      out.fail("episode driver digest differs from exp::Runner's (pass " +
               std::to_string(pass) + ")");
    }
    runner_ms += r.setup_ms + r.wall_ms;
    plain_ms += d.setup_ms + d.wall_ms;
    traced_ms += t.setup_ms + t.wall_ms;
    episodes += t.episode_ms.size();
    attempts += t.attempts;
  }
  const double n_eps = static_cast<double>(std::max<std::size_t>(episodes, 1));
  const auto per_pass_ms = [&](const char* name) {
    return led.total_us(name) / 1e3 / static_cast<double>(passes);
  };
  const auto per_ep_ms = [&](const char* name) {
    return led.total_us(name) / 1e3 / n_eps;
  };
  const auto per_ep_calls = [&](const char* name) {
    return static_cast<double>(led.calls(name)) / n_eps;
  };
  out.set("topo.generate_ms", per_pass_ms("topo.generate"));
  out.set("sim.converge_ms", per_pass_ms("sim.converge"));
  out.set("lg.table_ms", per_pass_ms("lg.table"));
  out.set("sim.reconverge_ms", per_ep_ms("sim.reconverge"));
  out.set("sim.reconverge_calls", per_ep_calls("sim.reconverge"));
  out.set("sim.restore_ms", per_ep_ms("sim.restore"));
  out.set("sim.restore_calls", per_ep_calls("sim.restore"));
  out.set("sim.fail_ms", per_ep_ms("sim.fail"));
  out.set("sim.trace_flow_ms", per_ep_ms("sim.trace_flow"));
  out.set("probe.measure_ms", per_ep_ms("probe.measure"));
  out.set("probe.measure_calls", per_ep_calls("probe.measure"));
  out.set("exp.collect_cp_ms", per_ep_ms("exp.collect_cp"));
  out.set("exp.attempts", static_cast<double>(attempts));
  out.set("exp.useful_attempt_ratio",
          static_cast<double>(episodes) /
              static_cast<double>(std::max<std::size_t>(attempts, 1)));
  out.set("core.tomo_ms", per_ep_ms("core.tomo"));
  out.set("core.nd_edge_ms", per_ep_ms("core.nd_edge"));
  out.set("core.nd_bgpigp_ms", per_ep_ms("core.nd_bgpigp"));
  out.set("core.nd_lg_ms", per_ep_ms("core.nd_lg"));
  const double unattributed = (led.wall_us() - led.root_us()) / led.wall_us();
  out.set("campaign.unattributed_frac", unattributed);
  out.set("campaign.driver_fidelity", plain_ms / runner_ms);
  out.set("trace_overhead_frac", traced_ms / plain_ms - 1.0);
  ++out.attempted;
  if (unattributed > kMaxUnattributed) {
    out.fail("ledger leaves " + std::to_string(unattributed * 100.0) +
             "% of the driver's wall time unattributed (limit 10%)");
  }
  out.profile = profile_table({&led});
  if (!o.trace_out.empty()) {
    std::string error;
    if (!write_chrome_trace(o.trace_out, {&led}, &error)) out.fail(error);
  }
}

}  // namespace

void add_campaign_layers(const Options& opts, Outcome& out) {
  Options co = opts;
  co.workload = "campaign";
  co.trace = true;
  const std::string ext = ".json";
  if (co.trace_out.size() > ext.size() &&
      co.trace_out.compare(co.trace_out.size() - ext.size(), ext.size(),
                           ext) == 0) {
    co.trace_out.insert(co.trace_out.size() - ext.size(), "-campaign");
  } else if (!co.trace_out.empty()) {
    co.trace_out += "-campaign";
  }
  Outcome c;
  traced(co, c);
  // The host workload keeps its own trace_overhead_frac.
  for (const auto& [name, value] : c.values) out.values.emplace(name, value);
  out.attempted += c.attempted;
  out.failed += c.failed;
  for (const auto& e : c.errors) {
    if (out.errors.size() < 10) out.errors.push_back("campaign layers: " + e);
  }
  out.profile += "\ncampaign layers (episode driver)\n" + c.profile;
}

Outcome run_campaign(const Options& opts) {
  Outcome out;
  if (opts.trace) {
    traced(opts, out);
  } else {
    untraced(opts, out);
  }
  out.show("failed_frac",
           static_cast<double>(out.failed) /
               static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
           "ratio");
  out.set("peak_rss_mib", peak_rss_mib());
  out.show("peak_rss_mib", peak_rss_mib(), "MiB");
  return out;
}

}  // namespace perfbench
