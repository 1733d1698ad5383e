// Portfolio scheduler bench: measures the two claims the subsystem makes.
//
//   $ ./bench_portfolio [--budget SECONDS-PER-RUN] [--quick]
//                       [--threads-list 1,2,4] [--depth K]
//
//  (a) shard throughput — the suite as a one-job-per-(netlist, property)
//      batch, run at each worker count in --threads-list; wall-clock
//      should shrink as workers are added (target: >= 1.5x at 4 threads);
//  (b) race overhead — per instance, every policy run alone vs. the
//      full-lineup race; race wall-clock should track the per-instance
//      best policy (target: within 15% in total).  Each race runs three
//      times: all exchange off (independent solvers), lemma sharing only
//      (LBD-filtered clause exchange through the SharedClausePool), and
//      lemma + rank sharing (cores merged in one SharedRankSource,
//      refreshed mid-solve), with the exported/imported/published/
//      refreshed counters recorded so the trajectory tooling can see
//      each exchange actually firing;
//
// Results go to stdout and, machine-readably, to BENCH_portfolio.json.
// Both targets assume the hardware can actually run the workers in
// parallel: on a machine with fewer cores than workers the race degrades
// to time-slicing (ratio ≈ #policies) and sharding cannot scale.  The
// JSON records hw_threads so trajectory tooling can tell "regression"
// from "ran on a small box".
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "api/refbmc.hpp"
#include "bmc/tape.hpp"
#include "harness.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "portfolio/scheduler.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace refbmc;
  using namespace refbmc::portfolio;
  using benchharness::JsonWriter;

  const Options opts = Options::parse(argc, argv);
  const double budget = opts.get_double("budget", 5.0);
  const auto suite = opts.get_bool("quick", false) ? model::quick_suite()
                                                   : model::standard_suite();
  std::vector<int> thread_counts;
  for (const std::string& t : split_csv(opts.get("threads-list", "1,2,4"))) {
    int n = 0;
    try {
      std::size_t pos = 0;
      n = std::stoi(t, &pos);
      if (pos != t.size()) throw std::invalid_argument(t);
    } catch (const std::exception&) {
      throw std::invalid_argument("option --threads-list expects integers, "
                                  "got '" + t + "'");
    }
    if (n < 1)
      throw std::invalid_argument("option --threads-list expects values >= 1");
    thread_counts.push_back(n);
  }
  if (thread_counts.empty())
    throw std::invalid_argument("option --threads-list is empty");

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n\n", hw_threads);

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "portfolio");
  json.kv("rows", static_cast<std::uint64_t>(suite.size()));
  json.kv("budget_sec", budget);
  json.kv("hw_threads", static_cast<std::uint64_t>(hw_threads));

  // ---- (a) shard throughput scaling ---------------------------------------
  const auto make_jobs = [&](const model::Benchmark& bm) {
    bmc::EngineConfig engine;
    engine.policy = bmc::OrderingPolicy::Dynamic;
    engine.max_depth = opts.get_int("depth", bm.suggested_bound);
    engine.per_instance_time_limit_sec = budget;
    return shard_properties(bm.net, engine, bm.name);
  };
  std::vector<Job> jobs;
  for (const auto& bm : suite)
    for (Job& job : make_jobs(bm)) jobs.push_back(std::move(job));

  std::printf("shard throughput: %zu jobs\n", jobs.size());
  std::printf("%8s %10s %10s\n", "threads", "wall(s)", "speedup");
  json.key("shard");
  json.begin_array();
  double wall_first = 0.0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const int threads = thread_counts[i];
    PortfolioScheduler scheduler(threads);
    const BatchReport report = scheduler.run_batch(jobs);
    if (i == 0) wall_first = report.wall_time_sec;
    const double speedup =
        report.wall_time_sec > 0.0 ? wall_first / report.wall_time_sec : 0.0;
    std::printf("%8d %10.3f %10.2f\n", threads, report.wall_time_sec, speedup);
    json.begin_object();
    json.kv("threads", threads);
    json.kv("wall_sec", report.wall_time_sec);
    json.kv("sequential_equivalent_sec", report.total_job_time_sec());
    json.kv("speedup_vs_first", speedup);
    json.kv("steals", report.steals);
    json.kv("counterexamples",
            static_cast<std::uint64_t>(report.counterexamples()));
    json.kv("resource_limits",
            static_cast<std::uint64_t>(report.resource_limits()));
    json.end_object();
  }
  json.end_array();

  // ---- (b) race vs. best single policy, by exchange regime ----------------
  // Three exchange regimes, same seed: all exchange off (the PR 3
  // baseline race), lemma sharing only (the PR 4 regime, isolating the
  // clause exchange), and lemma + rank sharing (shared ordering on
  // top).  Each race is one api::check — the bench exercises the same
  // façade entry the examples and the job server use — while the
  // single-policy baselines stay on scheduler-level run_job (a race of
  // one would add thread overhead to the very number being compared).
  // The share/rank columns show whether portfolio diversity compounds
  // or the instance is too easy to learn anything worth exchanging.
  // NB: like the race itself, the exchange payoff needs real
  // parallelism; on a box with fewer cores than entrants the wall-clock
  // comparison degrades to time-slicing noise while the counters stay
  // meaningful.
  const auto policies = default_race_policies();
  api::RaceOptions plain_race;
  plain_race.seed(1).share(false).share_rank(false);
  api::RaceOptions lemma_race;
  lemma_race.seed(1).share(true).share_rank(false);
  api::RaceOptions rank_race;  // defaults: lemma + rank exchange on

  std::printf(
      "\nrace vs. best single policy (plain / lemma-sharing / +rank)\n");
  std::printf("%-26s %10s %-12s %10s %10s %10s %7s %9s %9s %6s %6s\n",
              "model", "best(s)", "best-policy", "race(s)", "share(s)",
              "rank(s)", "ratio", "exported", "imported", "publ", "refr");
  json.key("race");
  json.begin_array();
  double total_best = 0.0, total_race = 0.0, total_race_share = 0.0;
  double total_race_rank = 0.0;
  std::uint64_t total_exported = 0, total_imported = 0;
  std::uint64_t total_published = 0, total_refreshes = 0;
  std::uint64_t max_cancel_latency = 0;
  const auto race_once = [&](const model::Benchmark& bm,
                             const api::RaceOptions& regime, int depth) {
    api::CheckRequest req;
    req.net = bm.net;
    req.name = bm.name;
    req.options = regime;
    req.options.max_depth(depth).budget_sec(budget);
    return api::check(req);
  };
  for (const auto& bm : suite) {
    const int depth = opts.get_int("depth", bm.suggested_bound);
    bmc::EngineConfig engine;
    engine.max_depth = depth;
    engine.total_time_limit_sec = budget;

    double best_sec = -1.0;
    bmc::OrderingPolicy best_policy = policies.front();
    for (const auto policy : policies) {
      Job job;
      job.net = &bm.net;
      job.name = bm.name;
      job.config = engine;
      job.config.policy = policy;
      const JobResult single = run_job(job);
      if (best_sec < 0.0 || single.wall_time_sec < best_sec) {
        best_sec = single.wall_time_sec;
        best_policy = policy;
      }
    }

    const api::CheckResult race = race_once(bm, plain_race, depth);
    const api::CheckResult shared = race_once(bm, lemma_race, depth);
    const api::CheckResult ranked = race_once(bm, rank_race, depth);
    const double ratio = best_sec > 0.0 ? race.wall_time_sec / best_sec : 0.0;
    total_best += best_sec;
    total_race += race.wall_time_sec;
    total_race_share += shared.wall_time_sec;
    total_race_rank += ranked.wall_time_sec;
    total_exported += shared.clauses_exported;
    total_imported += shared.clauses_imported;
    total_published += ranked.ranks_published;
    total_refreshes += ranked.rank_refreshes;
    max_cancel_latency =
        std::max({max_cancel_latency, race.cancel_latency_us,
                  shared.cancel_latency_us, ranked.cancel_latency_us});
    std::printf(
        "%-26s %10.3f %-12s %10.3f %10.3f %10.3f %7.2f %9llu %9llu %6llu "
        "%6llu\n",
        bm.name.c_str(), best_sec, to_string(best_policy),
        race.wall_time_sec, shared.wall_time_sec, ranked.wall_time_sec,
        ratio, static_cast<unsigned long long>(shared.clauses_exported),
        static_cast<unsigned long long>(shared.clauses_imported),
        static_cast<unsigned long long>(ranked.ranks_published),
        static_cast<unsigned long long>(ranked.rank_refreshes));
    json.begin_object();
    json.kv("name", bm.name);
    json.kv("best_sec", best_sec);
    json.kv("best_policy", to_string(best_policy));
    json.kv("race_sec", race.wall_time_sec);
    json.kv("race_winner",
            race.winner_policy.empty() ? "-" : race.winner_policy);
    json.kv("race_verdict", api::to_string(race.status));
    json.kv("ratio", ratio);
    json.kv("frames_encoded", race.frames_encoded);
    json.kv("race_share_sec", shared.wall_time_sec);
    json.kv("race_share_winner",
            shared.winner_policy.empty() ? "-" : shared.winner_policy);
    json.kv("race_share_verdict", api::to_string(shared.status));
    json.kv("share_ratio_vs_plain",
            race.wall_time_sec > 0.0
                ? shared.wall_time_sec / race.wall_time_sec
                : 0.0);
    json.kv("clauses_exported", shared.clauses_exported);
    json.kv("clauses_imported", shared.clauses_imported);
    json.kv("race_rank_sec", ranked.wall_time_sec);
    json.kv("race_rank_winner",
            ranked.winner_policy.empty() ? "-" : ranked.winner_policy);
    json.kv("race_rank_verdict", api::to_string(ranked.status));
    json.kv("rank_ratio_vs_share",
            shared.wall_time_sec > 0.0
                ? ranked.wall_time_sec / shared.wall_time_sec
                : 0.0);
    json.kv("ranks_published", ranked.ranks_published);
    json.kv("rank_refreshes", ranked.rank_refreshes);
    // Cancellation latency per exchange regime: verdict -> last loser
    // actually stopped (the satellite metric of the observability PR).
    json.kv("cancel_latency_us", race.cancel_latency_us);
    json.kv("cancel_latency_share_us", shared.cancel_latency_us);
    json.kv("cancel_latency_rank_us", ranked.cancel_latency_us);
    json.end_object();
  }
  json.end_array();

  // ---- (c) race setup: encode-once vs per-policy encoding -----------------
  // The PR 1 race had every entrant unroll its own copy of the instance;
  // entrants now replay one shared tape.  Measure both disciplines on the
  // suite's deepest instance: P independent encodings vs one encoding
  // plus P solver replays.
  {
    const model::Benchmark* deepest = &suite.front();
    for (const auto& bm : suite)
      if (bm.suggested_bound > deepest->suggested_bound) deepest = &bm;
    const int depth = opts.get_int("depth", deepest->suggested_bound);
    const std::size_t num_policies = policies.size();

    Timer independent_timer;
    for (std::size_t p = 0; p < num_policies; ++p) {
      bmc::SharedTape own(deepest->net, 0);
      own.ensure_depth(depth);
      sat::Solver solver;
      bmc::OriginMap origin;
      bmc::SolverSink sink(solver, origin);
      bmc::ClauseTape::Cursor cursor;
      own.replay_to(depth, cursor, sink);
    }
    const double independent_sec = independent_timer.elapsed_sec();

    Timer shared_timer;
    bmc::SharedTape shared(deepest->net, 0);
    shared.ensure_depth(depth);
    for (std::size_t p = 0; p < num_policies; ++p) {
      sat::Solver solver;
      bmc::OriginMap origin;
      bmc::SolverSink sink(solver, origin);
      bmc::ClauseTape::Cursor cursor;
      shared.replay_to(depth, cursor, sink);
    }
    const double shared_sec = shared_timer.elapsed_sec();

    std::printf(
        "\nrace setup on %s (depth %d, %zu policies): per-policy encode "
        "%.4fs, encode-once %.4fs (%.2fx)\n",
        deepest->name.c_str(), depth, num_policies, independent_sec,
        shared_sec, shared_sec > 0.0 ? independent_sec / shared_sec : 0.0);
    json.key("race_setup");
    json.begin_object();
    json.kv("model", deepest->name);
    json.kv("depth", depth);
    json.kv("policies", static_cast<std::uint64_t>(num_policies));
    json.kv("per_policy_encode_sec", independent_sec);
    json.kv("encode_once_sec", shared_sec);
    json.kv("speedup",
            shared_sec > 0.0 ? independent_sec / shared_sec : 0.0);
    json.end_object();
  }

  // ---- (d) traced race: one full-exchange race under the obs layer --------
  // Records the race timeline (per-depth encode/simplify/solve spans,
  // solver milestones, job lifecycle) and exports it as Chrome
  // trace-event JSON — TRACE_race.json rides along with BENCH_*.json as
  // a CI artifact and opens in Perfetto with one track per entrant.
  {
    const model::Benchmark& bm = suite.front();
    bmc::EngineConfig engine;
    engine.max_depth = opts.get_int("depth", bm.suggested_bound);
    engine.total_time_limit_sec = budget;
    obs::TraceConfig tc;
    tc.buffer_events = 64 * 1024;
    obs::trace_begin(tc);
    obs::trace_set_thread_track("driver");
    PortfolioScheduler racer_rank(static_cast<int>(policies.size()));
    const RaceResult traced = racer_rank.race(bm.net, 0, engine, policies);
    const obs::TraceDump dump = obs::trace_end();
    const bool trace_written =
        obs::write_chrome_trace_file("TRACE_race.json", dump);
    std::printf(
        "\ntraced race on %s: %llu events, %zu tracks, %llu dropped%s\n",
        bm.name.c_str(),
        static_cast<unsigned long long>(dump.total_events()),
        dump.tracks.size(),
        static_cast<unsigned long long>(dump.total_dropped()),
        trace_written ? " -> TRACE_race.json"
                      : " (could not write TRACE_race.json)");
    json.key("trace");
    json.begin_object();
    json.kv("model", bm.name);
    json.kv("file", "TRACE_race.json");
    json.kv("written", trace_written);
    json.kv("tracks", static_cast<std::uint64_t>(dump.tracks.size()));
    json.kv("events", dump.total_events());
    json.kv("dropped_events", dump.total_dropped());
    json.kv("cancel_latency_us", traced.cancel_latency_us);
    json.end_object();
    max_cancel_latency = std::max(max_cancel_latency,
                                  traced.cancel_latency_us);
  }

  // ---- (e) tape preprocessing: clause reduction and solve-time ratio ------
  // The PR 7 claim: BVE + subsumption over the encoded tape shrinks the
  // formula every scratch entrant replays, without changing any verdict.
  // Per model: formula size at the suggested bound with and without the
  // pass, plus a single-engine solve either way (same policy, same
  // budget) for the end-to-end ratio.
  std::uint64_t total_vars_eliminated = 0, total_clauses_subsumed = 0;
  std::uint64_t total_preprocess_us = 0;
  {
    std::printf("\ntape preprocessing (BVE + subsumption at the bound)\n");
    std::printf("%-26s %6s %9s %9s %7s %10s %10s %7s\n", "model", "depth",
                "clauses", "simpl", "red%", "plain(s)", "prep(s)", "ratio");
    json.key("preprocess");
    json.begin_array();
    for (const auto& bm : suite) {
      const int depth = opts.get_int("depth", bm.suggested_bound);

      bmc::PreprocessOptions po;
      po.enabled = true;
      bmc::SharedTape tape(bm.net, 0, {}, po);
      const std::uint64_t plain_clauses = tape.mark_at(depth).clauses;
      const std::uint64_t simpl_clauses = tape.simplified_clauses_at(depth);
      const bmc::PreprocessStats ps = tape.preprocess_stats_at(depth);
      // Reserve heuristic (PR 10): the same frames encoded into a bare
      // tape (geometric vector growth) vs through SharedTape's
      // netlist-derived per-frame reserve — the capacity overshoot the
      // estimate trades away.
      bmc::ClauseTape bare_tape;
      {
        bmc::FrameEncoder bare_enc(bm.net, bare_tape);
        bare_enc.encode_to(depth);
      }
      bmc::SharedTape reserved_tape(bm.net, 0, {});
      reserved_tape.mark_at(depth);
      const std::uint64_t tape_bytes_before = bare_tape.memory_bytes();
      const std::uint64_t tape_bytes_after = reserved_tape.memory_bytes();
      const double reduction =
          plain_clauses > 0
              ? 1.0 - static_cast<double>(simpl_clauses) /
                          static_cast<double>(plain_clauses)
              : 0.0;

      bmc::EngineConfig plain_cfg;
      plain_cfg.policy = bmc::OrderingPolicy::Dynamic;
      plain_cfg.max_depth = depth;
      plain_cfg.total_time_limit_sec = budget;
      bmc::EngineConfig prep_cfg = plain_cfg;
      prep_cfg.preprocess.enabled = true;
      prep_cfg.solver.inprocess.vivify_interval = 8;

      Timer plain_timer;
      bmc::BmcEngine plain_engine(bm.net, plain_cfg);
      const bmc::BmcResult plain_result = plain_engine.run();
      const double plain_sec = plain_timer.elapsed_sec();
      Timer prep_timer;
      bmc::BmcEngine prep_engine(bm.net, prep_cfg);
      const bmc::BmcResult prep_result = prep_engine.run();
      const double prep_sec = prep_timer.elapsed_sec();
      const double solve_ratio = plain_sec > 0.0 ? prep_sec / plain_sec : 0.0;
      const bool verdicts_match = plain_result.status == prep_result.status;

      total_vars_eliminated += ps.vars_eliminated;
      total_clauses_subsumed += ps.clauses_subsumed;
      total_preprocess_us += ps.preprocess_us;
      std::printf("%-26s %6d %9llu %9llu %6.1f%% %10.3f %10.3f %7.2f%s\n",
                  bm.name.c_str(), depth,
                  static_cast<unsigned long long>(plain_clauses),
                  static_cast<unsigned long long>(simpl_clauses),
                  100.0 * reduction, plain_sec, prep_sec, solve_ratio,
                  verdicts_match ? "" : "  VERDICT MISMATCH");
      json.begin_object();
      json.kv("name", bm.name);
      json.kv("depth", depth);
      json.kv("clauses_plain", plain_clauses);
      json.kv("clauses_simplified", simpl_clauses);
      json.kv("clause_reduction", reduction);
      json.kv("vars_eliminated", ps.vars_eliminated);
      json.kv("clauses_subsumed", ps.clauses_subsumed);
      json.kv("lits_strengthened", ps.lits_strengthened);
      json.kv("preprocess_us", ps.preprocess_us);
      json.kv("tape_bytes_before", tape_bytes_before);
      json.kv("tape_bytes_after", tape_bytes_after);
      json.kv("plain_sec", plain_sec);
      json.kv("preprocess_sec", prep_sec);
      json.kv("solve_ratio_vs_plain", solve_ratio);
      json.kv("verdicts_match", verdicts_match);
      json.end_object();
    }
    json.end_array();
  }

  const double total_ratio = total_best > 0.0 ? total_race / total_best : 0.0;
  std::printf(
      "\nTOTAL best %.3fs, race %.3fs (ratio %.2f), sharing race %.3fs "
      "(%llu exported, %llu imported), rank-sharing race %.3fs "
      "(%llu cores published, %llu refreshes)\n",
      total_best, total_race, total_ratio, total_race_share,
      static_cast<unsigned long long>(total_exported),
      static_cast<unsigned long long>(total_imported), total_race_rank,
      static_cast<unsigned long long>(total_published),
      static_cast<unsigned long long>(total_refreshes));
  json.kv("total_best_sec", total_best);
  json.kv("total_race_sec", total_race);
  json.kv("total_ratio", total_ratio);
  json.kv("total_race_share_sec", total_race_share);
  json.kv("total_share_ratio_vs_plain",
          total_race > 0.0 ? total_race_share / total_race : 0.0);
  json.kv("total_clauses_exported", total_exported);
  json.kv("total_clauses_imported", total_imported);
  json.kv("total_race_rank_sec", total_race_rank);
  json.kv("total_rank_ratio_vs_share",
          total_race_share > 0.0 ? total_race_rank / total_race_share : 0.0);
  json.kv("total_ranks_published", total_published);
  json.kv("total_rank_refreshes", total_refreshes);
  json.kv("max_cancel_latency_us", max_cancel_latency);
  json.kv("total_vars_eliminated", total_vars_eliminated);
  json.kv("total_clauses_subsumed", total_clauses_subsumed);
  json.kv("total_preprocess_us", total_preprocess_us);
  json.end_object();

  if (!json.write_file("BENCH_portfolio.json"))
    std::fprintf(stderr, "warning: could not write BENCH_portfolio.json\n");
  else
    std::printf("wrote BENCH_portfolio.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_portfolio: %s\n", e.what());
    return 2;
  }
}
