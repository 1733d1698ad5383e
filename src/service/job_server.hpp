// JobServer: the persistent async front end over the portfolio — BMC as
// a service instead of one process per check.
//
//   JobServer server(cfg);
//   auto [accepted, id, why] = server.submit(std::move(request), opts);
//   ... poll(id) -> Queued / Running (with per-depth progress) / Done
//   ... cancel(id), or let the per-job deadline evict it
//
// One object owns the whole serving state:
//
//   * admission   — a bounded queue with three priority classes (High >
//                   Normal > Batch within FIFO); a full queue or a
//                   shutting-down server rejects with a typed reason
//                   instead of blocking the client;
//   * execution   — `workers` executor threads, each draining the
//                   highest-priority job into api::check; per-job
//                   deadlines are enforced at depth boundaries by the
//                   engine's own budget machinery (a job that expires
//                   while still queued is evicted without running);
//   * cancel      — rides the engines' cooperative stop flag: cancel()
//                   returns immediately, the race winds down within one
//                   solver checkpoint;
//   * results     — a ResultCache memo keyed by (netlist hash, bad,
//                   depth, config fingerprint): resubmitting an
//                   identical job returns the verdict + trace verbatim,
//                   no solving (poll shows from_cache);
//   * warm start  — the race's merged rank accumulation is snapshotted
//                   per (netlist hash, bad index, weighting) after every
//                   solve and seeded into the next race on the same
//                   property, so a resubmitted-but-not-identical job
//                   (deeper bound, new budget) starts from a refined
//                   ordering instead of re-learning it
//                   (bmc::SharedRankSource::seed).  The store holds at
//                   most cache_capacity snapshots, least recently used
//                   evicted first;
//   * metrics     — queue depth, admission rejects, cache hit rate and
//                   deadline evictions through obs::MetricsRegistry
//                   (server.* namespace), when metrics are enabled.
//
// Thread-safe throughout; poll/events/stats take copies under the mutex.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/refbmc.hpp"
#include "bmc/ranking.hpp"
#include "service/result_cache.hpp"

namespace refbmc::service {

using JobId = std::uint64_t;

/// Admission classes, drained strictly high-to-low (FIFO within one).
enum class Priority { High = 0, Normal = 1, Batch = 2 };
inline const char* to_string(Priority p) {
  switch (p) {
    case Priority::High: return "high";
    case Priority::Normal: return "normal";
    case Priority::Batch: return "batch";
  }
  return "?";
}
std::optional<Priority> parse_priority(const std::string& name);

enum class JobState {
  Queued,
  Running,
  Done,              // api::check returned (verdict or its own budget)
  Cancelled,         // cancel() — queued or running
  DeadlineExceeded,  // per-job deadline evicted it (queued or at a depth
                     // boundary while running)
  MemLimitExceeded,  // the race breached its --mem-ceiling (typed, so
                     // clients can resubmit with a higher ceiling rather
                     // than a longer deadline)
  Rejected,          // never admitted; see RejectReason
};
inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::DeadlineExceeded: return "deadline_exceeded";
    case JobState::MemLimitExceeded: return "mem_limit_exceeded";
    case JobState::Rejected: return "rejected";
  }
  return "?";
}
inline bool is_terminal(JobState s) {
  return s != JobState::Queued && s != JobState::Running;
}

/// Why admission said no (typed, so clients can back off vs. give up).
enum class RejectReason { None, QueueFull, ShuttingDown, InvalidRequest };
inline const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::ShuttingDown: return "shutting_down";
    case RejectReason::InvalidRequest: return "invalid_request";
  }
  return "?";
}

/// Per-submission knobs (the request itself carries the race options).
struct JobOptions {
  Priority priority = Priority::Normal;
  /// Wall-clock budget from ADMISSION (not from start): covers queue
  /// wait plus run, enforced at depth boundaries.  <= 0: none (the
  /// server default may still apply).
  double deadline_sec = -1.0;
  bool use_cache = true;
};

/// One per-depth progress tick, the streamable form of bmc::DepthStats
/// (any entrant completing a depth emits one; seq is per-job monotone).
struct ProgressEvent {
  std::uint64_t seq = 0;
  int depth = 0;
  sat::Result result = sat::Result::Unknown;
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;
  double time_sec = 0.0;
};

/// Snapshot of one job, as poll() returns it.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::Queued;
  RejectReason reject = RejectReason::None;
  Priority priority = Priority::Normal;
  std::string name;
  /// Deepest depth any entrant has completed so far, +1 (i.e. a count;
  /// live while Running, final afterwards).
  int depths_completed = 0;
  std::uint64_t events_available = 0;
  double queue_sec = 0.0;  // admission -> start (or eviction)
  double run_sec = 0.0;    // start -> terminal
  /// Valid when state is Done (and from_cache tells how it was served).
  api::CheckResult result;
};

struct ServerConfig {
  int workers = 1;
  std::size_t queue_capacity = 64;  // queued (not running) jobs
  /// Bounds both the result cache and the rank warm-start store.
  std::size_t cache_capacity = 128;
  /// Seed each race's SharedRankSource from the last snapshot persisted
  /// for (netlist hash, bad index, core weighting).
  bool warm_start_ranks = true;
  /// Applied when a submission has no deadline of its own (<= 0: none).
  double default_deadline_sec = -1.0;
};

struct SubmitOutcome {
  bool accepted = false;
  JobId id = 0;  // valid also for rejected jobs (poll shows Rejected)
  RejectReason reason = RejectReason::None;
};

class JobServer {
 public:
  explicit JobServer(ServerConfig config = {});
  ~JobServer();  // shutdown(/*cancel_running=*/true)

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Admission: bounded, never blocks.  The request is moved in — the
  /// server owns the model for the job's whole life.
  SubmitOutcome submit(api::CheckRequest request, JobOptions opts = {});

  /// Snapshot of a job (nullopt: unknown id).
  std::optional<JobStatus> poll(JobId id) const;

  /// Progress events with seq > after_seq, in order — the polling form
  /// of a progress stream (clients pass the last seq they saw).
  std::vector<ProgressEvent> events(JobId id, std::uint64_t after_seq = 0)
      const;

  /// Cooperative cancel; returns false for unknown / already-terminal
  /// jobs.  Queued jobs become Cancelled immediately; running jobs stop
  /// at the next solver checkpoint.
  bool cancel(JobId id);

  /// Blocks until the job is terminal (timeout_sec <= 0: forever).
  /// Returns the final status, or nullopt on timeout / unknown id.
  std::optional<JobStatus> wait(JobId id, double timeout_sec = -1.0);

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_evictions = 0;
    std::uint64_t mem_limit_stops = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t rank_warm_starts = 0;
    std::size_t rank_snapshots = 0;  // warm-start store size
    std::size_t queue_depth = 0;
    std::size_t running = 0;
  };
  Stats stats() const;
  const ResultCache& cache() const { return cache_; }
  const ServerConfig& config() const { return config_; }

  /// Stops admission, drains or cancels, joins the executors.  Queued
  /// jobs are Cancelled; running ones are cancelled too when
  /// `cancel_running` (otherwise they finish).  Idempotent.
  void shutdown(bool cancel_running = true);

 private:
  struct JobRecord {
    JobId id = 0;
    api::CheckRequest request;
    JobOptions opts;
    JobState state = JobState::Queued;
    RejectReason reject = RejectReason::None;
    std::atomic<bool> stop{false};
    std::vector<ProgressEvent> events;
    int depths_completed = 0;
    api::CheckResult result;
    std::uint64_t submit_us = 0;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::uint64_t deadline_us = 0;  // absolute, monotonic axis; 0 = none
  };

  void executor_main();
  /// Runs one admitted job outside the server mutex.
  void run_job(JobRecord& rec);
  void finish(JobRecord& rec, JobState state);  // takes mu_
  double remaining_deadline_sec(const JobRecord& rec) const;

  const ServerConfig config_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // queue non-empty or shutting down
  mutable std::condition_variable done_cv_;  // some job went terminal
  std::array<std::deque<JobId>, 3> queues_;  // by Priority
  std::unordered_map<JobId, std::unique_ptr<JobRecord>> jobs_;
  JobId next_id_ = 1;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  bool shutting_down_ = false;
  Stats stats_;

  /// Rank snapshots per (netlist hash, bad index, weighting) — the
  /// warm-start store, an LRU bounded by cache_capacity (guarded by mu_).
  /// The bad index is part of the key: scores are learned from one
  /// property's cores and would steer another property's search with
  /// the wrong cone.
  struct RankKey {
    std::uint64_t netlist_hash = 0;
    std::uint64_t bad_index = 0;
    int weighting = 0;
    bool operator==(const RankKey&) const = default;
  };
  struct RankKeyHash {
    std::size_t operator()(const RankKey& k) const {
      return static_cast<std::size_t>(
          k.netlist_hash ^ (0x9e3779b97f4a7c15ull * (k.bad_index + 1)) ^
          (0xc2b2ae3d27d4eb4full *
           static_cast<std::uint64_t>(k.weighting + 1)));
    }
  };
  struct RankEntry {
    RankKey key;
    bmc::CoreRanking ranking;
  };
  /// The snapshot for `key`, marked most recently used (null: none).
  const bmc::CoreRanking* rank_lookup_locked(const RankKey& key);
  void rank_store_locked(const RankKey& key, bmc::CoreRanking ranking);
  std::list<RankEntry> rank_lru_;  // front = most recently used
  std::unordered_map<RankKey, std::list<RankEntry>::iterator, RankKeyHash>
      rank_index_;

  std::vector<std::thread> executors_;
};

}  // namespace refbmc::service
