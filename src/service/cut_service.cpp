#include "service/cut_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "cutting/basis.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/variants.hpp"
#include "service/circuit_hash.hpp"
#include "telemetry/trace.hpp"

namespace qcut::service {

using cutting::ChainNeglectSpec;
using cutting::CutRequest;
using cutting::CutResponse;
using cutting::CutRunOptions;
using cutting::FragmentGraph;
using cutting::FragmentVariantKey;
using cutting::GoldenMode;
using cutting::NeglectSpec;

CutService::CutService(backend::Backend& backend, CutServiceOptions options)
    : backend_(backend),
      pool_(options.pool != nullptr ? *options.pool : parallel::ThreadPool::global()),
      backend_identity_(options.backend_identity.empty() ? backend.identity()
                                                         : std::move(options.backend_identity)),
      prefix_batching_(options.prefix_batching),
      metrics_(options.metrics != nullptr ? *options.metrics
                                          : telemetry::MetricsRegistry::global()),
      cache_(options.cache_capacity, &metrics_, options.cache_max_bytes),
      scheduler_(cache_, &metrics_),
      dispatcher_(pool_, options.dispatch_width, &metrics_),
      retry_(options.retry),
      sleeper_(options.sleeper ? std::move(options.sleeper) : default_sleeper()),
      clock_(options.clock ? std::move(options.clock) : MonotonicClock(monotonic_now_ns)),
      admission_(options.admission),
      jobs_submitted_(metrics_.counter("service.jobs_submitted")),
      jobs_completed_(metrics_.counter("service.jobs_completed")),
      jobs_failed_(metrics_.counter("service.jobs_failed")),
      waves_(metrics_.counter("service.waves")),
      active_jobs_gauge_(metrics_.gauge("service.active_jobs")),
      wave_variants_(metrics_.histogram("service.wave_variants",
                                        telemetry::exponential_bounds(1.0, 2.0, 12))),
      retries_(metrics_.counter("service.retries")),
      variants_neglected_(metrics_.counter("service.variants_neglected")),
      deadline_exceeded_(metrics_.counter("service.deadline_exceeded")),
      cancelled_(metrics_.counter("service.cancelled")),
      backoff_seconds_(metrics_.histogram("service.backoff_seconds",
                                          telemetry::exponential_bounds(0.001, 2.0, 12))),
      admission_rejected_(metrics_.counter("service.admission_rejected")),
      load_shed_(metrics_.counter("service.load_shed")),
      queue_depth_gauge_(metrics_.gauge("service.queue_depth")),
      // 100us .. ~7min in powers of 4: queue waits span instant admission
      // on an idle service to deep-backlog waits under sustained overload.
      wait_interactive_(metrics_.histogram("service.tenant_wait_seconds.interactive",
                                           telemetry::exponential_bounds(1e-4, 4.0, 12))),
      wait_standard_(metrics_.histogram("service.tenant_wait_seconds.standard",
                                        telemetry::exponential_bounds(1e-4, 4.0, 12))),
      wait_batch_(metrics_.histogram("service.tenant_wait_seconds.batch",
                                     telemetry::exponential_bounds(1e-4, 4.0, 12))),
      scheduler_thread_([this] { scheduler_loop(); }) {}

CutService::~CutService() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  scheduler_thread_.join();
}

std::future<CutResponse> CutService::submit(CutRequest request) {
  return submit_job(std::move(request)).future;
}

CutService::SubmittedJob CutService::submit_job(CutRequest request) {
  cutting::validate(request);  // eager: reject malformed requests before queuing

  // Absolute deadline on the service clock, fixed NOW: queue time - and any
  // bounded-block wait below - counts against it. A deadline already
  // unmeetable is rejected here, before it occupies queue space or a worker.
  const std::uint64_t submit_ns = clock_();
  std::uint64_t deadline_ns = 0;
  if (request.deadline_seconds.has_value()) {
    deadline_ns = submit_ns + static_cast<std::uint64_t>(*request.deadline_seconds * 1e9);
  }
  if (request.deadline_at_ns.has_value()) {
    deadline_ns = deadline_ns == 0 ? *request.deadline_at_ns
                                   : std::min(deadline_ns, *request.deadline_at_ns);
  }
  if (deadline_ns != 0 && deadline_ns <= submit_ns) {
    deadline_exceeded_->add();
    throw DeadlineExceeded(
        "CutService: request deadline expired before submission (deadline_at_ns " +
        std::to_string(deadline_ns) + " <= now " + std::to_string(submit_ns) + ")");
  }

  const JobCost cost = estimate_job_cost(request);
  SubmittedJob handle;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto current_load = [this] {
      return AdmissionLoad{active_jobs_, admitted_variants_, admitted_bytes_};
    };
    if (!admits(admission_, current_load(), cost)) {
      bool admitted = false;
      if (admission_.block && !never_admits(admission_, cost)) {
        // Cooperative mode: wait in bounded slices for budget to drain. The
        // injected clock bounds the total wait; the slice duration merely
        // sets the polling cadence when a notify is missed.
        const std::uint64_t block_deadline_ns =
            submit_ns + static_cast<std::uint64_t>(admission_.max_block_seconds * 1e9);
        while (!admitted && clock_() < block_deadline_ns &&
               (deadline_ns == 0 || clock_() < deadline_ns)) {
          admission_cv_.wait_for(lock, std::chrono::milliseconds(5));
          admitted = admits(admission_, current_load(), cost);
        }
      }
      if (!admitted) {
        if (deadline_ns != 0 && clock_() >= deadline_ns) {
          deadline_exceeded_->add();
          throw DeadlineExceeded(
              "CutService: request deadline expired while blocked at admission");
        }
        const AdmissionLoad load = current_load();
        ResourceExhausted::Details details;
        details.queued_jobs = load.jobs;
        details.max_queued_jobs = admission_.max_queued_jobs;
        details.in_flight_variants = load.variants;
        details.max_in_flight_variants = admission_.max_in_flight_variants;
        details.in_flight_bytes = load.bytes;
        details.max_in_flight_bytes = admission_.max_in_flight_bytes;
        details.retry_after_seconds = retry_after_hint(admission_, load, cost);
        admission_rejected_->add();
        throw ResourceExhausted(
            "CutService: admission rejected (" + std::to_string(load.jobs) +
                " active jobs, ~" + std::to_string(load.variants) +
                " in-flight variants); retry after " +
                std::to_string(details.retry_after_seconds) + " s",
            details);
      }
    }

    jobs_submitted_->add();
    JobPtr job = std::make_shared<CutJob>(next_job_id_++, std::move(request));
    handle.id = job->id;
    handle.future = job->promise.get_future();
    job->deadline_ns = deadline_ns;
    job->submit_ns = submit_ns;
    job->tenant_key = tenant_dispatch_key(job->request);
    job->effective_weight =
        job->request.tenant_weight * priority_multiplier(job->request.priority);
    job->admitted_variants = cost.variants;
    job->admitted_bytes = cost.bytes;
    admitted_variants_ += cost.variants;
    admitted_bytes_ += cost.bytes;
    ++active_jobs_;
    active_jobs_gauge_->set(static_cast<std::int64_t>(active_jobs_));
    jobs_.emplace(job->id, job);
    ready_.push_back(std::move(job));
    queue_depth_gauge_->set(static_cast<std::int64_t>(ready_.size()));
  }
  wake_.notify_one();
  return handle;
}

bool CutService::cancel(std::uint64_t job_id) {
  JobPtr job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;  // unknown or already finished
    job = it->second;
  }
  // Takes effect at the next wave boundary (or before any not-yet-started
  // variant group runs); the job's in-flight keys drain through the
  // scheduler, so nothing is stranded. A backend call already executing is
  // not interrupted - a stuck backend must be unblocked at the backend
  // (e.g. FaultInjectingBackend::abort_hangs).
  job->cancel_requested.store(true);
  return true;
}

CutResponse CutService::run(const CutRequest& request) { return submit(request).get(); }

void CutService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return active_jobs_ == 0; });
}

CutServiceStats CutService::stats() const {
  CutServiceStats out;
  out.jobs_submitted = jobs_submitted_->value();
  out.jobs_completed = jobs_completed_->value();
  out.jobs_failed = jobs_failed_->value();
  out.jobs_rejected = admission_rejected_->value();
  out.jobs_shed = load_shed_->value();
  out.scheduler = scheduler_.stats();
  out.cache = cache_.stats();
  out.telemetry = metrics_.snapshot();
  return out;
}

void CutService::record_job_phase(CutJob& job, const char* name, std::uint64_t start_ns,
                                  std::uint64_t end_ns, std::uint32_t depth) {
  if (!job.traced) return;
  const std::uint64_t dur_ns = end_ns - start_ns;
  telemetry::Tracer::global().record_on(job.trace_track, name, start_ns, dur_ns, depth);
  job.response.phase_seconds.emplace_back(name, static_cast<double>(dur_ns) * 1e-9);
}

void CutService::scheduler_loop() {
  for (;;) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stopping, and nothing left to drive
      job = std::move(ready_.front());
      ready_.pop_front();
      queue_depth_gauge_->set(static_cast<std::int64_t>(ready_.size()));
    }
    try {
      advance(job);
    } catch (...) {
      fail(job, std::current_exception());
    }
  }
}

void CutService::enqueue_ready(const JobPtr& job) {
  // Notify while holding the lock: this runs on pool threads, and an
  // unlocked notify could touch the condition variable after the owner has
  // observed completion (via wait_idle or the job future) and destroyed the
  // service. Holding the mutex pins the service until the notify returns.
  std::lock_guard<std::mutex> lock(mutex_);
  ready_.push_back(job);
  queue_depth_gauge_->set(static_cast<std::int64_t>(ready_.size()));
  wake_.notify_one();
}

void CutService::advance(const JobPtr& job) {
  if (job->phase == JobPhase::Done || job->phase == JobPhase::Failed) return;
  // Stop conditions (cancellation, deadline) are checked at every wave
  // boundary and win over wave failures: a cancelled job fails with
  // CancelledError even if its last wave also saw backend errors.
  if (std::exception_ptr stop = job_stop_error(*job)) {
    fail(job, std::move(stop));
    return;
  }
  if (job->phase != JobPhase::Queued && job->failed.load()) {
    if (std::exception_ptr error = handle_wave_failures(job)) {
      fail(job, std::move(error));
      return;
    }
    // Every failure was neglected (OnVariantFailure::Neglect): the failed
    // variants are out of the reconstruction and the job proceeds.
  }
  switch (job->phase) {
    case JobPhase::Queued:
      admit(job);
      break;
    case JobPhase::ExecutingFragments:
      absorb_wave(job);
      reconstruct_and_finish(job);
      break;
    case JobPhase::ExecutingFragmentWave:
      absorb_wave(job);
      if (job->wave_fragment + 1 < job->response.graph.num_fragments()) {
        handle_fragment_wave_complete(job);
      } else {
        reconstruct_and_finish(job);
      }
      break;
    case JobPhase::Reconstructing:
    case JobPhase::Done:
    case JobPhase::Failed:
      break;
  }
}

namespace {

/// Wave over one fragment's required variants, in packed-key order.
std::vector<WaveVariant> fragment_wave(const FragmentGraph& graph, const ChainNeglectSpec& spec,
                                       int fragment) {
  std::vector<WaveVariant> wave;
  for (const FragmentVariantKey& key :
       cutting::required_fragment_variants(graph, fragment, spec)) {
    wave.push_back(WaveVariant{fragment, key});
  }
  return wave;
}

/// Wave over every fragment, fragment-major: the direct execute_chain order.
std::vector<WaveVariant> full_wave(const FragmentGraph& graph, const ChainNeglectSpec& spec) {
  std::vector<WaveVariant> wave;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    const std::vector<WaveVariant> fragment = fragment_wave(graph, spec, f);
    wave.insert(wave.end(), fragment.begin(), fragment.end());
  }
  return wave;
}

}  // namespace

void CutService::admit(const JobPtr& job) {
  CutJob& j = *job;
  j.total_timer.reset();

  // Queue wait (submit to the scheduler picking the job up), per class:
  // the fairness observable the weighted scheduler is judged on.
  const double wait_seconds = static_cast<double>(clock_() - j.submit_ns) * 1e-9;
  switch (j.request.priority) {
    case cutting::PriorityClass::Interactive: wait_interactive_->record(wait_seconds); break;
    case cutting::PriorityClass::Standard: wait_standard_->record(wait_seconds); break;
    case cutting::PriorityClass::Batch: wait_batch_->record(wait_seconds); break;
  }

  // Pressure-adaptive degradation, decided once per job at admit time.
  maybe_shed(j);

  // A traced job gets its own virtual tracer track ("job <id>"): the job
  // hops between the scheduler thread and pool workers, so phase spans are
  // recorded from measured timestamps instead of thread-bound RAII scopes.
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (telemetry::enabled()) {
    j.traced = true;
    j.trace_track = tracer.alloc_track("job " + std::to_string(j.id));
    j.job_start_ns = tracer.now_ns();
  }

  // Resolve target and cut selection: Pauli targets become a rotated
  // circuit plus a Z-form diagonal observable; Auto[Chain]Plan runs the
  // planner (observable-aware for single-boundary observable targets).
  // Planning runs here on the scheduler thread deliberately: offloading it
  // to the shared pool lets blocked backend executions starve another
  // request's planning (priority inversion - the in-flight-dedup liveness
  // test deadlocks on a 1-worker pool), while the scheduler thread is
  // always free between waves.
  j.resolved = cutting::resolve(j.request);
  if (j.traced) record_job_phase(j, "job.plan", j.job_start_ns, tracer.now_ns());
  CutResponse& r = j.response;
  r.boundaries = j.resolved.boundaries;
  r.cuts = j.resolved.flat_cuts();
  r.plan = j.resolved.plan;
  r.chain_plan = j.resolved.chain_plan;
  r.plan_seconds = j.resolved.plan_seconds;
  r.graph = cutting::make_fragment_chain(j.resolved.circuit, r.boundaries);
  const FragmentGraph& graph = r.graph;
  r.data = cutting::make_chain_data(graph);

  const CutRunOptions& opt = j.request.options;
  switch (opt.golden_mode) {
    case GoldenMode::None:
      r.specs = ChainNeglectSpec::none(graph);
      break;
    case GoldenMode::Provided: {
      std::vector<NeglectSpec> specs = opt.provided_spec.has_value()
                                           ? std::vector<NeglectSpec>{*opt.provided_spec}
                                           : opt.provided_boundary_specs;
      QCUT_CHECK(static_cast<int>(specs.size()) == graph.num_boundaries(),
                 "CutRequest: provided specs cover " + std::to_string(specs.size()) +
                     " boundaries but the chain has " +
                     std::to_string(graph.num_boundaries()));
      for (int b = 0; b < graph.num_boundaries(); ++b) {
        QCUT_CHECK(specs[static_cast<std::size_t>(b)].num_cuts() ==
                       graph.boundaries[static_cast<std::size_t>(b)].num_cuts(),
                   "CutRequest: provided spec of boundary " + std::to_string(b) +
                       " covers " +
                       std::to_string(specs[static_cast<std::size_t>(b)].num_cuts()) +
                       " cuts but the boundary has " +
                       std::to_string(
                           graph.boundaries[static_cast<std::size_t>(b)].num_cuts()));
      }
      r.specs = ChainNeglectSpec(std::move(specs));
      break;
    }
    case GoldenMode::DetectExact: {
      // Per boundary: observable targets use the observable-specific
      // detector on the boundary's prefix/suffix two-fragment graph, which is
      // weaker than the distribution-level test and so neglects at least as
      // many elements (Definition 1 is observable-dependent). When the
      // observable does not factorize across a boundary the distribution-
      // level spec applies there - it is the stronger requirement, valid
      // for any target - mirroring the observable-aware planner's fallback
      // so an auto-planned cut never fails here.
      const std::uint64_t detect_start_ns = j.traced ? tracer.now_ns() : 0;
      // A shed job detects with its loosened tolerance: more elements pass
      // the golden test, fewer variants execute - the paper's cost dial
      // turned by load. The summed violation of everything neglected is an
      // L1-style bound on what the neglect may cost, surfaced in the
      // degradation report.
      const double golden_tol = j.shed ? j.shed_golden_tol : opt.golden_tol;
      std::vector<NeglectSpec> specs;
      for (const std::vector<circuit::WirePoint>& boundary : r.boundaries) {
        const FragmentGraph split = cutting::make_fragment_graph(j.resolved.circuit, boundary);
        std::optional<cutting::GoldenDetectionReport> observable_report;
        if (j.resolved.observable.has_value()) {
          observable_report = cutting::try_detect_golden_for_observable(
              split, *j.resolved.observable, golden_tol);
        }
        const cutting::GoldenDetectionReport report =
            observable_report.has_value() ? *observable_report
                                          : cutting::detect_golden_exact(split, golden_tol);
        if (j.shed) {
          for (std::size_t k = 0; k < report.golden.size(); ++k) {
            for (std::size_t p = 0; p < 4; ++p) {
              if (report.golden[k][p]) j.shed_neglect_mass += report.violation[k][p];
            }
          }
        }
        specs.push_back(report.to_spec());
      }
      r.specs = ChainNeglectSpec(std::move(specs));
      if (j.traced) record_job_phase(j, "job.detect", detect_start_ns, tracer.now_ns());
      break;
    }
    case GoldenMode::DetectOnline: {
      // One wave per fragment: fragment f needs all 3^Kout settings of its
      // outgoing boundary (the detector's input), while its incoming preps
      // already benefit from the pruning of boundary f-1.
      r.specs = ChainNeglectSpec::none(graph);
      j.phase = JobPhase::ExecutingFragmentWave;
      j.wave_fragment = 0;
      j.online_budget_remaining = opt.total_shot_budget;
      issue_wave(job, fragment_wave(graph, r.specs, 0));
      return;
    }
  }

  j.phase = JobPhase::ExecutingFragments;
  issue_wave(job, full_wave(graph, r.specs));
}

void CutService::maybe_shed(CutJob& job) {
  if (!job.request.load_shed.has_value() || admission_.shed_watermark_jobs == 0) return;
  bool over_watermark;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    over_watermark = active_jobs_ > admission_.shed_watermark_jobs;
  }
  if (!over_watermark) return;

  const cutting::LoadShedPolicy& policy = *job.request.load_shed;
  job.shed = true;
  job.shed_shot_fraction = policy.shot_fraction;
  job.shed_golden_tol = job.request.options.golden_tol * policy.golden_tol_multiplier;
  load_shed_->add();

  cutting::CutRunOptions& opt = job.request.options;
  if (!opt.exact && policy.shot_fraction < 1.0) {
    if (opt.shots_per_variant > 0) {
      opt.shots_per_variant = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(
                 static_cast<double>(opt.shots_per_variant) * policy.shot_fraction)));
    }
    if (opt.total_shot_budget > 0) {
      // Never scale below one shot per (estimated) variant: a budget that
      // cannot cover the variants would fail validation, and shedding must
      // degrade a job, not kill it.
      opt.total_shot_budget = std::max<std::size_t>(
          static_cast<std::size_t>(job.admitted_variants),
          static_cast<std::size_t>(std::llround(
              static_cast<double>(opt.total_shot_budget) * policy.shot_fraction)));
    }
  }
}

void CutService::release_admission_locked(CutJob& job) {
  admitted_variants_ -= job.admitted_variants;
  admitted_bytes_ -= job.admitted_bytes;
  --active_jobs_;
  active_jobs_gauge_->set(static_cast<std::int64_t>(active_jobs_));
  // Notify under the lock: blocked submitters hold a service reference, so
  // the cv outlives this call only while the mutex pins the service.
  admission_cv_.notify_all();
}

void CutService::issue_wave(const JobPtr& job, const std::vector<WaveVariant>& variants) {
  CutJob& j = *job;
  const FragmentGraph& graph = j.response.graph;
  const CutRunOptions& opt = j.request.options;
  QCUT_CHECK(opt.exact || opt.shots_per_variant > 0 || opt.total_shot_budget > 0,
             "execute_chain: need shots_per_variant or total_shot_budget when sampling");

  // DetectOnline on an N>2 chain amortizes ONE total budget across the
  // per-fragment waves: each wave draws remaining / waves_left, so the job
  // never spends more than total_shot_budget overall. At N=2 each of the
  // two waves plans the whole budget.
  std::size_t wave_budget = opt.total_shot_budget;
  const bool amortized = j.phase == JobPhase::ExecutingFragmentWave &&
                         graph.num_fragments() > 2 && opt.total_shot_budget > 0;
  if (amortized) {
    const int waves_left = graph.num_fragments() - j.wave_fragment;
    wave_budget = j.online_budget_remaining / static_cast<std::size_t>(waves_left);
    QCUT_CHECK(wave_budget >= variants.size(),
               "DetectOnline: total_shot_budget too small to cover one shot per variant of "
               "each fragment wave (wave " +
                   std::to_string(j.wave_fragment) + " of " +
                   std::to_string(graph.num_fragments()) + " gets " +
                   std::to_string(wave_budget) + " shots for " +
                   std::to_string(variants.size()) + " variants)");
  }

  WavePlan plan = plan_wave(variants, opt.shots_per_variant, wave_budget, opt.exact);
  if (amortized) {
    j.online_budget_remaining -= std::min<std::size_t>(j.online_budget_remaining,
                                                       plan.planned_total_shots);
  }

  cutting::ChainFragmentData& data = j.response.data;
  j.wave_smallest_share = plan.smallest_share;
  const bool first_wave =
      j.phase == JobPhase::ExecutingFragments || j.wave_fragment == 0;
  if (first_wave) {
    // Later online waves keep the first wave's value, mirroring the
    // historical upstream/downstream merge.
    data.shots_per_variant = plan.smallest_share;
  }
  data.total_jobs += plan.slots.size();
  data.total_shots += plan.planned_total_shots;

  j.slots = std::move(plan.slots);
  j.wave_timer.reset();
  waves_->add();
  wave_variants_->record(static_cast<double>(j.slots.size()));
  if (j.traced) j.wave_start_ns = telemetry::Tracer::global().now_ns();

  if (j.slots.empty()) {
    enqueue_ready(job);
    return;
  }

  // Prepare every request before issuing any: a throw while issuing would
  // strand the wave's pending count.
  std::vector<PreparedVariant> prepared;
  prepared.reserve(j.slots.size());
  for (const VariantSlot& slot : j.slots) {
    PreparedVariant p;
    p.circuit = cutting::make_fragment_variant(graph, slot.fragment, slot.key).circuit;
    p.seed_stream = opt.seed_stream_base + cutting::fragment_seed_offset(slot.fragment) +
                    cutting::variant_seed_index(graph, slot.fragment, slot.key);
    p.shots = slot.shots;
    p.key = hash_variant_execution(p.circuit, p.shots, opt.exact, p.seed_stream,
                                   backend_identity_);
    prepared.push_back(std::move(p));
  }

  j.pending.store(j.slots.size());
  std::vector<VariantScheduler::BatchItem> items;
  items.reserve(prepared.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    auto on_ready = [this, job, i](CachedDistribution result, std::exception_ptr error,
                                   VariantSource source) {
      CutJob& owner = *job;
      if (error != nullptr) {
        // Collect every slot failure; the scheduler thread resolves them at
        // the wave boundary (enriched Fail error or per-variant Neglect).
        {
          std::lock_guard<std::mutex> lock(owner.failure_mutex);
          owner.failures.push_back(SlotFailure{i, error});
        }
        owner.failed.store(true);
      } else {
        owner.slots[i].result = std::move(result);
        switch (source) {
          case VariantSource::Executed:
            owner.accounting.variants_executed.fetch_add(1);
            owner.accounting.shots_executed.fetch_add(owner.slots[i].shots);
            break;
          case VariantSource::Cache:
            owner.accounting.variants_from_cache.fetch_add(1);
            break;
          case VariantSource::SharedInFlight:
            owner.accounting.variants_shared.fetch_add(1);
            break;
        }
      }
      if (owner.pending.fetch_sub(1) == 1) enqueue_ready(job);
    };
    items.push_back(VariantScheduler::BatchItem{prepared[i].key, std::move(on_ready)});
  }

  // Cache hits and in-flight joins resolve inside request_batch; the
  // surviving variants come back as `to_launch` and are executed in
  // shared-prefix groups, one Backend::run_batch per group on the pool.
  // Per-variant shots, seed streams, and cache keys are untouched, so the
  // executed results are bit-for-bit those of per-variant backend.run
  // calls (the run_batch determinism contract).
  scheduler_.request_batch(std::move(items), [&](const std::vector<std::size_t>& to_launch) {
    launch_variant_groups(job, prepared, to_launch, opt.exact);
  });
}

void CutService::launch_variant_groups(const JobPtr& job,
                                       std::vector<PreparedVariant>& prepared,
                                       const std::vector<std::size_t>& to_launch, bool exact) {
  // Group the surviving variants by longest common circuit prefix; each
  // group becomes one pool task running one backend batch. Without prefix
  // batching every variant is its own group (the per-variant reference
  // path, minus the batch plan).
  std::vector<cutting::PrefixGroup> groups;
  if (prefix_batching_) {
    std::vector<const circuit::Circuit*> circuits;
    circuits.reserve(to_launch.size());
    for (std::size_t idx : to_launch) circuits.push_back(&prepared[idx].circuit);
    groups = cutting::group_by_shared_prefix(circuits);
  } else {
    groups.reserve(to_launch.size());
    for (std::size_t i = 0; i < to_launch.size(); ++i) {
      groups.push_back(cutting::PrefixGroup{prepared[to_launch[i]].circuit.num_ops(), {i}});
    }
  }

  for (cutting::PrefixGroup& group : groups) {
    // Everything the task needs, moved out of the wave-local state: the
    // task may outlive issue_wave's stack frame.
    struct GroupTask {
      backend::BatchRequest batch;
      std::vector<Hash128> keys;
      JobPtr owner;                    // the issuing job, for stop checks
      std::uint64_t retry_stream = 0;  // jitter stream: first member's seed stream
    };
    auto task = std::make_shared<GroupTask>();
    task->owner = job;
    task->batch.exact = exact;
    // No intra-task pool: the task itself runs on a pool worker, and a
    // nested parallel wait could deadlock a saturated pool. Parallelism
    // comes from running many group tasks concurrently.
    task->batch.pool = nullptr;
    task->batch.jobs.reserve(group.members.size());
    task->keys.reserve(group.members.size());
    for (std::size_t member : group.members) {
      PreparedVariant& p = prepared[to_launch[member]];
      task->batch.jobs.push_back(
          backend::BatchJob{std::move(p.circuit), p.shots, p.seed_stream});
      task->keys.push_back(p.key);
    }
    if (group.members.size() > 1) {
      task->batch.groups.push_back(backend::BatchPrefixGroup{group.prefix_ops, {}});
      auto& all = task->batch.groups.back().jobs;
      all.resize(task->batch.jobs.size());
      for (std::size_t m = 0; m < all.size(); ++m) all[m] = m;
    }
    task->retry_stream = task->batch.jobs.front().seed_stream;
    // Weighted-fair release into the pool: the dispatcher grants pool slots
    // across tenants by stride, so one job's large wave cannot monopolize
    // the workers. Execution order changes nothing but wall clock - seed
    // streams are per variant, so results stay bit-for-bit identical.
    dispatcher_.submit(job->tenant_key, job->effective_weight, [this, task]() {
      // A job already past its deadline (or cancelled) drains its claimed
      // keys without touching the backend; the wave's pending count reaches
      // zero through the failure callbacks and the scheduler thread fails
      // the job with the stop error.
      if (std::exception_ptr stop = job_stop_error(*task->owner)) {
        scheduler_.complete_failed(task->keys, stop);
        return;
      }
      std::vector<CachedDistribution> results(task->keys.size());
      std::exception_ptr error;
      for (std::size_t attempt = 1;; ++attempt) {
        error = nullptr;
        try {
          backend::BatchResult batched = backend_.run_batch(task->batch);
          for (std::size_t m = 0; m < task->keys.size(); ++m) {
            std::vector<double> probs = task->batch.exact
                                            ? std::move(batched.probabilities[m])
                                            : batched.counts[m].to_probabilities();
            results[m] = std::make_shared<const std::vector<double>>(std::move(probs));
          }
          break;
        } catch (const TransientError&) {
          // Retry the IDENTICAL batch (circuits, shots, seed streams are
          // untouched): per the backend contract a throwing call was
          // side-effect-free, so a retried success is bit-for-bit the
          // fault-free result. Backoff delays shape wall time only.
          error = std::current_exception();
          if (attempt >= retry_.max_attempts) break;
          if (job_stop_error(*task->owner) != nullptr) break;
          retries_->add();
          const double delay =
              backoff_seconds(retry_, attempt, task->retry_stream);
          backoff_seconds_->record(delay);
          sleeper_(delay);
        } catch (...) {
          error = std::current_exception();  // permanent: never retried
          break;
        }
      }
      if (error != nullptr) {
        // Fail every key of the group atomically: waiters re-requesting a
        // key claim a fresh execution, never a half-failed group. Failures
        // never enter the cache.
        scheduler_.complete_failed(task->keys, error);
        return;
      }
      // One complete() per claimed key: no key is ever left in flight.
      for (std::size_t m = 0; m < task->keys.size(); ++m) {
        scheduler_.complete(task->keys[m], std::move(results[m]), nullptr);
      }
    });
  }
}

void CutService::absorb_wave(const JobPtr& job) {
  CutJob& j = *job;
  if (j.traced) {
    record_job_phase(j, "job.wave", j.wave_start_ns, telemetry::Tracer::global().now_ns());
  }
  cutting::ChainFragmentData& data = j.response.data;
  data.wall_seconds += j.wave_timer.elapsed_seconds();
  for (const VariantSlot& slot : j.slots) {
    // A null result is a neglected failure (OnVariantFailure::Neglect):
    // the variant was dropped from reconstruction, so it contributes no
    // distribution - and never poisons the per-fragment data.
    if (slot.result == nullptr) continue;
    data.fragments[static_cast<std::size_t>(slot.fragment)].variants.emplace(
        cutting::pack_variant_key(slot.key), *slot.result);
  }
  j.slots.clear();
  j.slots.shrink_to_fit();
}

void CutService::handle_fragment_wave_complete(const JobPtr& job) {
  CutJob& j = *job;
  const FragmentGraph& graph = j.response.graph;
  const int f = j.wave_fragment;
  const cutting::ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];

  // A degraded wave (neglected variant of this fragment) has incomplete
  // measured data, so the statistical detector cannot run on boundary f:
  // keep the spec as-is (no golden pruning beyond the fault-forced drops)
  // and move on. Conservative - extra variants execute downstream - but
  // never wrong.
  for (const cutting::NeglectedVariant& neglected : j.neglected) {
    if (neglected.fragment == f) {
      ++j.wave_fragment;
      issue_wave(job, fragment_wave(graph, j.response.specs, j.wave_fragment));
      return;
    }
  }

  // Incoming prep contexts actually executed (pruned by boundary f-1).
  const std::vector<std::uint32_t> contexts =
      f > 0 ? cutting::required_prep_indices(j.response.specs.boundary(f - 1))
            : std::vector<std::uint32_t>{0};

  // Smallest per-variant shot count of this wave as the test's sample size
  // (conservative when a total budget splits unevenly).
  const std::uint64_t detect_start_ns =
      j.traced ? telemetry::Tracer::global().now_ns() : 0;
  const cutting::GoldenDetectionReport detection = cutting::detect_golden_from_counts_core(
      fragment, contexts.size(),
      [&](std::size_t context, std::uint32_t setting) -> const std::vector<double>& {
        return j.response.data.distribution(f, FragmentVariantKey{contexts[context], setting});
      },
      j.wave_smallest_share, j.request.options.online);
  j.response.specs.boundary(f) = detection.to_spec();
  if (j.traced) {
    record_job_phase(j, "job.detect", detect_start_ns, telemetry::Tracer::global().now_ns());
  }

  ++j.wave_fragment;
  issue_wave(job, fragment_wave(graph, j.response.specs, j.wave_fragment));
}

void CutService::reconstruct_and_finish(const JobPtr& job) {
  CutJob& j = *job;
  j.phase = JobPhase::Reconstructing;
  j.response.fragment_seconds = j.response.data.wall_seconds;
  finalize_degradation(j);

  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const std::uint64_t reconstruct_start_ns = j.traced ? tracer.now_ns() : 0;
  cutting::ReconstructionOptions recon;
  // Job-level pool override wins; otherwise reconstruction shares the
  // service pool, like variant execution. (Reconstruction chunking is
  // computed from the term count alone, so the result is bit-for-bit
  // identical to the direct path at ANY pool size — the pool only sets the
  // wall clock.)
  recon.pool = j.request.options.pool != nullptr ? j.request.options.pool : &pool_;
  j.response.reconstruction = cutting::reconstruct_distribution(
      j.response.graph, j.response.data, j.response.specs, recon);

  if (j.resolved.observable.has_value()) {
    // Same fold as reconstruct_diagonal_expectation over the same raw
    // reconstruction: bit-for-bit identical to the direct expectation path
    // at equal pools.
    j.response.expectation =
        j.resolved.observable->expectation(j.response.reconstruction.raw_probabilities);
    if (j.traced) record_job_phase(j, "job.reconstruct", reconstruct_start_ns, tracer.now_ns());
    if (j.request.bootstrap.has_value()) {
      const std::uint64_t bootstrap_start_ns = j.traced ? tracer.now_ns() : 0;
      j.response.uncertainty =
          cutting::bootstrap_expectation(j.response.graph, j.response.data, j.response.specs,
                                         *j.resolved.observable, *j.request.bootstrap);
      if (j.traced) record_job_phase(j, "job.bootstrap", bootstrap_start_ns, tracer.now_ns());
    }
  } else if (j.traced) {
    record_job_phase(j, "job.reconstruct", reconstruct_start_ns, tracer.now_ns());
  }
  j.response.total_seconds = j.total_timer.elapsed_seconds();
  if (j.traced) {
    // The enclosing "job" span last: depth 0, containing every phase above.
    record_job_phase(j, "job", j.job_start_ns, tracer.now_ns(), /*depth=*/0);
    j.response.telemetry = metrics_.snapshot();
  }

  // Physical backend usage attributed to this job: variants served from the
  // cache or shared with a twin request consumed nothing. Device seconds
  // cannot be attributed per-job through the Backend stats API; the
  // synchronous qcut::run wrapper samples backend stats around its private
  // service instead.
  j.response.backend_delta.jobs = j.accounting.variants_executed.load();
  j.response.backend_delta.shots = j.accounting.shots_executed.load();
  j.response.backend_delta.simulated_device_seconds = 0.0;

  j.phase = JobPhase::Done;
  // Bookkeeping precedes the promise: the promise is the caller's sync
  // point, and stats must already reflect the job when it unblocks.
  jobs_completed_->add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(j.id);
    release_admission_locked(j);
  }
  j.promise.set_value(std::move(j.response));
  idle_.notify_all();
}

void CutService::fail(const JobPtr& job, std::exception_ptr error) {
  CutJob& j = *job;
  if (j.phase == JobPhase::Done || j.phase == JobPhase::Failed) return;
  j.phase = JobPhase::Failed;
  if (j.traced) {
    record_job_phase(j, "job", j.job_start_ns, telemetry::Tracer::global().now_ns(),
                     /*depth=*/0);
  }
  jobs_failed_->add();
  // Classify the terminal error for the fault-tolerance counters (exactly
  // once per job: fail() is idempotent via the phase check above).
  if (error != nullptr) {
    try {
      std::rethrow_exception(error);
    } catch (const DeadlineExceeded&) {
      deadline_exceeded_->add();
    } catch (const CancelledError&) {
      cancelled_->add();
    } catch (...) {
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(j.id);
    release_admission_locked(j);
  }
  // Drop the job's own exception copies before delivery; the promise's
  // shared state then holds the only long-lived reference, and the wave
  // bookkeeping above is already final.
  j.error = nullptr;
  {
    std::lock_guard<std::mutex> lock(j.failure_mutex);
    j.failures.clear();
  }
  if (error == nullptr) {
    error = std::make_exception_ptr(Error("CutService: job failed without a cause"));
  }
  j.promise.set_exception(std::move(error));
  idle_.notify_all();
}

std::exception_ptr CutService::job_stop_error(CutJob& job) {
  if (job.cancel_requested.load()) {
    return std::make_exception_ptr(
        CancelledError("CutService: job " + std::to_string(job.id) + " was cancelled"));
  }
  if (job.deadline_ns != 0 && clock_() >= job.deadline_ns) {
    std::string message =
        "CutService: job " + std::to_string(job.id) + " exceeded its deadline";
    if (job.request.deadline_seconds.has_value()) {
      message += " of " + std::to_string(*job.request.deadline_seconds) + " s";
    }
    return std::make_exception_ptr(DeadlineExceeded(std::move(message)));
  }
  return nullptr;
}

std::exception_ptr CutService::handle_wave_failures(const JobPtr& job) {
  CutJob& j = *job;
  std::vector<SlotFailure> failures;
  {
    std::lock_guard<std::mutex> lock(j.failure_mutex);
    failures.swap(j.failures);
  }
  j.failed.store(false);  // the wave's failures are resolved here
  if (failures.empty()) return nullptr;

  if (j.request.on_variant_failure == cutting::OnVariantFailure::Fail) {
    // Propagate the first failure, enriched with the failing variant's
    // identity and the wave's co-failure count; the taxonomy type
    // (Transient/Permanent/...) survives the re-wrap (with_context).
    const SlotFailure& first = failures.front();
    const VariantSlot& slot = j.slots[first.slot];
    std::string context = "CutService: variant (fragment " + std::to_string(slot.fragment) +
                          ", prep " + std::to_string(slot.key.prep_index) + ", setting " +
                          std::to_string(slot.key.setting_index) + ") failed";
    if (failures.size() > 1) {
      context += " [+" + std::to_string(failures.size() - 1) + " co-failed variant" +
                 (failures.size() > 2 ? "s" : "") + "]";
    }
    return with_context(first.error, context);
  }

  // OnVariantFailure::Neglect: drop each failed variant from reconstruction
  // exactly as a neglected basis element is dropped - the job survives, and
  // the induced error is bounded in the response's degradation report.
  for (const SlotFailure& failure : failures) {
    const VariantSlot& slot = j.slots[failure.slot];
    std::string what = "unknown error";
    try {
      std::rethrow_exception(failure.error);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    j.neglected.push_back(
        cutting::NeglectedVariant{slot.fragment, slot.key, std::move(what)});
    apply_variant_drop(j, slot.fragment, slot.key);
    variants_neglected_->add();
  }
  return nullptr;
}

void CutService::apply_variant_drop(CutJob& job, int fragment,
                                    cutting::FragmentVariantKey key) {
  cutting::ChainNeglectSpec& specs = job.response.specs;
  const int num_boundaries = job.response.graph.num_boundaries();
  if (job.dropped_strings.empty()) {
    job.dropped_strings.assign(static_cast<std::size_t>(num_boundaries), 0);
  }
  // A non-terminal fragment's variant is addressed by its *outgoing*
  // setting: neglecting every active string with that setting at boundary
  // `fragment` removes every reconstruction term that needs the variant.
  // The last fragment has no outgoing boundary, so its variant is addressed
  // by its *incoming* prep at the final boundary instead.
  const bool outgoing = fragment < num_boundaries;
  const int b = outgoing ? fragment : fragment - 1;
  NeglectSpec& spec = specs.boundary(b);
  const int num_cuts = spec.num_cuts();
  std::uint64_t dropped = 0;
  for (const std::vector<cutting::Pauli>& basis : spec.active_strings()) {
    bool drop = false;
    if (outgoing) {
      drop = cutting::settings_index_for_basis(basis) == key.setting_index;
    } else {
      const std::uint32_t slots_end = 1u << num_cuts;
      for (std::uint32_t a = 0; a < slots_end && !drop; ++a) {
        drop = cutting::preps_index_for_basis(basis, a) == key.prep_index;
      }
    }
    if (drop) {
      spec.neglect_string(basis);
      ++dropped;
    }
  }
  job.dropped_strings[static_cast<std::size_t>(b)] += dropped;
}

void CutService::finalize_degradation(CutJob& job) {
  if (job.neglected.empty() && !job.shed) return;
  cutting::DegradationReport report;
  report.neglected_variants = job.neglected;
  const int num_boundaries = job.response.graph.num_boundaries();
  // Terms are per-boundary string combinations; every combination's L1
  // contribution to the reconstruction is at most 1 (the quasiprobability
  // coefficient 1/prod_b 2^K_b times at most prod_b 2^K_b slot terms of
  // unit weight), so the bound is simply the number of dropped
  // combinations.
  std::uint64_t terms_before = 1;
  std::uint64_t terms_after = 1;
  for (int b = 0; b < num_boundaries; ++b) {
    const auto active =
        static_cast<std::uint64_t>(job.response.specs.boundary(b).num_active_strings());
    const std::uint64_t dropped =
        b < static_cast<int>(job.dropped_strings.size())
            ? job.dropped_strings[static_cast<std::size_t>(b)]
            : 0;
    terms_before *= active + dropped;
    terms_after *= active;
    if (dropped > 0) {
      report.boundaries.push_back(cutting::BoundaryDegradation{b, dropped});
    }
  }
  report.terms_dropped = terms_before - terms_after;
  report.error_bound = static_cast<double>(report.terms_dropped);

  report.golden_tol_applied =
      job.shed ? job.shed_golden_tol : job.request.options.golden_tol;
  if (job.shed) {
    report.load_shed = true;
    report.shot_fraction = job.shed_shot_fraction;
    // The loosened tolerance's neglect cost: summed violation mass of the
    // golden-declared elements, an L1-style bound on the reconstruction
    // terms the shed detection dropped.
    report.error_bound += job.shed_neglect_mass;
    if (!job.request.options.exact && job.shed_shot_fraction < 1.0) {
      report.sampling_inflation = 1.0 / std::sqrt(job.shed_shot_fraction);
      const std::uint64_t actual = job.response.data.total_shots;
      const auto intended = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(actual) / job.shed_shot_fraction));
      report.shots_shed = intended > actual ? intended - actual : 0;
    }
  }
  job.response.degradation = std::move(report);
}

}  // namespace qcut::service
