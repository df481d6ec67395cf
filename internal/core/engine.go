package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/scanner"
	"repro/internal/testbed"
)

// This file is the survey engine proper, split into the three layers
// the distributed runner is built from:
//
//   - Plan: PlanJobs turns a resolved SurveySpec into serializable
//     ShardJobs — any process holding a job can execute that shard.
//   - Execute: ShardRunner.Execute runs one job through the existing
//     generate→deploy→scan path and folds the results into a
//     serializable ShardOutcome.
//   - Merge: ReportBuilder folds outcomes — in any order, each shard
//     exactly once — into the final SurveyReport.
//
// SurveySpec implements Study over these layers: RunSurvey (core.go)
// drives it through Run, internal/distsurvey across processes.

// ShardJob is the pure, serializable description of one unit of survey
// work: which survey (Spec + ConfigHash) and which slice of it (Plan).
type ShardJob struct {
	Spec SurveySpec           `json:"spec"`
	Plan population.ShardPlan `json:"plan"`
	// ConfigHash is Spec.Hash(), carried explicitly so executors can
	// refuse jobs from a different survey without recomputing.
	ConfigHash string `json:"config_hash"`
}

// PlanJobs splits the survey described by spec into one ShardJob per
// shard. Jobs are independent: each can be executed by any process, in
// any order.
func PlanJobs(spec SurveySpec) ([]ShardJob, error) {
	p, err := population.NewShardPlanner(population.Config{
		Registered: spec.Registered,
		Seed:       spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	hash := spec.Hash()
	plans := p.Plan(spec.Shards)
	jobs := make([]ShardJob, len(plans))
	for i, pl := range plans {
		jobs[i] = ShardJob{Spec: spec, Plan: pl, ConfigHash: hash}
	}
	return jobs, nil
}

// Plan, NewRunner, NewBuilder and ShardOf make the survey a Study.
func (s SurveySpec) Plan() ([]ShardJob, error) { return PlanJobs(s) }

func (s SurveySpec) NewRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) Runner[ShardJob, *ShardOutcome] {
	return NewShardRunner(reg, trace, cache)
}

func (s SurveySpec) NewBuilder() Builder[*ShardOutcome, *SurveyReport] { return NewReportBuilder(s) }

func (s SurveySpec) ShardOf(o *ShardOutcome) (int, bool) {
	if o == nil {
		return 0, false
	}
	return o.Index, true
}

// ShardOutcome is the serializable result of executing one ShardJob:
// every per-shard aggregate the merge layer needs, nothing else. All
// fields round-trip through JSON unchanged, so a distributed run's
// report is byte-identical to an in-process one.
type ShardOutcome struct {
	// Index is the shard ordinal the outcome belongs to.
	Index int `json:"index"`
	// Agg summarizes the shard's scanned domain classifications.
	Agg *compliance.Aggregate `json:"agg"`
	// Operators feeds Table 2.
	Operators *analysis.OperatorStats `json:"operators"`
	// TLDs is the end-to-end TLD registry scan; only shard 0 carries it
	// (every shard signs the same registry zones, so once is enough).
	TLDs *compliance.Aggregate `json:"tlds,omitempty"`
	// ScanErrors counts domains (and, on shard 0, TLDs) whose scan
	// failed.
	ScanErrors int `json:"scan_errors"`
	// DomainsUnderIDTLDs counts this shard's registered domains under
	// Identity Digital TLDs (AXFR where open, list fallback otherwise).
	DomainsUnderIDTLDs int `json:"domains_under_id_tlds"`
	// TransferredTLDs names the Identity Digital TLD zones this shard
	// obtained via AXFR, sorted.
	TransferredTLDs []string `json:"transferred_tlds,omitempty"`
}

// ShardRunner executes ShardJobs: the per-process machinery shared by
// every shard it runs — the sign cache deduplicating infrastructure
// signing across shard deployments, and the obs counters (all no-op
// without a registry). Execute is sequential; a runner is not safe for
// concurrent Execute calls.
type ShardRunner struct {
	reg   *obs.Registry
	trace *obs.Tracer
	cache *testbed.SignCache

	mScanned  *obs.Counter
	mIterWork *obs.Counter
	mSigned   *obs.Counter
	mReused   *obs.Counter
	mLazy     *obs.Counter
	mUntouch  *obs.Counter
	mShards   *obs.Counter
	mRate     *obs.Gauge

	// Scan-throughput bookkeeping sums span durations so the tracer
	// stays the run's only clock.
	scannedDomains int
	scanSeconds    float64

	// The planner is cached across Execute calls for one survey; a job
	// for a different (Registered, Seed) rebuilds it.
	planner    *population.ShardPlanner
	plannerCfg population.Config
}

// NewShardRunner prepares a runner whose metrics land in reg and whose
// phase spans land in trace (both may be nil). The cache may be nil
// for a fresh sign cache.
func NewShardRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) *ShardRunner {
	if cache == nil {
		cache = testbed.NewSignCache()
	}
	return &ShardRunner{
		reg:       reg,
		trace:     trace,
		cache:     cache,
		mScanned:  reg.Counter("survey_domains_scanned_total", "registered domains scanned successfully"),
		mIterWork: reg.Counter("survey_nsec3_iteration_work_total", "cumulative 1+iterations over scanned NSEC3 zones (Gruza et al. verification cost)"),
		mSigned:   reg.Counter("survey_zones_signed_total", "zones signed fresh (deploy-time or lazily on first query)"),
		mReused:   reg.Counter("survey_zones_reused_total", "zones served from the sign cache"),
		mLazy:     reg.Counter("survey_zones_signed_lazily_total", "zones materialized by their first query instead of at deploy time"),
		mUntouch:  reg.Counter("survey_zones_untouched_total", "deployed zones never queried during their shard — work lazy signing skipped entirely"),
		mShards:   reg.Counter("survey_shards_completed_total", "survey shards executed to completion"),
		mRate:     reg.Gauge("survey_domains_per_second", "cumulative registered-domain scan throughput"),
	}
}

// ensurePlanner returns the cached planner for the job's survey,
// rebuilding it when the survey changes.
func (run *ShardRunner) ensurePlanner(spec SurveySpec) (*population.ShardPlanner, error) {
	cfg := population.Config{Registered: spec.Registered, Seed: spec.Seed}
	if run.planner == nil || run.plannerCfg != cfg {
		p, err := population.NewShardPlanner(cfg)
		if err != nil {
			return nil, err
		}
		run.planner, run.plannerCfg = p, cfg
	}
	return run.planner, nil
}

// Execute runs one ShardJob end to end — generate, deploy onto its own
// simulated network, scan, fold — and returns the shard's serializable
// outcome. The outcome depends only on the job, never on which process
// or in which order shards execute.
func (run *ShardRunner) Execute(ctx context.Context, job ShardJob) (*ShardOutcome, error) {
	if want := job.Spec.Hash(); job.ConfigHash != "" && job.ConfigHash != want {
		return nil, fmt.Errorf("core: shard job %d carries config hash %s, spec hashes to %s",
			job.Plan.Index, job.ConfigHash, want)
	}
	planner, err := run.ensurePlanner(job.Spec)
	if err != nil {
		return nil, err
	}

	gen := run.trace.Start("generate", job.Plan.Index)
	shard, err := planner.GenerateShard(job.Plan)
	gen.End()
	if err != nil {
		return nil, err
	}

	u := shard.Universe
	out := &ShardOutcome{
		Index:     shard.Index,
		Agg:       compliance.NewAggregate(),
		Operators: analysis.NewOperatorStats(),
	}

	deploySpan := run.trace.Start("deploy", shard.Index)
	opts := []population.DeployOption{population.WithSignCache(run.cache)}
	if job.Spec.Signing != SigningEager {
		opts = append(opts, population.WithLazySigning())
	}
	dep, err := population.Deploy(u, netsim.NewNetwork(job.Spec.Seed+uint64(shard.Index)), DefaultInception, DefaultExpiration, opts...)
	if err != nil {
		return nil, err
	}
	dep.Hierarchy.Net.Instrument(run.reg)
	dep.Hierarchy.Instrument(run.reg)
	resolverAddr := installScanResolver(dep.Hierarchy, run.reg)
	sc := scanner.New(scanner.Config{
		Exchanger: dep.Hierarchy.Net,
		Resolver:  resolverAddr,
		Workers:   job.Spec.Workers,
		QPS:       job.Spec.QPS,
		Seed:      job.Spec.Seed + 1 + uint64(shard.Index),
		Obs:       run.reg,
	})
	defer sc.Close()
	deploySpan.End()

	// Scan this shard's registered domains into per-worker sinks.
	names := make([]dnswire.Name, len(u.Domains))
	for i := range u.Domains {
		names[i] = u.Domains[i].Name
	}
	scanSpan := run.trace.Start("scan", shard.Index)
	sinks := make([]*surveySink, 0, job.Spec.Workers)
	err = sc.ScanAll(ctx, scanner.Names(names), func(int) scanner.Sink {
		s := &surveySink{
			agg: compliance.NewAggregate(), ops: analysis.NewOperatorStats(),
			mScanned: run.mScanned, mIterWork: run.mIterWork,
		}
		sinks = append(sinks, s)
		return s
	})
	if err != nil {
		return nil, err
	}
	if shard.Index == 0 {
		if err := run.scanTLDs(ctx, sc, u.TLDs, out); err != nil {
			return nil, err
		}
	}

	// The ≥12.6 M-domains estimate: count delegations in Identity
	// Digital TLD zones obtained via AXFR where the registry opens its
	// zone data (the paper's CZDS/AXFR path), and fall back to our
	// registered-domain list — "necessarily incomplete and therefore
	// only a lower bound" (§5.1) — for the rest.
	idTLD := make(map[string]bool)
	for _, t := range planner.TLDs() {
		if t.Registry == population.IdentityDigitalName {
			idTLD[t.Name] = true
		}
	}
	listCounts := make(map[string]int)
	for i := range u.Domains {
		if idTLD[u.Domains[i].TLD] {
			listCounts[u.Domains[i].TLD]++
		}
	}
	for _, t := range u.TLDs {
		if !idTLD[t.Name] {
			continue
		}
		counted := false
		// A shard-local zone delegates exactly the shard's domains, so
		// for a TLD with none of them the transfer is vacuous: it
		// counts zero delegations and would only force-sign a zone
		// nothing else touches. Shard 0 still transfers every open
		// zone, keeping the transferred set — and the report — exactly
		// what a single-shard run produces.
		if t.OpenZoneData && (shard.Index == 0 || listCounts[t.Name] > 0) {
			apex, err := dnswire.FromLabels(t.Name)
			if err != nil {
				return nil, err
			}
			// The AXFR path force-signs its zone explicitly: under lazy
			// signing a transfer must serve the complete signed zone, so
			// materialize it rather than relying on the query to do it.
			if _, err := dep.Hierarchy.Materialize(ctx, apex); err != nil {
				return nil, err
			}
			rrs, err := scanner.Transfer(ctx, dep.Hierarchy.Net, dep.TLDServers[t.Name], apex)
			if err == nil {
				out.DomainsUnderIDTLDs += scanner.CountDelegations(apex, rrs)
				out.TransferredTLDs = append(out.TransferredTLDs, t.Name)
				counted = true
			}
		}
		if !counted {
			out.DomainsUnderIDTLDs += listCounts[t.Name]
		}
	}
	sort.Strings(out.TransferredTLDs)

	// Signing-work accounting happens once the shard's traffic has
	// drained: lazy thunks run from query-handling goroutines, so the
	// totals are only final here. SignStats folds eager build-time and
	// lazy post-build work together, keeping the signed/reused counters
	// comparable across signing modes.
	signed, reused := dep.Hierarchy.SignStats()
	run.mSigned.Add(uint64(signed))
	run.mReused.Add(uint64(reused))
	materialized, untouched := dep.Hierarchy.LazyStats()
	run.mLazy.Add(uint64(materialized))
	run.mUntouch.Add(uint64(untouched))

	// The tracer owns the wall clock: throughput is derived from span
	// durations rather than read directly, keeping core deterministic.
	run.scannedDomains += len(u.Domains)
	run.scanSeconds += scanSpan.End().Seconds()
	if run.scanSeconds > 0 {
		run.mRate.Set(float64(run.scannedDomains) / run.scanSeconds)
	}

	mergeSpan := run.trace.Start("merge", shard.Index)
	defer mergeSpan.End()
	for _, s := range sinks {
		out.Agg.Merge(s.agg)
		out.Operators.Merge(s.ops)
		out.ScanErrors += s.scanErrors
	}
	run.mShards.Inc()
	return out, nil
}

// scanTLDs pushes the TLD registry through the same scan pipeline,
// folding into the shard-0 outcome.
func (run *ShardRunner) scanTLDs(ctx context.Context, sc *scanner.Scanner, tlds []population.TLDSpec, out *ShardOutcome) error {
	names := make([]dnswire.Name, 0, len(tlds))
	for _, t := range tlds {
		n, err := dnswire.FromLabels(t.Name)
		if err != nil {
			return err
		}
		names = append(names, n)
	}
	var sinks []*surveySink
	err := sc.ScanAll(ctx, scanner.Names(names), func(int) scanner.Sink {
		// TLD scans charge iteration work but not the domain counter —
		// survey_domains_scanned_total means registered domains.
		s := &surveySink{agg: compliance.NewAggregate(), mIterWork: run.mIterWork}
		sinks = append(sinks, s)
		return s
	})
	if err != nil {
		return err
	}
	agg := compliance.NewAggregate()
	for _, s := range sinks {
		agg.Merge(s.agg)
		out.ScanErrors += s.scanErrors
	}
	out.TLDs = agg
	return nil
}

// ReportBuilder folds ShardOutcomes into the final SurveyReport. Add
// accepts outcomes in any order but each shard index exactly once;
// Finish computes the derived figures. The registry-side aggregates
// (TLDAgg) come from the spec, not the outcomes — they are generated,
// not scanned.
type ReportBuilder struct {
	shardSet
	report      *SurveyReport
	transferred map[string]bool
}

// NewReportBuilder prepares an empty report for the survey described
// by spec.
func NewReportBuilder(spec SurveySpec) *ReportBuilder {
	return &ReportBuilder{
		shardSet: make(shardSet),
		report: &SurveyReport{
			Agg:       compliance.NewAggregate(),
			Operators: analysis.NewOperatorStats(),
			TLDAgg:    population.AggregateTLDs(population.GenerateTLDs(spec.Seed)),
		},
		transferred: make(map[string]bool),
	}
}

// Add merges one shard's outcome. A second outcome for the same shard
// returns *DuplicateShardError and changes nothing.
func (b *ReportBuilder) Add(o *ShardOutcome) error {
	if o == nil {
		return fmt.Errorf("core: nil shard outcome")
	}
	if err := b.claim(o.Index); err != nil {
		return err
	}
	b.report.Agg.Merge(o.Agg)
	b.report.Operators.Merge(o.Operators)
	b.report.ScanErrors += o.ScanErrors
	b.report.DomainsUnderIDTLDs += o.DomainsUnderIDTLDs
	if o.TLDs != nil {
		b.report.TLDs = *o.TLDs
	}
	for _, name := range o.TransferredTLDs {
		b.transferred[name] = true
	}
	return nil
}

// Finish computes the derived figures and returns the report.
func (b *ReportBuilder) Finish() *SurveyReport {
	b.report.TLDZonesTransferred = len(b.transferred)
	// Figure 1 CDFs from the merged histograms.
	iterHist := make(map[int]int, len(b.report.Agg.IterationsHist))
	for v, c := range b.report.Agg.IterationsHist {
		iterHist[int(v)] = c
	}
	b.report.IterCDF = analysis.CDFFromHist(iterHist)
	b.report.SaltCDF = analysis.CDFFromHist(b.report.Agg.SaltLenHist)
	return b.report
}
