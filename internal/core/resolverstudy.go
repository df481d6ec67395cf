package core

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/analysis"
	"repro/internal/atlas"
	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// This file is the §4.2 resolver-study engine, the Figure 3 twin of
// the survey engine (engine.go): the same plan/execute/merge split
// over a fleet of resolvers instead of a universe of domains.
//
//   - Plan: PlanResolverJobs turns a resolved ResolverStudySpec into
//     serializable ResolverShardJobs over index-pure respop.ShardPlans.
//   - Execute: ResolverShardRunner.Execute deploys one shard's slice
//     of the fleet on its own simulated network (testbed zones shared
//     through the sign cache), probes it, and classifies every
//     transcript into a serializable ResolverShardOutcome.
//   - Merge: ResolverReportBuilder folds outcomes — in any order,
//     each shard exactly once — into the final ResolverStudyReport.
//
// ResolverStudySpec implements Study over these layers:
// RunResolverStudy drives it through Run, internal/distsurvey across
// processes. Because respop assignments are index-pure, peak memory is
// O(one shard's resolvers): the paper's full 105.2 K + 6.8 K + 1.2 K +
// 0.7 K validator fleet (ScaleDen=1) runs in the same footprint as the
// 1:200 default.

// installScanResolver registers a Cloudflare-like recursive resolver
// on a hierarchy's network (the measurement resolver of §4.1) and
// returns its address. reg (nil ok) receives the resolver's metrics.
func installScanResolver(h *testbed.Hierarchy, reg *obs.Registry) netip.AddrPort {
	addr := netsim.Addr4(1, 1, 1, 1)
	res := resolver.New(resolver.Config{
		Roots:           h.Roots,
		TrustAnchor:     h.TrustAnchor,
		Exchanger:       h.Net,
		Policy:          respop.Cloudflare.Policy,
		Now:             func() uint32 { return DefaultNow },
		MaxCacheEntries: 1 << 16,
		Obs:             reg,
	})
	h.Net.Register(addr, res)
	return addr
}

// ResolverShardJob is the pure, serializable description of one unit
// of resolver-study work: which study (Spec + ConfigHash) and which
// slice of its fleet (Plan).
type ResolverShardJob struct {
	Spec ResolverStudySpec `json:"spec"`
	Plan respop.ShardPlan  `json:"plan"`
	// ConfigHash is Spec.Hash(), carried explicitly so executors can
	// refuse jobs from a different study without recomputing.
	ConfigHash string `json:"config_hash"`
}

// deployConfig is the respop configuration the spec pins. Every layer
// derives it through here, so planner and jobs can never disagree.
func (s ResolverStudySpec) deployConfig() respop.DeployConfig {
	return respop.DeployConfig{
		Counts: respop.DefaultCounts(s.ScaleDen),
		Seed:   s.Seed + 11,
		Now:    func() uint32 { return DefaultNow },
	}
}

// PlanResolverJobs splits the study described by spec into one
// ResolverShardJob per shard. Jobs are independent: each can be
// executed by any process, in any order.
func PlanResolverJobs(spec ResolverStudySpec) ([]ResolverShardJob, error) {
	p, err := respop.NewPlanner(spec.deployConfig())
	if err != nil {
		return nil, err
	}
	hash := spec.Hash()
	plans := p.Plan(spec.Shards)
	jobs := make([]ResolverShardJob, len(plans))
	for i, pl := range plans {
		jobs[i] = ResolverShardJob{Spec: spec, Plan: pl, ConfigHash: hash}
	}
	return jobs, nil
}

// Plan, NewRunner, NewBuilder and ShardOf make the resolver study a
// Study.
func (s ResolverStudySpec) Plan() ([]ResolverShardJob, error) { return PlanResolverJobs(s) }

func (s ResolverStudySpec) NewRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) Runner[ResolverShardJob, *ResolverShardOutcome] {
	return NewResolverShardRunner(reg, trace, cache)
}

func (s ResolverStudySpec) NewBuilder() Builder[*ResolverShardOutcome, *ResolverStudyReport] {
	return NewResolverReportBuilder(s)
}

func (s ResolverStudySpec) ShardOf(o *ResolverShardOutcome) (int, bool) {
	if o == nil {
		return 0, false
	}
	return o.Index, true
}

// ResolverShardOutcome is the serializable result of executing one
// ResolverShardJob. All fields round-trip through JSON unchanged, so a
// distributed run's report is byte-identical to an in-process one.
type ResolverShardOutcome struct {
	// Index is the shard ordinal the outcome belongs to.
	Index int `json:"index"`
	// Series holds the shard-local Figure 3 tallies per quadrant
	// (raw counts — they merge exactly).
	Series map[respop.Quadrant]*analysis.RCodeSeries `json:"series"`
	// PerQuadrant aggregates the Items 6–12 statistics per quadrant.
	PerQuadrant map[respop.Quadrant]*compliance.ResolverAggregate `json:"per_quadrant"`
	// Deployed counts resolvers per quadrant in this shard.
	Deployed map[respop.Quadrant]int `json:"deployed"`
	// ProbeFailures counts probes that yielded no transcript.
	ProbeFailures int `json:"probe_failures"`
}

// ResolverShardRunner executes ResolverShardJobs: the per-process
// machinery shared by every shard it runs — the sign cache
// deduplicating testbed signing across shard worlds, and the obs
// counters (all no-op without a registry). Execute is sequential; a
// runner is not safe for concurrent Execute calls.
type ResolverShardRunner struct {
	reg   *obs.Registry
	trace *obs.Tracer
	cache *testbed.SignCache

	mProbeFail *obs.Counter
	mProbed    map[respop.Quadrant]*obs.Counter
	mShards    *obs.Counter
	mSigned    *obs.Counter
	mReused    *obs.Counter

	// The planner is cached across Execute calls for one study; a job
	// for a different spec rebuilds it.
	planner     *respop.Planner
	plannerSpec ResolverStudySpec
}

// NewResolverShardRunner prepares a runner whose metrics land in reg
// and whose phase spans land in trace (both may be nil). The cache may
// be nil for a fresh sign cache.
func NewResolverShardRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) *ResolverShardRunner {
	if cache == nil {
		cache = testbed.NewSignCache()
	}
	return &ResolverShardRunner{
		reg:        reg,
		trace:      trace,
		cache:      cache,
		mProbeFail: reg.Counter("resolverstudy_probe_failures_total", "resolver probes that yielded no transcript (cancelled or errored)"),
		mProbed: map[respop.Quadrant]*obs.Counter{
			respop.OpenIPv4:   reg.Counter("resolverstudy_probed_open_ipv4_total", "open IPv4 resolvers probed to a transcript"),
			respop.OpenIPv6:   reg.Counter("resolverstudy_probed_open_ipv6_total", "open IPv6 resolvers probed to a transcript"),
			respop.ClosedIPv4: reg.Counter("resolverstudy_probed_closed_ipv4_total", "closed IPv4 resolvers probed to a transcript via Atlas"),
			respop.ClosedIPv6: reg.Counter("resolverstudy_probed_closed_ipv6_total", "closed IPv6 resolvers probed to a transcript via Atlas"),
		},
		mShards: reg.Counter("resolverstudy_shards_completed_total", "resolver-study shards executed to completion"),
		mSigned: reg.Counter("resolverstudy_zones_signed_total", "testbed zones signed fresh across shard worlds"),
		mReused: reg.Counter("resolverstudy_zones_reused_total", "testbed zones served from the sign cache"),
	}
}

// ensurePlanner returns the cached planner for the job's study,
// rebuilding it when the study changes.
func (run *ResolverShardRunner) ensurePlanner(spec ResolverStudySpec) (*respop.Planner, error) {
	if run.planner == nil || run.plannerSpec != spec {
		p, err := respop.NewPlanner(spec.deployConfig())
		if err != nil {
			return nil, err
		}
		run.planner, run.plannerSpec = p, spec
	}
	return run.planner, nil
}

// probeSlot collects one probe's result by its fleet index, so the
// classification order below is the fleet order — never goroutine
// completion order.
type probeSlot struct {
	tr  *testbed.Transcript
	err error
}

// Execute runs one ResolverShardJob end to end — build the testbed
// world on its own network, deploy the shard's slice of the fleet,
// probe it, classify — and returns the shard's serializable outcome.
// The outcome depends only on the job, never on which process or in
// which order shards execute.
func (run *ResolverShardRunner) Execute(ctx context.Context, job ResolverShardJob) (*ResolverShardOutcome, error) {
	if want := job.Spec.Hash(); job.ConfigHash != "" && job.ConfigHash != want {
		return nil, fmt.Errorf("core: resolver shard job %d carries config hash %s, spec hashes to %s",
			job.Plan.Index, job.ConfigHash, want)
	}
	planner, err := run.ensurePlanner(job.Spec)
	if err != nil {
		return nil, err
	}

	deploySpan := run.trace.Start("deploy", job.Plan.Index)
	// Each shard gets its own simulated network, so peak memory is one
	// shard's resolvers; the testbed zones are identical across shards
	// and signed once through the shared cache.
	h, err := BuildTestbedWorld(job.Spec.Seed+uint64(job.Plan.Index),
		testbed.WithLazySigning(), testbed.WithCache(run.cache))
	if err != nil {
		return nil, err
	}
	instances, err := respop.DeployShard(h, planner, job.Plan)
	if err != nil {
		return nil, err
	}
	deploySpan.End()

	out := &ResolverShardOutcome{
		Index:       job.Plan.Index,
		Series:      make(map[respop.Quadrant]*analysis.RCodeSeries),
		PerQuadrant: make(map[respop.Quadrant]*compliance.ResolverAggregate),
		Deployed:    make(map[respop.Quadrant]int),
	}
	var open, closed []*respop.Instance
	for _, inst := range instances {
		out.Deployed[inst.Quadrant]++
		switch inst.Quadrant {
		case respop.OpenIPv4, respop.OpenIPv6:
			open = append(open, inst)
		default:
			// Closed resolvers are reachable only from their own
			// network: measured through the Atlas platform.
			closed = append(closed, inst)
		}
	}

	probeSpan := run.trace.Start("probe", job.Plan.Index)
	// Open resolvers: probed directly, results collected by index.
	slots := make([]probeSlot, len(open))
	sem := make(chan struct{}, job.Spec.Workers)
	var wg sync.WaitGroup
	for i, inst := range open {
		wg.Add(1)
		go func(i int, inst *respop.Instance) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				slots[i] = probeSlot{err: ctx.Err()}
				return
			}
			defer func() { <-sem }()
			// The fleet index makes the cache-busting label unique
			// across shards and processes.
			unique := fmt.Sprintf("open-%d", inst.Index)
			tr, err := testbed.ProbeResolver(ctx, h.Net, inst.Addr, unique)
			slots[i] = probeSlot{tr: tr, err: err}
			release(h, inst)
		}(i, inst)
	}
	wg.Wait()

	// Closed resolvers via the Atlas platform (EDE-less transcripts),
	// probe IDs pinned to fleet indexes so labels and result order are
	// shard-independent.
	platform := &atlas.Platform{Exchanger: h.Net, MaxConcurrent: job.Spec.Workers}
	probes := make([]atlas.Probe, len(closed))
	for i, inst := range closed {
		probes[i] = atlas.Probe{
			ID:       inst.Index,
			Resolver: inst.Addr,
			IPv6:     inst.Quadrant == respop.ClosedIPv6,
		}
	}
	measured := platform.Measure(ctx, probes, "closed")
	for _, inst := range closed {
		release(h, inst)
	}
	probeSpan.End()

	mergeSpan := run.trace.Start("merge", job.Plan.Index)
	defer mergeSpan.End()
	classify := func(inst *respop.Instance, tr *testbed.Transcript, err error) {
		if err != nil || tr == nil {
			out.ProbeFailures++
			run.mProbeFail.Inc()
			return
		}
		run.mProbed[inst.Quadrant].Inc()
		agg := out.PerQuadrant[inst.Quadrant]
		if agg == nil {
			agg = compliance.NewResolverAggregate()
			out.PerQuadrant[inst.Quadrant] = agg
		}
		c := compliance.ClassifyResolver(tr)
		agg.Add(c)
		if !c.IsValidator {
			return
		}
		s := out.Series[inst.Quadrant]
		if s == nil {
			s = analysis.NewRCodeSeries(inst.Quadrant.String())
			out.Series[inst.Quadrant] = s
		}
		s.Observe(tr)
	}
	for i, inst := range open {
		classify(inst, slots[i].tr, slots[i].err)
	}
	for i, inst := range closed {
		classify(inst, measured[i].Transcript, measured[i].Err)
	}

	// Signing-work accounting once the shard's traffic has drained:
	// lazy thunks run from query-handling goroutines, so totals are
	// only final here.
	signed, reused := h.SignStats()
	run.mSigned.Add(uint64(signed))
	run.mReused.Add(uint64(reused))
	run.mShards.Inc()
	return out, nil
}

// release takes a probed resolver off the shard's network and drops
// the instance's reference to it. A probe is the resolver's whole
// life, so its caches become garbage now rather than when the shard
// ends: the shard's live heap stays at the resolvers still probing.
func release(h *testbed.Hierarchy, inst *respop.Instance) {
	h.Net.Unregister(inst.Addr)
	inst.Resolver = nil
}

// ResolverStudyReport is the §5.2 output.
type ResolverStudyReport struct {
	// Series holds one Figure 3 subfigure per quadrant.
	Series map[respop.Quadrant]*analysis.RCodeSeries
	// PerQuadrant aggregates the Items 6–12 statistics per quadrant.
	PerQuadrant map[respop.Quadrant]*compliance.ResolverAggregate
	// Overall aggregates across all quadrants.
	Overall *compliance.ResolverAggregate
	// Deployed counts resolvers per quadrant.
	Deployed map[respop.Quadrant]int
	// Population is the plan-layer probed population per quadrant at
	// the study's scale: the paper's 1.9 M open + 2.5 K closed
	// resolvers, of which the deployed fleet is the validator subset.
	Population map[respop.Quadrant]int
	// ProbeFailures counts probes that yielded no transcript.
	ProbeFailures int
}

// ResolverReportBuilder folds ResolverShardOutcomes into the final
// ResolverStudyReport. Add accepts outcomes in any order but each
// shard index exactly once.
type ResolverReportBuilder struct {
	shardSet
	report *ResolverStudyReport
}

// NewResolverReportBuilder prepares an empty report for the study
// described by spec.
func NewResolverReportBuilder(spec ResolverStudySpec) *ResolverReportBuilder {
	return &ResolverReportBuilder{
		shardSet: make(shardSet),
		report: &ResolverStudyReport{
			Series:      make(map[respop.Quadrant]*analysis.RCodeSeries),
			PerQuadrant: make(map[respop.Quadrant]*compliance.ResolverAggregate),
			Overall:     compliance.NewResolverAggregate(),
			Deployed:    make(map[respop.Quadrant]int),
			Population:  respop.PopulationCounts(spec.ScaleDen),
		},
	}
}

// Add merges one shard's outcome. A second outcome for the same shard
// returns *DuplicateShardError and changes nothing.
func (b *ResolverReportBuilder) Add(o *ResolverShardOutcome) error {
	if o == nil {
		return fmt.Errorf("core: nil resolver shard outcome")
	}
	if err := b.claim(o.Index); err != nil {
		return err
	}
	for q, s := range o.Series {
		dst := b.report.Series[q]
		if dst == nil {
			dst = analysis.NewRCodeSeries(q.String())
			b.report.Series[q] = dst
		}
		dst.Merge(s)
	}
	for q, agg := range o.PerQuadrant {
		dst := b.report.PerQuadrant[q]
		if dst == nil {
			dst = compliance.NewResolverAggregate()
			b.report.PerQuadrant[q] = dst
		}
		dst.Merge(agg)
		b.report.Overall.Merge(agg)
	}
	for q, n := range o.Deployed {
		b.report.Deployed[q] += n
	}
	b.report.ProbeFailures += o.ProbeFailures
	return nil
}

// Finish returns the report.
func (b *ResolverReportBuilder) Finish() *ResolverStudyReport { return b.report }

// RunResolverStudy runs the whole study in-process through Run: plan
// the shard jobs, execute each sequentially (testbed signing shared
// through one cache), merge. Peak memory is O(one shard's resolvers).
func RunResolverStudy(ctx context.Context, cfg ResolverStudyConfig) (*ResolverStudyReport, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return Run(ctx, spec, cfg.Obs, cfg.Trace)
}

// BuildTestbedWorld assembles root + com + the rfc9276 testbed on a
// fresh simulated network — the §4.2 infrastructure. The zones are
// identical across builds for the same constants, so they are marked
// Shared: with a sign cache attached (WithCache), repeated shard
// worlds reuse one signing of each zone.
func BuildTestbedWorld(seed uint64, opts ...testbed.BuilderOption) (*testbed.Hierarchy, error) {
	b := testbed.NewBuilder(DefaultInception, DefaultExpiration, opts...)
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
		Shared: true,
	})
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.MustParseName("com"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
		Server: netsim.Addr4(192, 5, 6, 30),
		Shared: true,
	})
	testbed.InstallTestbed(b, netsim.Addr4(203, 0, 113, 10), netsim.Addr6(0x10))
	return b.Build(netsim.NewNetwork(seed))
}
