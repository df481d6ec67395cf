package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/atlas"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/scanner"
	"repro/internal/testbed"
)

// This file rebuilds one survey shard and one resolver-study shard
// from the library's public calls — the same steps, in the same order,
// as core.ShardRunner.Execute and core.ResolverShardRunner.Execute —
// so the traced run can wrap the network seams those runners keep
// private. replica_test.go pins that the replicas' reports equal
// core.RunSurvey's and core.RunResolverStudy's for the same seed.

// replica holds what the traced replicas share across shards.
type replica struct {
	rec   *recorder
	reg   *obs.Registry
	cache *testbed.SignCache
	// authSeen counts authoritative responses for size sampling.
	authSeen atomic.Uint64

	mu        sync.Mutex
	domainLat []time.Duration
	probeLat  []time.Duration
	// Signing work summed over shard worlds, and the authoritative
	// query count of each shard world.
	signed, reused, untouched int
	worldQueries              []int
	closedProbes              int
}

func newReplica() *replica {
	return &replica{rec: newRecorder(), reg: obs.NewRegistry(), cache: testbed.NewSignCache()}
}

// wrapWorld puts every authoritative server of h behind a traced
// handler.
func (rp *replica) wrapWorld(h *testbed.Hierarchy) {
	for addr := range h.Servers {
		rp.rec.wrap(h.Net, addr, kindAuth, &rp.authSeen)
	}
}

// authSpans counts the authoritative spans recorded so far; the
// difference across one shard is that shard world's traffic.
func (rp *replica) authSpans() int {
	rp.rec.mu.Lock()
	defer rp.rec.mu.Unlock()
	n := 0
	for i := range rp.rec.spans {
		if rp.rec.spans[i].kind == kindAuth {
			n++
		}
	}
	return n
}

// timedSink is a scanner sink that times each domain: a worker scans
// its domains one after another, so the gap between two Consume calls
// is one domain's scan.
type timedSink struct {
	rp       *replica
	agg      *compliance.Aggregate
	ops      *analysis.OperatorStats
	errors   int
	last     int64
	lat      []time.Duration
	timeDoms bool
}

func (s *timedSink) Consume(r scanner.Result) {
	if s.timeDoms {
		now := s.rp.rec.now()
		s.lat = append(s.lat, time.Duration(now-s.last))
		s.last = now
	}
	if r.Err != nil {
		s.errors++
		return
	}
	c := compliance.Classify(r.Facts)
	s.agg.Add(c)
	if s.ops != nil && c.NSEC3Enabled {
		s.ops.Add(operatorKeys(r.Facts.NSHosts), c.Iterations, c.SaltLen)
	}
}

// operatorKeys maps NS hosts to their registered domain, the §5.1
// operator attribution core's survey sink uses.
func operatorKeys(hosts []dnswire.Name) []string {
	out := make([]string, 0, len(hosts))
	for _, h := range hosts {
		labels := h.Labels()
		if len(labels) >= 2 {
			out = append(out, labels[len(labels)-2]+"."+labels[len(labels)-1])
		} else {
			out = append(out, h.String())
		}
	}
	return out
}

// scan runs names through sc into fresh sinks and returns them.
func (rp *replica) scan(ctx context.Context, sc *scanner.Scanner, names []dnswire.Name, domains bool) ([]*timedSink, error) {
	var sinks []*timedSink
	start := rp.rec.now()
	err := sc.ScanAll(ctx, scanner.Names(names), func(int) scanner.Sink {
		s := &timedSink{rp: rp, agg: compliance.NewAggregate(), last: start, timeDoms: domains}
		if domains {
			s.ops = analysis.NewOperatorStats()
		}
		sinks = append(sinks, s)
		return s
	})
	if domains {
		rp.mu.Lock()
		for _, s := range sinks {
			rp.domainLat = append(rp.domainLat, s.lat...)
		}
		rp.mu.Unlock()
	}
	return sinks, err
}

// executeSurveyShard is core.ShardRunner.Execute rebuilt with traced
// seams.
func (rp *replica) executeSurveyShard(ctx context.Context, planner *population.ShardPlanner, job core.ShardJob) (*core.ShardOutcome, error) {
	spec := job.Spec
	var shard *population.Shard
	if err := rp.rec.phase("population.generate", func() (err error) {
		shard, err = planner.GenerateShard(job.Plan)
		return err
	}); err != nil {
		return nil, err
	}
	u := shard.Universe
	out := &core.ShardOutcome{
		Index:     shard.Index,
		Agg:       compliance.NewAggregate(),
		Operators: analysis.NewOperatorStats(),
	}

	var dep *population.Deployment
	if err := rp.rec.phase("population.deploy", func() (err error) {
		opts := []population.DeployOption{population.WithSignCache(rp.cache)}
		if spec.Signing != core.SigningEager {
			opts = append(opts, population.WithLazySigning())
		}
		dep, err = population.Deploy(u, netsim.NewNetwork(spec.Seed+uint64(shard.Index)),
			core.DefaultInception, core.DefaultExpiration, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	h := dep.Hierarchy
	h.Net.Instrument(rp.reg)
	h.Instrument(rp.reg)
	rp.wrapWorld(h)
	// The §4.1 measurement resolver, as core installs it.
	resolverAddr := netsim.Addr4(1, 1, 1, 1)
	h.Net.Register(resolverAddr, handler{rec: rp.rec, kind: kindResolver, next: resolver.New(resolver.Config{
		Roots:           h.Roots,
		TrustAnchor:     h.TrustAnchor,
		Exchanger:       h.Net,
		Policy:          respop.Cloudflare.Policy,
		Now:             func() uint32 { return core.DefaultNow },
		MaxCacheEntries: 1 << 16,
		Obs:             rp.reg,
	})})
	sc := scanner.New(scanner.Config{
		Exchanger: exchanger{rec: rp.rec, next: h.Net},
		Resolver:  resolverAddr,
		Workers:   spec.Workers,
		QPS:       spec.QPS,
		Seed:      spec.Seed + 1 + uint64(shard.Index),
		Obs:       rp.reg,
	})
	defer sc.Close()
	before := rp.authSpans()

	names := make([]dnswire.Name, len(u.Domains))
	for i := range u.Domains {
		names[i] = u.Domains[i].Name
	}
	var sinks []*timedSink
	if err := rp.rec.phase("scanner.scan", func() (err error) {
		sinks, err = rp.scan(ctx, sc, names, true)
		return err
	}); err != nil {
		return nil, err
	}
	if shard.Index == 0 {
		if err := rp.rec.phase("scanner.scan_tlds", func() error {
			return rp.scanTLDs(ctx, sc, u.TLDs, out)
		}); err != nil {
			return nil, err
		}
	}
	if err := rp.rec.phase("scanner.axfr", func() error {
		return countIDDomains(ctx, planner, shard, dep, out)
	}); err != nil {
		return nil, err
	}

	signed, reused := h.SignStats()
	_, untouched := h.LazyStats()
	rp.mu.Lock()
	rp.signed += signed
	rp.reused += reused
	rp.untouched += untouched
	rp.worldQueries = append(rp.worldQueries, rp.authSpans()-before)
	rp.mu.Unlock()

	rp.rec.timed("core.fold", func() {
		for _, s := range sinks {
			out.Agg.Merge(s.agg)
			out.Operators.Merge(s.ops)
			out.ScanErrors += s.errors
		}
	})
	return out, nil
}

func (rp *replica) scanTLDs(ctx context.Context, sc *scanner.Scanner, tlds []population.TLDSpec, out *core.ShardOutcome) error {
	names := make([]dnswire.Name, 0, len(tlds))
	for _, t := range tlds {
		n, err := dnswire.FromLabels(t.Name)
		if err != nil {
			return err
		}
		names = append(names, n)
	}
	sinks, err := rp.scan(ctx, sc, names, false)
	if err != nil {
		return err
	}
	agg := compliance.NewAggregate()
	for _, s := range sinks {
		agg.Merge(s.agg)
		out.ScanErrors += s.errors
	}
	out.TLDs = agg
	return nil
}

// countIDDomains is the ≥12.6 M Identity Digital estimate: AXFR where
// the registry opens its zone data, the registered-domain list
// otherwise.
func countIDDomains(ctx context.Context, planner *population.ShardPlanner, shard *population.Shard, dep *population.Deployment, out *core.ShardOutcome) error {
	u := shard.Universe
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
		if t.OpenZoneData && (shard.Index == 0 || listCounts[t.Name] > 0) {
			apex, err := dnswire.FromLabels(t.Name)
			if err != nil {
				return err
			}
			if _, err := dep.Hierarchy.Materialize(ctx, apex); err != nil {
				return err
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
	return nil
}

// runSurvey plans the survey and executes every shard through
// the replica, merging with core's own ReportBuilder.
func (rp *replica) runSurvey(ctx context.Context, cfg core.SurveyConfig) (*core.SurveyReport, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	jobs, err := core.PlanJobs(spec)
	if err != nil {
		return nil, err
	}
	planner, err := population.NewShardPlanner(population.Config{Registered: spec.Registered, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	b := core.NewReportBuilder(spec)
	for _, job := range jobs {
		out, err := rp.executeSurveyShard(ctx, planner, job)
		if err != nil {
			return nil, err
		}
		if err := rp.rec.phase("core.merge", func() error { return b.Add(out) }); err != nil {
			return nil, err
		}
	}
	var r *core.SurveyReport
	rp.rec.timed("core.merge", func() { r = b.Finish() })
	return r, nil
}

// executeResolverShard is core.ResolverShardRunner.Execute rebuilt
// with traced seams. Each deployed resolver is re-created with the
// same configuration plus a metrics registry, which never feeds back
// into its answers.
func (rp *replica) executeResolverShard(ctx context.Context, planner *respop.Planner, job core.ResolverShardJob) (*core.ResolverShardOutcome, error) {
	var h *testbed.Hierarchy
	if err := rp.rec.phase("testbed.build", func() (err error) {
		h, err = core.BuildTestbedWorld(job.Spec.Seed+uint64(job.Plan.Index),
			testbed.WithLazySigning(), testbed.WithCache(rp.cache))
		return err
	}); err != nil {
		return nil, err
	}
	h.Instrument(rp.reg)
	var instances []*respop.Instance
	if err := rp.rec.phase("respop.deploy", func() (err error) {
		instances, err = respop.DeployShard(h, planner, job.Plan)
		return err
	}); err != nil {
		return nil, err
	}
	rp.wrapWorld(h)
	for _, inst := range instances {
		h.Net.Register(inst.Addr, handler{rec: rp.rec, kind: kindResolver, next: resolver.New(resolver.Config{
			Roots:       h.Roots,
			TrustAnchor: h.TrustAnchor,
			Exchanger:   h.Net,
			Policy:      inst.Profile.Policy,
			Now:         func() uint32 { return core.DefaultNow },
			Obs:         rp.reg,
		})})
	}
	before := rp.authSpans()

	out := &core.ResolverShardOutcome{
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
			closed = append(closed, inst)
		}
	}

	ex := exchanger{rec: rp.rec, next: h.Net}
	trs := make([]*testbed.Transcript, len(open))
	errs := make([]error, len(open))
	rp.rec.timed("testbed.probe_open", func() {
		sem := make(chan struct{}, job.Spec.Workers)
		var wg sync.WaitGroup
		for i, inst := range open {
			wg.Add(1)
			go func() {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				}
				defer func() { <-sem }()
				t0 := rp.rec.now()
				trs[i], errs[i] = testbed.ProbeResolver(ctx, ex, inst.Addr, fmt.Sprintf("open-%d", inst.Index))
				d := time.Duration(rp.rec.now() - t0)
				rp.mu.Lock()
				rp.probeLat = append(rp.probeLat, d)
				rp.mu.Unlock()
			}()
		}
		wg.Wait()
	})

	probes := make([]atlas.Probe, len(closed))
	for i, inst := range closed {
		probes[i] = atlas.Probe{ID: inst.Index, Resolver: inst.Addr, IPv6: inst.Quadrant == respop.ClosedIPv6}
	}
	var measured []atlas.MeasurementResult
	rp.rec.timed("atlas.measure", func() {
		platform := &atlas.Platform{Exchanger: ex, MaxConcurrent: job.Spec.Workers}
		measured = platform.Measure(ctx, probes, "closed")
	})

	classify := func(inst *respop.Instance, tr *testbed.Transcript, err error) {
		if err != nil || tr == nil {
			out.ProbeFailures++
			return
		}
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
	rp.rec.timed("core.fold", func() {
		for i, inst := range open {
			classify(inst, trs[i], errs[i])
		}
		for i, inst := range closed {
			classify(inst, measured[i].Transcript, measured[i].Err)
		}
	})

	signed, reused := h.SignStats()
	_, untouched := h.LazyStats()
	rp.mu.Lock()
	rp.signed += signed
	rp.reused += reused
	rp.untouched += untouched
	rp.closedProbes += len(closed)
	rp.worldQueries = append(rp.worldQueries, rp.authSpans()-before)
	rp.mu.Unlock()
	return out, nil
}

// runResolverStudy plans the study and executes every shard through
// the replica, merging with core's own ResolverReportBuilder.
func (rp *replica) runResolverStudy(ctx context.Context, cfg core.ResolverStudyConfig) (*core.ResolverStudyReport, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	jobs, err := core.PlanResolverJobs(spec)
	if err != nil {
		return nil, err
	}
	return rp.runResolverJobs(ctx, spec, jobs)
}

// runResolverJobs executes the given shard jobs of spec's study and
// merges their outcomes.
func (rp *replica) runResolverJobs(ctx context.Context, spec core.ResolverStudySpec, jobs []core.ResolverShardJob) (*core.ResolverStudyReport, error) {
	planner, err := respop.NewPlanner(respop.DeployConfig{
		Counts: respop.DefaultCounts(spec.ScaleDen),
		Seed:   spec.Seed + 11,
		Now:    func() uint32 { return core.DefaultNow },
	})
	if err != nil {
		return nil, err
	}
	b := core.NewResolverReportBuilder(spec)
	for _, job := range jobs {
		out, err := rp.executeResolverShard(ctx, planner, job)
		if err != nil {
			return nil, err
		}
		if err := rp.rec.phase("core.merge", func() error { return b.Add(out) }); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}
