package main

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distsurvey"
	"repro/internal/obs"
)

// perLayer lists every per-layer metric of the traced run, in the
// order BENCHMARK.json names them. A layer a workload does not
// exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.execute_s", "s"},
	{"core.merge_s", "s"},
	{"core.cpu_util", "ratio"},
	{"population.generate_s", "s"},
	{"population.deploy_s", "s"},
	{"testbed.zones_signed", "count"},
	{"testbed.zones_reused", "count"},
	{"testbed.sign_reuse_ratio", "ratio"},
	{"testbed.zones_untouched", "count"},
	{"testbed.build_s", "s"},
	{"testbed.probe_ms_p50", "ms"},
	{"testbed.probe_ms_p99", "ms"},
	{"testbed.world_queries_max", "count"},
	{"atlas.measure_s", "s"},
	{"atlas.probes", "count"},
	{"scanner.domains", "count"},
	{"scanner.domain_ms_p50", "ms"},
	{"scanner.domain_ms_p99", "ms"},
	{"scanner.queries", "count"},
	{"scanner.retry_ratio", "ratio"},
	{"scanner.limiter_wait_s", "s"},
	{"netsim.exchanges", "count"},
	{"netsim.codec_self_s", "s"},
	{"resolver.client_queries", "count"},
	{"resolver.self_s", "s"},
	{"resolver.us_p50", "us"},
	{"resolver.us_p99", "us"},
	{"resolver.upstream_per_query", "ratio"},
	{"resolver.nsec3_hash_work", "count"},
	{"resolver.aggressive_hit_ratio", "ratio"},
	{"authserver.queries", "count"},
	{"authserver.self_s", "s"},
	{"authserver.us_p50", "us"},
	{"authserver.us_p99", "us"},
	{"authserver.nxdomain_us_p50", "us"},
	{"authserver.bytes_per_response", "bytes"},
	{"authserver.allocs_per_query", "count"},
	{"authserver.sign_wait_s", "s"},
	{"distsurvey.leases_granted", "count"},
	{"distsurvey.leases_expired", "count"},
	{"distsurvey.results_rejected", "count"},
	{"distsurvey.worker_busy_ratio", "ratio"},
	{"distsurvey.sign_dup_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_s", "s"},
}

// enginePass runs every shard job through core's own runner and report
// builder and returns the report digest plus the zones signed.
func enginePass(ctx context.Context, cfg core.SurveyConfig, m map[string]float64) (string, uint64, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return "", 0, err
	}
	jobs, err := core.PlanJobs(spec)
	if err != nil {
		return "", 0, err
	}
	reg := obs.NewRegistry()
	runner := core.NewShardRunner(reg, nil, nil)
	b := core.NewReportBuilder(spec)
	exec := func(j core.ShardJob) (*core.ShardOutcome, error) { return runner.Execute(ctx, j) }
	var r *core.SurveyReport
	if err := timeEngine(jobs, exec, b.Add, func() { r = b.Finish() }, m); err != nil {
		return "", 0, err
	}
	return surveyDigest(r), reg.Counter("survey_zones_signed_total", "").Value(), nil
}

// resolverEnginePass is enginePass for the resolver study.
func resolverEnginePass(ctx context.Context, cfg core.ResolverStudyConfig, m map[string]float64) (string, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return "", err
	}
	jobs, err := core.PlanResolverJobs(spec)
	if err != nil {
		return "", err
	}
	runner := core.NewResolverShardRunner(nil, nil, nil)
	b := core.NewResolverReportBuilder(spec)
	exec := func(j core.ResolverShardJob) (*core.ResolverShardOutcome, error) { return runner.Execute(ctx, j) }
	var r *core.ResolverStudyReport
	if err := timeEngine(jobs, exec, b.Add, func() { r = b.Finish() }, m); err != nil {
		return "", err
	}
	return resolverDigest(r), nil
}

// timeEngine executes every job and merges its outcome, timing the
// Execute calls (wall and process CPU) and the merge calls (Add and
// Finish) into the core.* metrics.
//
//repro:nondeterministic layer timing is telemetry, never program output
func timeEngine[J, O any](jobs []J, exec func(J) (O, error), add func(O) error, finish func(), m map[string]float64) error {
	var execT, merge time.Duration
	var cpu float64
	for _, job := range jobs {
		t0, c0 := time.Now(), cpuSeconds()
		out, err := exec(job)
		execT += time.Since(t0)
		cpu += cpuSeconds() - c0
		if err != nil {
			return err
		}
		t1 := time.Now()
		err = add(out)
		merge += time.Since(t1)
		if err != nil {
			return err
		}
	}
	t2 := time.Now()
	finish()
	merge += time.Since(t2)
	m["core.execute_s"] = execT.Seconds()
	m["core.merge_s"] = merge.Seconds()
	m["core.cpu_util"] = cpu / execT.Seconds()
	return nil
}

// replicaLayers derives the per-layer metrics the replica recorded.
func (rp *replica) layers(m map[string]float64, wall time.Duration) {
	ix := rp.rec.index()
	ix.layerStats(m)
	m["population.generate_s"] = ix.sum("population.generate")
	m["population.deploy_s"] = ix.sum("population.deploy")
	m["testbed.build_s"] = ix.sum("testbed.build") + ix.sum("population.deploy")
	m["testbed.zones_signed"] = float64(rp.signed)
	m["testbed.zones_reused"] = float64(rp.reused)
	if rp.signed+rp.reused > 0 {
		m["testbed.sign_reuse_ratio"] = float64(rp.reused) / float64(rp.signed+rp.reused)
	}
	m["testbed.zones_untouched"] = float64(rp.untouched)
	for _, q := range rp.worldQueries {
		m["testbed.world_queries_max"] = max(m["testbed.world_queries_max"], float64(q))
	}
	m["testbed.probe_ms_p50"] = quantileDur(rp.probeLat, 0.50) / 1e3
	m["testbed.probe_ms_p99"] = quantileDur(rp.probeLat, 0.99) / 1e3
	m["atlas.measure_s"] = ix.sum("atlas.measure")
	m["atlas.probes"] = float64(rp.closedProbes)
	m["scanner.domains"] = float64(len(rp.domainLat))
	m["scanner.domain_ms_p50"] = quantileDur(rp.domainLat, 0.50) / 1e3
	m["scanner.domain_ms_p99"] = quantileDur(rp.domainLat, 0.99) / 1e3
	counter := func(name string) float64 { return float64(rp.reg.Counter(name, "").Value()) }
	m["scanner.queries"] = counter("scanner_queries_total")
	if q := counter("scanner_queries_total"); q > 0 {
		m["scanner.retry_ratio"] = counter("scanner_retries_total") / q
	}
	m["scanner.limiter_wait_s"] = counter("scanner_limiter_wait_nanoseconds_total") / 1e9
	m["resolver.nsec3_hash_work"] = counter("resolver_nsec3_hash_work_total")
	if n := counter("resolver_aggressive_hits_total") + counter("resolver_aggressive_misses_total"); n > 0 {
		m["resolver.aggressive_hit_ratio"] = counter("resolver_aggressive_hits_total") / n
	}
	m["authserver.sign_wait_s"] = rp.reg.Histogram("authserver_sign_wait_ns", "", nil).Sum() / 1e9
	m["trace.unattributed_s"] = (wall - time.Duration(ix.topLevelCovered())).Seconds()
}

// tracedSurvey: the engine pass for core.*, then the traced replica
// for every layer below it. Both reports must match.
//
//repro:nondeterministic layer timing is telemetry, never program output
func tracedSurvey(ctx context.Context, seed uint64) (*record, error) {
	cfg := surveyConfig(seed, surveyShards)
	m := make(map[string]float64)
	engineDigest, _, err := enginePass(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	rec, err := surveyReplicaPass(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	if rec.Digest != engineDigest {
		rec.Failed = rec.Ops
	}
	return rec, nil
}

//repro:nondeterministic layer timing is telemetry, never program output
func surveyReplicaPass(ctx context.Context, cfg core.SurveyConfig, m map[string]float64) (*record, error) {
	rp := newReplica()
	t0 := time.Now()
	r, err := rp.runSurvey(ctx, cfg)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	rp.layers(m, wall)
	return &record{WallS: wall.Seconds(), Ops: surveyDomains, Failed: r.ScanErrors, Digest: surveyDigest(r), Layers: m}, nil
}

// tracedSurveyDist: the survey engine pass (the sign-work baseline),
// the distributed run with registries and worker phase tracers, and the
// survey replica for the layers below distsurvey, which run the same
// shard code in every worker.
//
//repro:nondeterministic layer timing is telemetry, never program output
func tracedSurveyDist(ctx context.Context, seed uint64) (*record, error) {
	cfg := surveyConfig(seed, surveyShards)
	m := make(map[string]float64)
	engineDigest, inprocSigned, err := enginePass(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	spec, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	busy := make([]*phaseSum, distWorkers)
	t0 := time.Now()
	r, err := runDistributed(ctx, spec, reg, func(i int) distsurvey.WorkerConfig {
		busy[i] = &phaseSum{}
		return distsurvey.WorkerConfig{Trace: obs.NewTracer(busy[i])}
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var busyS float64
	var phases [][2]int64
	for _, b := range busy {
		busyS += b.seconds()
		phases = append(phases, b.spans...)
	}
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	signed, reused := counter("survey_zones_signed_total"), counter("survey_zones_reused_total")
	m["distsurvey.leases_granted"] = counter("distsurvey_leases_granted_total")
	m["distsurvey.leases_expired"] = counter("distsurvey_leases_expired_total")
	m["distsurvey.results_rejected"] = counter("distsurvey_results_rejected_total")
	m["distsurvey.worker_busy_ratio"] = busyS / (distWorkers * wall.Seconds())
	if inprocSigned > 0 {
		m["distsurvey.sign_dup_ratio"] = signed / float64(inprocSigned)
	}
	// Signing work and unattributed time as the distributed run saw
	// them: worker caches and worker phase spans.
	m["testbed.zones_signed"], m["testbed.zones_reused"] = signed, reused
	m["testbed.zones_untouched"] = counter("survey_zones_untouched_total")
	if signed+reused > 0 {
		m["testbed.sign_reuse_ratio"] = reused / (signed + reused)
	}
	m["trace.unattributed_s"] = (wall - time.Duration(covered(phases))).Seconds()
	distDigest := surveyDigest(r)

	rm := make(map[string]float64)
	if _, err := surveyReplicaPass(ctx, cfg, rm); err != nil {
		return nil, err
	}
	for k, v := range rm {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	rec := &record{WallS: wall.Seconds(), Ops: surveyDomains, Failed: r.ScanErrors, Digest: distDigest, Layers: m}
	if distDigest != engineDigest {
		rec.Failed = rec.Ops
	}
	return rec, nil
}

// phaseSum is an obs.LineWriter that keeps the phase spans a worker's
// tracer emits, as Unix-nanosecond intervals.
type phaseSum struct {
	mu    sync.Mutex
	spans [][2]int64
}

func (p *phaseSum) WriteAny(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var s struct {
		StartUnixNS int64 `json:"start_unix_ns"`
		DurationNS  int64 `json:"duration_ns"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	p.mu.Lock()
	p.spans = append(p.spans, [2]int64{s.StartUnixNS, s.StartUnixNS + s.DurationNS})
	p.mu.Unlock()
	return nil
}

// seconds is the time the worker spent in phases.
func (p *phaseSum) seconds() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(covered(append([][2]int64(nil), p.spans...))) / 1e9
}

// tracedResolverStudy: the engine pass for core.*, then the traced
// replica, which also records the authoritative query mix.
//
//repro:nondeterministic layer timing is telemetry, never program output
func tracedResolverStudy(ctx context.Context, seed uint64) (*record, error) {
	cfg := core.ResolverStudyConfig{ScaleDen: resolverScaleDen, Seed: seed, Shards: 1}
	m := make(map[string]float64)
	engineDigest, err := resolverEnginePass(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	rp := newReplica()
	t0 := time.Now()
	r, err := rp.runResolverStudy(ctx, cfg)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	rp.layers(m, wall)
	out := resolverOut(r)
	rec := &record{WallS: wall.Seconds(), Ops: out.ops, Failed: out.failed, Digest: out.digest, Layers: m,
		Mix: perProbe(rp.rec.index().queryMix(), out.ops)}
	if rec.Digest != engineDigest {
		rec.Failed = rec.Ops
	}
	return rec, nil
}

// tracedAuthserve: one job's rounds through a traced exchanger into
// traced authoritative servers, plus the direct-Handle allocation pass.
//
//repro:nondeterministic layer timing is telemetry, never program output
func tracedAuthserve(ctx context.Context, seed uint64) (*record, error) {
	rp := newReplica()
	m := make(map[string]float64)
	tb := time.Now()
	h, err := buildAuthWorld(seed)
	m["testbed.build_s"] = time.Since(tb).Seconds()
	if err != nil {
		return nil, err
	}
	m["testbed.zones_signed"], m["testbed.zones_reused"] = float64(h.ZonesSigned), float64(h.ZonesReused)
	tmpl := roundTemplate()
	if m["authserver.allocs_per_query"], err = allocsPerQuery(ctx, h, tmpl, 20); err != nil {
		return nil, err
	}
	rp.wrapWorld(h)
	t0 := time.Now()
	var out *jobOut
	err = rp.rec.phase("authserve.rounds", func() (err error) {
		out, err = serveRounds(ctx, exchanger{rec: rp.rec, next: h.Net}, tmpl, seed, authRounds)
		return err
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	ix := rp.rec.index()
	ix.layerStats(m)
	m["testbed.world_queries_max"] = m["authserver.queries"]
	m["trace.unattributed_s"] = (wall - time.Duration(ix.topLevelCovered())).Seconds()
	return &record{WallS: wall.Seconds(), Ops: out.ops, Failed: out.failed, Layers: m,
		Mix: perProbe(ix.queryMix(), authRounds)}, nil
}

// perProbe divides a query mix by the number of probes (resolvers or
// rounds) that produced it.
func perProbe(mix map[string]int, probes int) map[string]float64 {
	out := make(map[string]float64, len(mix))
	for k, v := range mix {
		out[k] = float64(v) / float64(max(probes, 1))
	}
	return out
}
